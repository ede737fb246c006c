#include <cctype>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/timer.h"

namespace streamasp {
namespace {

// ---------------------------------------------------------------- Status.

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = InvalidArgumentError("bad rule");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad rule");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad rule");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(InvalidArgumentError("x").code());
  codes.insert(NotFoundError("x").code());
  codes.insert(FailedPreconditionError("x").code());
  codes.insert(OutOfRangeError("x").code());
  codes.insert(ResourceExhaustedError("x").code());
  codes.insert(InternalError("x").code());
  codes.insert(UnimplementedError("x").code());
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(StatusCodeTest, ToStringCoversAllCodes) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "UNIMPLEMENTED");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(NotFoundError("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

namespace status_macros {

Status FailIfNegative(int x) {
  if (x < 0) return OutOfRangeError("negative");
  return OkStatus();
}

Status Caller(int x) {
  STREAMASP_RETURN_IF_ERROR(FailIfNegative(x));
  return OkStatus();
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  STREAMASP_ASSIGN_OR_RETURN(const int half, Half(x));
  STREAMASP_ASSIGN_OR_RETURN(const int quarter, Half(half));
  return quarter;
}

}  // namespace status_macros

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(status_macros::Caller(1).ok());
  EXPECT_EQ(status_macros::Caller(-1).code(), StatusCode::kOutOfRange);
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesAndAssigns) {
  StatusOr<int> ok = status_macros::Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_EQ(status_macros::Quarter(6).status().code(),
            StatusCode::kInvalidArgument);  // 6/2 = 3 is odd.
}

// --------------------------------------------------------------- Strings.

TEST(StringsTest, SplitBasic) {
  const std::vector<std::string> pieces = StrSplit("a,b,c", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit(",a,", ',').size(), 3u);
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringsTest, JoinRoundTrip) {
  const std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(pieces, "::"), "x::y::z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("inner space"), "inner space");
  EXPECT_EQ(StripWhitespace("\r\v\fa b\r\n"), "a b");
  // Exactly the "C" locale's isspace set, byte for byte.
  for (int c = 0; c < 256; ++c) {
    const std::string byte(1, static_cast<char>(c));
    EXPECT_EQ(StripWhitespace(byte).empty(), std::isspace(c) != 0) << c;
  }
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("traffic_jam", "traffic"));
  EXPECT_FALSE(StartsWith("traffic", "traffic_jam"));
  EXPECT_TRUE(EndsWith("traffic_jam", "_jam"));
  EXPECT_FALSE(EndsWith("jam", "_jam"));
}

TEST(StringsTest, ParseInt64Valid) {
  int64_t out = 0;
  EXPECT_TRUE(ParseInt64("12345", &out));
  EXPECT_EQ(out, 12345);
  EXPECT_TRUE(ParseInt64("-7", &out));
  EXPECT_EQ(out, -7);
  EXPECT_TRUE(ParseInt64("+9", &out));
  EXPECT_EQ(out, 9);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &out));
  EXPECT_EQ(out, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &out));
  EXPECT_EQ(out, INT64_MIN);
}

TEST(StringsTest, ParseInt64Invalid) {
  int64_t out = 99;
  EXPECT_FALSE(ParseInt64("", &out));
  EXPECT_FALSE(ParseInt64("-", &out));
  EXPECT_FALSE(ParseInt64("12x", &out));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &out));   // Overflow.
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &out));  // Underflow.
  EXPECT_EQ(out, 99) << "failed parses must not clobber the output";
}

// ------------------------------------------------------------------- Rng.

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ----------------------------------------------------------------- Timer.

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  // Burn a little CPU deterministically.
  uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<uint64_t>(i);
  EXPECT_GT(sink, 0u);
  EXPECT_GE(timer.ElapsedMicros(), 0);
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

TEST(TimerTest, RestartResets) {
  WallTimer timer;
  uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<uint64_t>(i);
  EXPECT_GT(sink, 0u);
  const int64_t before = timer.ElapsedMicros();
  timer.Restart();
  EXPECT_LE(timer.ElapsedMicros(), before + 1000000);
}

}  // namespace
}  // namespace streamasp
