// The session server stack: wire codec, session lifecycle, the
// multi-tenant isolation property (concurrent sessions' emission streams
// byte-identical to standalone engines; saturating one session never
// degrades another), the in-proc transport, and a TCP loopback smoke.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "server/server.h"
#include "server/session.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "stream/generator.h"
#include "streamrule/answer.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "util/strings.h"

namespace streamasp {
namespace {

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(WireTest, FrameRoundTrip) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame("hello"));
  decoder.Feed(EncodeFrame(""));
  decoder.Feed(EncodeFrame("ping\nline2"));
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "hello");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "ping\nline2");
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.status().ok());
}

TEST(WireTest, FrameDecoderHandlesSplitFeeds) {
  const std::string frame = EncodeFrame("split across many feeds");
  FrameDecoder decoder;
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(std::string_view(&frame[i], 1));
    EXPECT_FALSE(decoder.Next(&payload));
  }
  decoder.Feed(std::string_view(&frame.back(), 1));
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "split across many feeds");
}

TEST(WireTest, FrameDecoderWedgesOnOversizedFrame) {
  std::string huge_header;
  huge_header.push_back(static_cast<char>(0x7f));  // 0x7fffffff >> limit.
  huge_header.push_back(static_cast<char>(0xff));
  huge_header.push_back(static_cast<char>(0xff));
  huge_header.push_back(static_cast<char>(0xff));
  FrameDecoder decoder;
  decoder.Feed(huge_header);
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_EQ(decoder.status().code(), StatusCode::kInvalidArgument);
  // Wedged: even a well-formed follow-up frame is refused.
  decoder.Feed(EncodeFrame("ping"));
  EXPECT_FALSE(decoder.Next(&payload));
}

TEST(WireTest, ParsesOpenWithOptionsAndProgram) {
  auto request = ParseRequest(
      "open s1 window=100 slide=25 shards=2 async=1 inflight=3 "
      "reuse=solve admission=reject\n"
      "a(X) :- b(X).\n"
      "#input b/1.");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->command, WireRequest::Command::kOpen);
  EXPECT_EQ(request->session, "s1");
  const SessionOptions& options = request->options;
  EXPECT_EQ(options.engine.pipeline.window_size, 100u);
  EXPECT_EQ(options.engine.pipeline.window_slide, 25u);
  EXPECT_EQ(options.engine.pipeline.reasoner.num_shards, 2u);
  EXPECT_EQ(options.engine.pipeline.max_inflight_windows, 3u);
  EXPECT_TRUE(options.engine.pipeline.reasoner.reasoner.solving.reuse_solving);
  EXPECT_EQ(options.engine.pipeline.backpressure, BackpressurePolicy::kReject);
  EXPECT_EQ(options.program_text, "a(X) :- b(X).\n#input b/1.");
}

TEST(WireTest, ParseRequestRejectsMalformedInput) {
  EXPECT_EQ(ParseRequest("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("warble s1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("push").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 window").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 window=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 admission=drop").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 reuse=maybe").status().code(),
            StatusCode::kInvalidArgument);
  // Grounding-only reuse is gone: reuse is one path, reuse=solve.
  EXPECT_EQ(ParseRequest("open s1 reuse=ground").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 color=red").status().code(),
            StatusCode::kInvalidArgument);
  // Every session is a pooled lane: there is no sync shape to ask for,
  // no private pool to size and no ingest queue to bound.
  EXPECT_EQ(ParseRequest("open s1 async=0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 workers=2").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 queue=5").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, ParsesVersionAndFairnessOptions) {
  auto request = ParseRequest(
      "open s1 window=100 async=1 inflight=3 weight=4 max_queued=8 "
      "max_inflight=2 v=1\n"
      "a(X) :- b(X).\n#input b/1.");
  ASSERT_TRUE(request.ok()) << request.status();
  const PipelineOptions& pipeline = request->options.engine.pipeline;
  EXPECT_EQ(pipeline.pool_weight, 4u);
  EXPECT_EQ(pipeline.max_queued_windows, 8u);
  EXPECT_EQ(pipeline.pool_max_inflight, 2u);
  EXPECT_TRUE(request->has_version);
  EXPECT_EQ(request->protocol_version, kProtocolVersion);

  // Version is optional: v0-era clients that send no `v` still parse.
  auto unversioned = ParseRequest("open s2 window=10\np(a).");
  ASSERT_TRUE(unversioned.ok()) << unversioned.status();
  EXPECT_FALSE(unversioned->has_version);
}

TEST(WireTest, RejectsMalformedFairnessAndVersionOptions) {
  EXPECT_EQ(ParseRequest("open s1 weight=0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 weight=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 max_queued=-1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 max_inflight=x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseRequest("open s1 v=abc").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, ErrorRepliesCarryMachineReadableCodes) {
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kNotFound), "unknown_session");
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kResourceExhausted), "quota_exceeded");
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(ErrorCodeSlug(StatusCode::kFailedPrecondition),
            "failed_precondition");

  const std::string not_found =
      FormatError("push", "ghost", NotFoundError("session 'ghost' not found"));
  EXPECT_EQ(not_found.rfind("error push ghost code=unknown_session ", 0), 0u)
      << not_found;
  const std::string custom = FormatError(
      "open", "s", InvalidArgumentError("unsupported protocol version v=9"),
      "unsupported_version");
  EXPECT_EQ(custom.rfind("error open s code=unsupported_version ", 0), 0u)
      << custom;
  EXPECT_EQ(FormatOpenOk("s1"), "ok open s1 v=1");
}

TEST(WireTest, ParsesTripleLines) {
  SymbolTablePtr symbols = MakeSymbolTable();
  auto unary = ParseTripleLine("traffic_light j1", *symbols);
  ASSERT_TRUE(unary.ok()) << unary.status();
  EXPECT_EQ(unary->predicate, symbols->Intern("traffic_light"));
  EXPECT_EQ(unary->subject, PackedTerm::Symbol(symbols->Intern("j1")));

  auto binary = ParseTripleLine("average_speed j1 17", *symbols);
  ASSERT_TRUE(binary.ok()) << binary.status();
  EXPECT_EQ(binary->object, PackedTerm::Integer(17));

  EXPECT_EQ(ParseTripleLine("lonely", *symbols).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTripleLine("a b c d", *symbols).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, CrlfPushHeadAddressesTheBareSession) {
  auto request = ParseRequest("push s1\r\nlink a b\r\nlink b c\r\n");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->command, WireRequest::Command::kPush);
  EXPECT_EQ(request->session, "s1");
  EXPECT_EQ(request->lines, (std::vector<std::string>{"link a b", "link b c"}));
}

TEST(WireTest, CrlfPingIsAPing) {
  auto request = ParseRequest("ping\r");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->command, WireRequest::Command::kPing);
  auto crlf = ParseRequest("ping\r\n");
  ASSERT_TRUE(crlf.ok()) << crlf.status();
  EXPECT_EQ(crlf->command, WireRequest::Command::kPing);
}

TEST(WireTest, CrlfOpenOptionKeepsItsInteger) {
  auto request = ParseRequest("open s1 window=10\r\np(a).");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->session, "s1");
  EXPECT_EQ(request->options.engine.pipeline.window_size, 10u);
  EXPECT_EQ(request->options.program_text, "p(a).");
}

// ---------------------------------------------------------------------------
// Differential wire parser test.
// ---------------------------------------------------------------------------

// The wire parser as it was before push ingest stopped allocating: split
// the whole payload on '\n', tokenize each line into owned strings. It is
// the oracle for the in-place parser. The one intended difference, the
// stripped head line, is applied here too.
std::vector<std::string> ReferenceTokens(std::string_view line) {
  std::vector<std::string> tokens;
  for (std::string& piece : StrSplit(line, ' ')) {
    if (!piece.empty()) tokens.push_back(std::move(piece));
  }
  return tokens;
}

StatusOr<WireRequest> ReferenceParseRequest(std::string_view payload) {
  const std::vector<std::string> lines = StrSplit(payload, '\n');
  const std::vector<std::string> head =
      ReferenceTokens(StripWhitespace(lines[0]));
  if (head.empty()) return InvalidArgumentError("empty request");
  const std::string& verb = head[0];
  WireRequest request;
  if (verb == "ping") {
    request.command = WireRequest::Command::kPing;
    return request;
  }
  if (head.size() < 2) {
    return InvalidArgumentError("request '" + verb + "' needs a session name");
  }
  if (verb == "open") {
    // Option handling did not change; reach it through the parser with
    // the reference's own fields re-joined by single spaces.
    StatusOr<WireRequest> open = ParseRequest(StrJoin(head, " "));
    if (!open.ok()) return open.status();
    request = std::move(*open);
    const std::vector<std::string> program(lines.begin() + 1, lines.end());
    request.options.program_text = StrJoin(program, "\n");
    return request;
  }
  request.session = head[1];
  if (verb == "push") {
    request.command = WireRequest::Command::kPush;
    for (size_t i = 1; i < lines.size(); ++i) {
      const std::string_view line = StripWhitespace(lines[i]);
      if (!line.empty()) request.lines.emplace_back(line);
    }
    return request;
  }
  if (verb == "flush") {
    request.command = WireRequest::Command::kFlush;
    return request;
  }
  if (verb == "stats") {
    request.command = WireRequest::Command::kStats;
    return request;
  }
  if (verb == "close") {
    request.command = WireRequest::Command::kClose;
    return request;
  }
  return InvalidArgumentError("unknown request verb '" + verb + "'");
}

StatusOr<Triple> ReferenceParseTripleLine(std::string_view line,
                                          SymbolTable& symbols) {
  const std::vector<std::string> tokens = ReferenceTokens(line);
  if (tokens.size() < 2 || tokens.size() > 3) {
    return InvalidArgumentError(
        "triple line needs '<predicate> <subject> [<object>]', got '" +
        std::string(line) + "'");
  }
  auto parse_term = [&symbols](const std::string& token) {
    int64_t number = 0;
    if (ParseInt64(token, &number)) return PackedTerm::Integer(number);
    return PackedTerm::Symbol(symbols.Intern(token));
  };
  Triple triple;
  triple.predicate = symbols.Intern(tokens[0]);
  triple.subject = parse_term(tokens[1]);
  if (tokens.size() == 3) triple.object = parse_term(tokens[2]);
  return triple;
}

void ExpectSameRequest(const StatusOr<WireRequest>& got,
                       const StatusOr<WireRequest>& want,
                       const std::string& payload) {
  SCOPED_TRACE(::testing::PrintToString(payload));
  ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  EXPECT_EQ(got->command, want->command);
  EXPECT_EQ(got->session, want->session);
  EXPECT_EQ(got->lines, want->lines);
  EXPECT_EQ(got->protocol_version, want->protocol_version);
  EXPECT_EQ(got->has_version, want->has_version);
  const SessionOptions& a = got->options;
  const SessionOptions& b = want->options;
  EXPECT_EQ(a.program_text, b.program_text);
  EXPECT_EQ(a.engine.pipeline.window_size, b.engine.pipeline.window_size);
  EXPECT_EQ(a.engine.pipeline.window_slide, b.engine.pipeline.window_slide);
  EXPECT_EQ(a.engine.pipeline.max_inflight_windows,
            b.engine.pipeline.max_inflight_windows);
  EXPECT_EQ(a.engine.pipeline.reasoner.reasoner.reuse_grounding,
            b.engine.pipeline.reasoner.reasoner.reuse_grounding);
  EXPECT_EQ(a.engine.pipeline.reasoner.reasoner.solving.reuse_solving,
            b.engine.pipeline.reasoner.reasoner.solving.reuse_solving);
  EXPECT_EQ(a.engine.pipeline.reasoner.num_shards,
            b.engine.pipeline.reasoner.num_shards);
  EXPECT_EQ(a.engine.pipeline.backpressure, b.engine.pipeline.backpressure);
  EXPECT_EQ(a.engine.pipeline.pool_weight, b.engine.pipeline.pool_weight);
  EXPECT_EQ(a.engine.pipeline.pool_max_inflight,
            b.engine.pipeline.pool_max_inflight);
  EXPECT_EQ(a.engine.pipeline.max_queued_windows,
            b.engine.pipeline.max_queued_windows);
}

/// Seeded generator of hostile-but-plausible payloads: odd spacing, tabs
/// and '\r' inside and around fields, blank and whitespace-only lines,
/// 0- to 5-field triple lines, and integer tokens at the int64 edges.
class WirePayloadGenerator {
 public:
  explicit WirePayloadGenerator(uint64_t seed) : rng_(seed) {}

  std::string Field() {
    static const char* const kFields[] = {
        "link", "a", "j1", "average_speed", "car_number", "x\ty", "\tz",
        "q\r", "a\rb", "-", "+", "+0", "-0", "0", "17", "-5", "007", "1a",
        "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809"};
    return kFields[Pick(std::size(kFields))];
  }

  std::string Separator() { return std::string(1 + Pick(3), ' '); }

  std::string Edge() {
    static const char* const kEdges[] = {"", "", "", " ", "  ", "\t", "\r",
                                         " \r", "\v", "\f"};
    return kEdges[Pick(std::size(kEdges))];
  }

  /// One body line with 0-5 fields (weighted to 1-4) and random edges.
  std::string Line() {
    static const size_t kCounts[] = {0, 1, 2, 2, 3, 3, 3, 4, 5};
    const size_t fields = kCounts[Pick(std::size(kCounts))];
    std::string line = Edge();
    for (size_t i = 0; i < fields; ++i) {
      if (i > 0) line += Separator();
      line += Field();
    }
    return line + Edge();
  }

  std::string Head() {
    static const char* const kVerbs[] = {"push", "push", "push", "open",
                                         "open", "ping", "flush", "stats",
                                         "close", "warble", ""};
    static const char* const kOptions[] = {
        "window=10", "slide=2", "shards=2", "async=1", "reuse=solve",
        "reuse=none", "async=0", "weight=4", "admission=reject", "v=1",
        "max_queued=5", "v=x", "weight=0", "color=red", "window"};
    std::string head = Edge() + kVerbs[Pick(std::size(kVerbs))];
    if (Pick(8) != 0) head += Separator() + (Pick(2) == 0 ? "s1" : "s\t2");
    const size_t options = Pick(4);
    for (size_t i = 0; i < options; ++i) {
      head += Separator() + kOptions[Pick(std::size(kOptions))];
    }
    return head + Edge();
  }

  std::string Payload() {
    std::string payload = Head();
    const size_t lines = Pick(9);
    for (size_t i = 0; i < lines; ++i) {
      payload.push_back('\n');
      if (Pick(6) != 0) payload += Line();
    }
    if (Pick(3) == 0) payload.push_back('\n');
    return payload;
  }

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

 private:
  std::mt19937_64 rng_;
};

void ExpectSameTriple(std::string_view line, SymbolTable& got_symbols,
                      SymbolTable& want_symbols) {
  SCOPED_TRACE(::testing::PrintToString(std::string(line)));
  const StatusOr<Triple> got = ParseTripleLine(line, got_symbols);
  const StatusOr<Triple> want = ReferenceParseTripleLine(line, want_symbols);
  ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  // Both tables intern in the same order, so equal ids mean equal
  // interning order, not just equal names.
  EXPECT_EQ(*got, *want);
}

/// What the broker's push path made of one payload.
enum class PushOutcome { kNotAPush, kPushed, kRefused };

/// Drives the broker's push path (ParseRequestHead, then ParsePushBody
/// over the body) against the reference (ReferenceParseRequest, then
/// ReferenceParseTripleLine over each line until the first failure):
/// the same triples with the same ids, the same error code and text for
/// the first malformed line, and tables of the same size afterwards.
PushOutcome ExpectSamePush(std::string_view payload, SymbolTable& got_symbols,
                           SymbolTable& want_symbols) {
  SCOPED_TRACE(::testing::PrintToString(std::string(payload)));
  std::string_view body;
  const StatusOr<WireRequest> head = ParseRequestHead(payload, &body);
  const StatusOr<WireRequest> want = ReferenceParseRequest(payload);
  EXPECT_EQ(head.ok(), want.ok()) << head.status() << " vs " << want.status();
  if (!head.ok() || !want.ok()) return PushOutcome::kNotAPush;
  EXPECT_EQ(head->command, want->command);
  EXPECT_TRUE(head->lines.empty());
  if (want->command != WireRequest::Command::kPush) {
    return PushOutcome::kNotAPush;
  }
  const StatusOr<std::vector<Triple>> parsed = ParsePushBody(body, got_symbols);
  const Status got_status = parsed.status();
  const std::vector<Triple> got = parsed.ok() ? *parsed : std::vector<Triple>();
  std::vector<Triple> expected;
  Status want_status = OkStatus();
  for (const std::string& line : want->lines) {
    StatusOr<Triple> triple = ReferenceParseTripleLine(line, want_symbols);
    if (!triple.ok()) {
      want_status = triple.status();
      expected.clear();
      break;
    }
    expected.push_back(*triple);
  }
  EXPECT_EQ(got_status.code(), want_status.code());
  EXPECT_EQ(got_status.ToString(), want_status.ToString());
  // Both tables intern in the same order, so equal ids mean equal
  // interning order, not just equal names.
  EXPECT_EQ(got, expected);
  EXPECT_EQ(got_symbols.size(), want_symbols.size());
  return got_status.ok() ? PushOutcome::kPushed : PushOutcome::kRefused;
}

TEST(WireTest, InPlaceParserMatchesSplittingReference) {
  SymbolTablePtr got_symbols = MakeSymbolTable();
  SymbolTablePtr want_symbols = MakeSymbolTable();
  SymbolTablePtr push_got_symbols = MakeSymbolTable();
  SymbolTablePtr push_want_symbols = MakeSymbolTable();
  WirePayloadGenerator generator(20170419);
  size_t pushed = 0;
  size_t refused = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string payload = generator.Payload();
    const StatusOr<WireRequest> got = ParseRequest(payload);
    const StatusOr<WireRequest> want = ReferenceParseRequest(payload);
    ExpectSameRequest(got, want, payload);
    if (::testing::Test::HasFatalFailure()) return;
    if (want.ok()) {
      for (const std::string& line : want->lines) {
        ExpectSameTriple(line, *got_symbols, *want_symbols);
      }
    }
    // Raw, unstripped lines too: the triple parser itself never strips.
    for (int j = 0; j < 3; ++j) {
      ExpectSameTriple(generator.Line(), *got_symbols, *want_symbols);
    }
    if (::testing::Test::HasFatalFailure()) return;
    switch (ExpectSamePush(payload, *push_got_symbols, *push_want_symbols)) {
      case PushOutcome::kPushed:
        ++pushed;
        break;
      case PushOutcome::kRefused:
        ++refused;
        break;
      case PushOutcome::kNotAPush:
        break;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(got_symbols->size(), want_symbols->size());
  // The generator must exercise both outcomes of the push path.
  EXPECT_GT(pushed, 100u);
  EXPECT_GT(refused, 100u);
}

TEST(WireTest, DifferentialEdgeCases) {
  const char* const kPayloads[] = {
      "push s1",          "push s1\n",          "push s1\n\n\n",
      "push s1\n \r\n\t", "push  s1 \nq a b\n", "push s1\r\nq a\r\n\r\n",
      "open s1",          "open s1\n",          "open s1\n\na\n",
      "open s1 v=2\r\n",  "\npush s1",          "",
      "ping\t",           "close",              " \r\n",
      "push s1\nx",       "push s1\n\r"};
  SymbolTablePtr push_got_symbols = MakeSymbolTable();
  SymbolTablePtr push_want_symbols = MakeSymbolTable();
  for (const char* payload : kPayloads) {
    ExpectSameRequest(ParseRequest(payload), ReferenceParseRequest(payload),
                      payload);
    ExpectSamePush(payload, *push_got_symbols, *push_want_symbols);
  }
  // A malformed line k fails the push; lines before it stay interned in
  // order, the line itself and the lines after it intern nothing.
  const char* const kRefusedPushes[] = {
      "push s1\nq a b\nlonely\nq c d",
      "push s1\nq e 5\n q f g h \nq i",
      "push s1\nfirst\nq j k",
      "push s1\nq l m\r\n\r\nq n o p q\r\n",
      "push s1\nq 9223372036854775808 r\nq s\tt u v"};
  for (const char* payload : kRefusedPushes) {
    EXPECT_EQ(ExpectSamePush(payload, *push_got_symbols, *push_want_symbols),
              PushOutcome::kRefused);
  }
  EXPECT_EQ(push_got_symbols->Lookup("c"), kInvalidSymbol);
  EXPECT_NE(push_got_symbols->Lookup("e"), kInvalidSymbol);
  EXPECT_EQ(push_got_symbols->Lookup("f"), kInvalidSymbol);
  EXPECT_EQ(push_got_symbols->Lookup("j"), kInvalidSymbol);
  SymbolTablePtr got_symbols = MakeSymbolTable();
  SymbolTablePtr want_symbols = MakeSymbolTable();
  const char* const kLines[] = {
      "",        "a",         "a b",     "a  b   c", "a b c d",  " a b ",
      "a\tb c",  "a - +0",    "a b\r",   "p 9223372036854775807",
      "p 9223372036854775808", "p -9223372036854775808 -", "p + 1",
      "a b c d e"};
  for (const char* line : kLines) {
    ExpectSameTriple(line, *got_symbols, *want_symbols);
  }
}

TEST(WireTest, MutatedFramesAreRejectedCleanly) {
  WirePayloadGenerator generator(1301);
  SymbolTablePtr symbols = MakeSymbolTable();
  SymbolTablePtr push_got_symbols = MakeSymbolTable();
  SymbolTablePtr push_want_symbols = MakeSymbolTable();
  size_t pushes = 0;
  std::mt19937_64 rng(1392);
  auto expect_rejection = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  };
  size_t decoded = 0;
  size_t accepted_lines = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string stream;
    for (int f = 0; f < 3; ++f) stream += EncodeFrame(generator.Payload());
    // Truncate, then flip a few bits (length headers included).
    stream.resize(rng() % (stream.size() + 1));
    const size_t flips = stream.empty() ? 0 : rng() % 4;
    for (size_t k = 0; k < flips; ++k) {
      stream[rng() % stream.size()] ^= static_cast<char>(1u << (rng() % 8));
    }
    FrameDecoder decoder;
    size_t fed = 0;
    while (fed < stream.size()) {
      const size_t chunk = std::min<size_t>(1 + rng() % 64, stream.size() - fed);
      decoder.Feed(std::string_view(stream).substr(fed, chunk));
      fed += chunk;
      // The view is what the TCP transport hands the broker.
      std::string_view payload;
      while (decoder.Next(&payload)) {
        ++decoded;
        if (ExpectSamePush(payload, *push_got_symbols, *push_want_symbols) !=
            PushOutcome::kNotAPush) {
          ++pushes;
        }
        if (::testing::Test::HasFailure()) return;
        StatusOr<WireRequest> request = ParseRequest(payload);
        if (!request.ok()) {
          expect_rejection(request.status());
          continue;
        }
        for (const std::string& line : request->lines) {
          StatusOr<Triple> triple = ParseTripleLine(line, *symbols);
          if (!triple.ok()) {
            expect_rejection(triple.status());
          } else {
            ++accepted_lines;
          }
        }
      }
    }
    if (!decoder.status().ok()) expect_rejection(decoder.status());
  }
  // The mutations must leave plenty of frames intact enough to parse.
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(accepted_lines, 500u);
  EXPECT_GT(pushes, 300u);
}

// ---------------------------------------------------------------------------
// Session lifecycle.
// ---------------------------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  SessionOptions TrafficOptions(size_t window_size) {
    SessionOptions options;
    options.program_text =
        TrafficProgramText(TrafficProgramVariant::kPPrime, /*with_show=*/true);
    options.engine.pipeline.window_size = window_size;
    return options;
  }

  std::vector<Triple> MakeStream(StreamSession& session, size_t items,
                                 uint64_t seed = 11) {
    GeneratorOptions options;
    options.seed = seed;
    SyntheticStreamGenerator generator(MakeTrafficSchema(session.symbols()),
                                       options);
    return generator.GenerateWindow(items);
  }
};

TEST_F(SessionTest, CreateRejectsBadInput) {
  auto handler = [](const SessionEvent&) {};
  EXPECT_FALSE(
      StreamSession::Create("", TrafficOptions(100), handler).ok());

  SessionOptions bad_program = TrafficOptions(100);
  bad_program.program_text = "this is not asp ((";
  EXPECT_FALSE(StreamSession::Create("s", bad_program, handler).ok());

  SessionOptions bad_engine = TrafficOptions(100);
  bad_engine.engine.pipeline.max_inflight_windows = 0;
  EXPECT_FALSE(StreamSession::Create("s", bad_engine, handler).ok());
}

TEST_F(SessionTest, FlushIsALiveBarrier) {
  uint64_t results = 0;
  auto session = StreamSession::Create(
      "flushy", TrafficOptions(300), [&](const SessionEvent& event) {
        if (event.event.kind == EmissionEvent::Kind::kResult) ++results;
      });
  ASSERT_TRUE(session.ok()) << session.status();

  ASSERT_TRUE((*session)->Push(MakeStream(**session, 900)).ok());
  ASSERT_TRUE((*session)->Flush().ok());
  // 900 items / 300 window: two full windows + the flushed partial... the
  // stream is exactly 3 windows, all delivered before Flush returned.
  EXPECT_EQ(results, 3u);
  EXPECT_EQ((*session)->state(), SessionState::kRunning);

  // The session stays usable after a flush.
  ASSERT_TRUE((*session)->Push(MakeStream(**session, 300, 12)).ok());
  ASSERT_TRUE((*session)->Flush().ok());
  EXPECT_EQ(results, 4u);

  const SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.pushed_batches, 2u);
  EXPECT_EQ(stats.pushed_items, 1200u);
  EXPECT_EQ(stats.result_events, 4u);
  EXPECT_EQ(stats.engine.reasoning.windows, 4u);
  EXPECT_EQ(stats.engine.completeness(), 1.0);
  (*session)->Close();
}

TEST_F(SessionTest, CloseDrainsInFlightWindows) {
  SessionOptions options = TrafficOptions(400);
  options.engine.pipeline.max_inflight_windows = 4;
  uint64_t results = 0;
  auto session = StreamSession::Create(
      "drainy", options, [&](const SessionEvent& event) {
        if (event.event.kind == EmissionEvent::Kind::kResult) ++results;
      });
  ASSERT_TRUE(session.ok()) << session.status();

  // Queue six windows' worth and close immediately: every admitted batch
  // must still be windowed, reasoned, and delivered before kClosed.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*session)->Push(MakeStream(**session, 400, 20 + i)).ok());
  }
  (*session)->Close();
  EXPECT_EQ((*session)->state(), SessionState::kClosed);
  EXPECT_EQ(results, 6u);
  // Engine counters are gone after close (the engine is torn down); the
  // session's own delivery counters survive.
  EXPECT_EQ((*session)->stats().result_events, 6u);
}

TEST_F(SessionTest, PushAndFlushRefusedAfterClose) {
  auto session = StreamSession::Create("closed", TrafficOptions(100),
                                       [](const SessionEvent&) {});
  ASSERT_TRUE(session.ok()) << session.status();
  (*session)->Close();
  EXPECT_EQ((*session)->Push(MakeStream(**session, 10)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Flush().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SessionTest, CloseIsIdempotentAndConcurrent) {
  auto session = StreamSession::Create("multi-close", TrafficOptions(200),
                                       [](const SessionEvent&) {});
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->Push(MakeStream(**session, 600)).ok());

  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&session] { (*session)->Close(); });
  }
  for (std::thread& t : closers) t.join();
  EXPECT_EQ((*session)->state(), SessionState::kClosed);
  (*session)->Close();  // And once more, after the fact.
  EXPECT_EQ((*session)->state(), SessionState::kClosed);
}

// ---------------------------------------------------------------------------
// Server registry.
// ---------------------------------------------------------------------------

TEST(ServerTest, RegistryLifecycle) {
  ServerConfig server_config;
  server_config.max_sessions = 2;
  StreamServer server(server_config);
  SessionOptions options;
  options.program_text = "a(X) :- b(X).\n#input b/1.\n#show a/1.";
  options.engine.pipeline.window_size = 4;

  auto handler = [](const SessionEvent&) {};
  auto first = server.CreateSession("one", options, handler);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(server.num_sessions(), 1u);

  auto duplicate = server.CreateSession("one", options, handler);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);

  auto second = server.CreateSession("two", options, handler);
  ASSERT_TRUE(second.ok()) << second.status();
  auto third = server.CreateSession("three", options, handler);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE(server.FindSession("one").ok());
  EXPECT_EQ(server.FindSession("nope").status().code(),
            StatusCode::kNotFound);

  EXPECT_TRUE(server.CloseSession("one").ok());
  EXPECT_EQ((*first)->state(), SessionState::kClosed);
  EXPECT_EQ(server.CloseSession("one").code(), StatusCode::kNotFound);
  EXPECT_EQ(server.num_sessions(), 1u);

  server.CloseAll();
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_EQ((*second)->state(), SessionState::kClosed);
}

TEST(ServerTest, ValidateServerConfigTable) {
  struct Case {
    const char* name;
    void (*mutate)(ServerConfig&);
    const char* message;  // nullptr => valid.
  };
  const Case kCases[] = {
      {"defaults", [](ServerConfig&) {}, nullptr},
      {"zero-sessions", [](ServerConfig& c) { c.max_sessions = 0; },
       "max_sessions must be >= 1"},
      {"no-shared-pool", [](ServerConfig& c) { c.shared_pool_threads = 0; },
       "shared_pool_threads must be >= 1"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    ServerConfig config;
    c.mutate(config);
    const Status status = ValidateServerConfig(config);
    if (c.message == nullptr) {
      EXPECT_TRUE(status.ok()) << status;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.ToString().find(c.message), std::string::npos)
          << status;
    }
  }

  // The constructor corrects a refused config to the nearest valid one.
  ServerConfig no_pool;
  no_pool.shared_pool_threads = 0;
  StreamServer server(no_pool);
  EXPECT_EQ(server.config().shared_pool_threads, 1u);
  EXPECT_EQ(server.shared_pool()->num_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Isolation property: concurrent multi-tenant emission streams are
// byte-identical to standalone engines over the same batches, across
// randomized push interleavings; saturating one session's window queue
// never degrades another session's completeness.
// ---------------------------------------------------------------------------

struct TenantSpec {
  const char* name;
  TrafficProgramVariant variant;
  size_t window_size;
  size_t window_slide;
  bool reuse_grounding;
  uint64_t stream_seed;
};

std::string RenderEmission(const EmissionEvent& event,
                           const SymbolTable& symbols) {
  std::string out = "#" + std::to_string(event.sequence);
  switch (event.kind) {
    case EmissionEvent::Kind::kResult:
      out += " result items=" + std::to_string(event.window->items.size());
      for (const GroundAnswer& answer : event.result->answers) {
        out += "\n  " + AnswerToString(answer, symbols);
      }
      break;
    case EmissionEvent::Kind::kError:
      out += " error " + event.status.ToString();
      break;
    case EmissionEvent::Kind::kShed:
      out += " shed items=" + std::to_string(event.window->items.size());
      break;
  }
  out += "\n";
  return out;
}

SessionOptions TenantOptions(const TenantSpec& spec) {
  SessionOptions options;
  options.program_text =
      TrafficProgramText(spec.variant, /*with_show=*/true);
  options.engine.pipeline.window_size = spec.window_size;
  options.engine.pipeline.window_slide = spec.window_slide;
  options.engine.pipeline.reasoner.reasoner.reuse_grounding =
      spec.reuse_grounding;
  return options;
}

// The standalone oracle: parse the same program text into a fresh symbol
// table, generate the same deterministic batches, drive a bare sync
// StreamEngine, and render the transcript the same way. Symbol ids may
// differ between tables, but the rendered bytes must not.
std::string OracleTranscript(const TenantSpec& spec, size_t batches,
                             size_t batch_items) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program =
      parser.ParseProgram(TrafficProgramText(spec.variant, true));
  EXPECT_TRUE(program.ok()) << program.status();

  std::string transcript;
  const SessionOptions options = TenantOptions(spec);
  auto engine = StreamEngine::Create(
      &*program, options.engine, [&](EmissionEvent& event) {
        transcript += RenderEmission(event, *symbols);
      });
  EXPECT_TRUE(engine.ok()) << engine.status();

  GeneratorOptions generator_options;
  generator_options.seed = spec.stream_seed;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     generator_options);
  for (size_t i = 0; i < batches; ++i) {
    (*engine)->PushBatch(generator.GenerateWindow(batch_items));
  }
  (*engine)->Flush();
  return transcript;
}

TEST(IsolationTest, ConcurrentSessionsMatchStandaloneEngines) {
  const TenantSpec kTenants[] = {
      {"tumbling-p", TrafficProgramVariant::kP, 500, 0, false, 101},
      {"tumbling-pprime", TrafficProgramVariant::kPPrime, 500, 0, false, 202},
      {"sliding-reuse", TrafficProgramVariant::kPPrime, 600, 200, true, 303},
  };
  constexpr size_t kBatches = 8;
  constexpr size_t kBatchItems = 250;

  for (uint64_t round_seed : {1u, 2u, 3u}) {
    StreamServer server;
    struct Tenant {
      std::shared_ptr<StreamSession> session;
      std::string transcript;
      std::vector<std::vector<Triple>> batches;
    };
    std::vector<std::unique_ptr<Tenant>> tenants;

    for (const TenantSpec& spec : kTenants) {
      auto tenant = std::make_unique<Tenant>();
      Tenant* raw = tenant.get();
      auto session = server.CreateSession(
          spec.name, TenantOptions(spec), [raw](const SessionEvent& event) {
            raw->transcript += RenderEmission(event.event, event.symbols);
          });
      ASSERT_TRUE(session.ok()) << spec.name << ": " << session.status();
      tenant->session = *session;

      // The same deterministic batches the oracle will regenerate.
      GeneratorOptions generator_options;
      generator_options.seed = spec.stream_seed;
      SyntheticStreamGenerator generator(
          MakeTrafficSchema(tenant->session->symbols()), generator_options);
      for (size_t i = 0; i < kBatches; ++i) {
        tenant->batches.push_back(generator.GenerateWindow(kBatchItems));
      }
      tenants.push_back(std::move(tenant));
    }

    // One pusher thread per tenant, with seeded random jitter so every
    // round interleaves the sessions' pushes differently.
    std::vector<std::thread> pushers;
    for (size_t t = 0; t < tenants.size(); ++t) {
      Tenant* tenant = tenants[t].get();
      const uint64_t jitter_seed = round_seed * 97 + t;
      pushers.emplace_back([tenant, jitter_seed] {
        std::mt19937 rng(jitter_seed);
        for (const std::vector<Triple>& batch : tenant->batches) {
          for (int spin = rng() % 5; spin > 0; --spin) {
            std::this_thread::yield();
          }
          Status status = tenant->session->Push(batch);
          EXPECT_TRUE(status.ok()) << status;
        }
        EXPECT_TRUE(tenant->session->Flush().ok());
      });
    }
    for (std::thread& pusher : pushers) pusher.join();
    // Snapshot while running: engine counters vanish when a session
    // closes (the engine is torn down).
    std::vector<SessionStats> snapshots;
    for (const std::unique_ptr<Tenant>& tenant : tenants) {
      snapshots.push_back(tenant->session->stats());
    }
    server.CloseAll();

    for (size_t t = 0; t < tenants.size(); ++t) {
      SCOPED_TRACE(std::string(kTenants[t].name) + " round " +
                   std::to_string(round_seed));
      const std::string oracle =
          OracleTranscript(kTenants[t], kBatches, kBatchItems);
      EXPECT_FALSE(oracle.empty());
      EXPECT_EQ(tenants[t]->transcript, oracle);
      EXPECT_EQ(snapshots[t].engine.completeness(), 1.0);
    }
  }
}

TEST(IsolationTest, SaturatingOneSessionNeverDegradesAnother) {
  StreamServer server;

  // The greedy tenant: a one-window queue with kReject, pushed far faster
  // than the pool can reason 400-item windows, so it sheds.
  TenantSpec greedy_spec = {"greedy", TrafficProgramVariant::kPPrime, 400, 0,
                            false, 404};
  SessionOptions greedy_options = TenantOptions(greedy_spec);
  greedy_options.engine.pipeline.max_inflight_windows = 1;
  greedy_options.engine.pipeline.backpressure = BackpressurePolicy::kReject;
  auto greedy = server.CreateSession("greedy", greedy_options,
                                     [](const SessionEvent&) {});
  ASSERT_TRUE(greedy.ok()) << greedy.status();

  // The steady tenant: modest load, lossless, its own engine and lane.
  TenantSpec steady_spec = {"steady", TrafficProgramVariant::kP, 500, 0,
                            false, 505};
  std::string steady_transcript;
  auto steady = server.CreateSession(
      "steady", TenantOptions(steady_spec), [&](const SessionEvent& event) {
        steady_transcript += RenderEmission(event.event, event.symbols);
      });
  ASSERT_TRUE(steady.ok()) << steady.status();

  constexpr size_t kSteadyBatches = 6;
  constexpr size_t kSteadyItems = 250;
  std::thread steady_pusher([&] {
    GeneratorOptions generator_options;
    generator_options.seed = steady_spec.stream_seed;
    SyntheticStreamGenerator generator(
        MakeTrafficSchema((*steady)->symbols()), generator_options);
    for (size_t i = 0; i < kSteadyBatches; ++i) {
      Status status = (*steady)->Push(generator.GenerateWindow(kSteadyItems));
      EXPECT_TRUE(status.ok()) << status;
    }
    EXPECT_TRUE((*steady)->Flush().ok());
  });

  // Hammer the greedy session until its window queue sheds (bounded —
  // 400 window-sized batches vastly outrun its one queued window). A
  // saturated push is never refused: the window it closes is shed.
  GeneratorOptions generator_options;
  generator_options.seed = greedy_spec.stream_seed;
  SyntheticStreamGenerator generator(MakeTrafficSchema((*greedy)->symbols()),
                                     generator_options);
  for (int i = 0;
       i < 400 && (*greedy)->stats().engine.shed_windows() < 8; ++i) {
    Status status = (*greedy)->Push(generator.GenerateWindow(400));
    EXPECT_TRUE(status.ok()) << status;
  }
  ASSERT_TRUE((*greedy)->Flush().ok());

  steady_pusher.join();
  // Snapshot before closing — engine counters are torn down with the
  // engine.
  const SessionStats greedy_stats = (*greedy)->stats();
  const SessionStats steady_stats = (*steady)->stats();
  server.CloseAll();

  // Saturation surfaces as counted shed windows, each one a tombstone.
  EXPECT_GT(greedy_stats.shed_events, 0u) << "greedy session never shed";
  EXPECT_EQ(greedy_stats.shed_events, greedy_stats.engine.shed_windows());
  EXPECT_LT(greedy_stats.engine.completeness(), 1.0);

  // The steady tenant saw full-fidelity service: nothing shed, emissions
  // byte-identical to a standalone engine.
  EXPECT_EQ(steady_stats.shed_events, 0u);
  EXPECT_EQ(steady_stats.engine.completeness(), 1.0);
  EXPECT_EQ(steady_transcript,
            OracleTranscript(steady_spec, kSteadyBatches, kSteadyItems));
}

// ---------------------------------------------------------------------------
// Shared reasoner pool: pooled sessions stay byte-identical to standalone
// oracles, a saturating weight-1 tenant cannot starve a weight-4 tenant,
// per-session quotas shed with full accounting, and 64 sessions cost
// O(pool + 1) threads instead of O(sessions).
// ---------------------------------------------------------------------------

size_t CurrentThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// Polls until the process thread count drops to `want` (a joined thread
/// can linger in /proc/self/status for a moment after join returns);
/// returns the last count seen.
size_t WaitForThreadCount(size_t want) {
  size_t count = CurrentThreadCount();
  for (int i = 0; i < 500 && count > want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = CurrentThreadCount();
  }
  return count;
}

TEST(SharedPoolServerTest, PooledSessionsMatchStandaloneOracles) {
  ServerConfig config;
  config.shared_pool_threads = 4;
  StreamServer server(config);
  ASSERT_NE(server.shared_pool(), nullptr);

  const TenantSpec kTenants[] = {
      {"pool-a", TrafficProgramVariant::kPPrime, 500, 0, false, 606},
      {"pool-b", TrafficProgramVariant::kP, 400, 0, false, 707},
      {"pool-c", TrafficProgramVariant::kPPrime, 600, 0, true, 808},
  };
  const size_t kWeights[] = {1, 4, 2};
  constexpr size_t kBatches = 6;
  constexpr size_t kBatchItems = 250;

  struct Tenant {
    std::shared_ptr<StreamSession> session;
    std::string transcript;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (size_t t = 0; t < 3; ++t) {
    auto tenant = std::make_unique<Tenant>();
    Tenant* raw = tenant.get();
    SessionOptions options = TenantOptions(kTenants[t]);
    options.engine.pipeline.pool_weight = kWeights[t];
    auto session = server.CreateSession(
        kTenants[t].name, options, [raw](const SessionEvent& event) {
          raw->transcript += RenderEmission(event.event, event.symbols);
        });
    ASSERT_TRUE(session.ok()) << kTenants[t].name << ": " << session.status();
    tenant->session = *session;
    tenants.push_back(std::move(tenant));
  }

  std::vector<std::thread> pushers;
  for (size_t t = 0; t < tenants.size(); ++t) {
    Tenant* tenant = tenants[t].get();
    const TenantSpec& spec = kTenants[t];
    pushers.emplace_back([tenant, &spec] {
      GeneratorOptions generator_options;
      generator_options.seed = spec.stream_seed;
      SyntheticStreamGenerator generator(
          MakeTrafficSchema(tenant->session->symbols()), generator_options);
      for (size_t i = 0; i < kBatches; ++i) {
        Status status =
            tenant->session->Push(generator.GenerateWindow(kBatchItems));
        EXPECT_TRUE(status.ok()) << status;
      }
      EXPECT_TRUE(tenant->session->Flush().ok());
    });
  }
  for (std::thread& pusher : pushers) pusher.join();

  std::vector<SessionStats> snapshots;
  for (const auto& tenant : tenants) {
    snapshots.push_back(tenant->session->stats());
  }
  server.CloseAll();

  for (size_t t = 0; t < tenants.size(); ++t) {
    SCOPED_TRACE(kTenants[t].name);
    const std::string oracle =
        OracleTranscript(kTenants[t], kBatches, kBatchItems);
    EXPECT_FALSE(oracle.empty());
    EXPECT_EQ(tenants[t]->transcript, oracle);
    EXPECT_EQ(snapshots[t].engine.completeness(), 1.0);
    EXPECT_EQ(snapshots[t].shed_events, 0u);
  }
}

TEST(SharedPoolServerTest, SaturatingTenantCannotStarveWeightedTenant) {
  // Two workers, contended: greedy (weight 1) keeps a 32-window backlog
  // while steady (weight 4) runs Push+Flush rounds. DRR must keep
  // steady's per-window latency bounded and its stream lossless.
  ServerConfig config;
  config.shared_pool_threads = 2;
  StreamServer server(config);

  TenantSpec greedy_spec = {"greedy", TrafficProgramVariant::kPPrime, 400, 0,
                            false, 404};
  SessionOptions greedy_options = TenantOptions(greedy_spec);
  greedy_options.engine.pipeline.max_inflight_windows = 32;
  greedy_options.engine.pipeline.pool_weight = 1;
  greedy_options.engine.pipeline.pool_max_inflight = 1;
  auto greedy = server.CreateSession("greedy", greedy_options,
                                     [](const SessionEvent&) {});
  ASSERT_TRUE(greedy.ok()) << greedy.status();

  TenantSpec steady_spec = {"steady", TrafficProgramVariant::kP, 300, 0,
                            false, 505};
  SessionOptions steady_options = TenantOptions(steady_spec);
  steady_options.engine.pipeline.pool_weight = 4;
  std::string steady_transcript;
  auto steady = server.CreateSession(
      "steady", steady_options, [&](const SessionEvent& event) {
        steady_transcript += RenderEmission(event.event, event.symbols);
      });
  ASSERT_TRUE(steady.ok()) << steady.status();

  std::atomic<bool> stop{false};
  std::thread greedy_pusher([&] {
    GeneratorOptions generator_options;
    generator_options.seed = greedy_spec.stream_seed;
    SyntheticStreamGenerator generator(
        MakeTrafficSchema((*greedy)->symbols()), generator_options);
    while (!stop.load(std::memory_order_acquire)) {
      // kBlock admission: backpressures this thread once the 32-window
      // backlog is full — exactly the saturation we want.
      Status status = (*greedy)->Push(generator.GenerateWindow(400));
      if (!status.ok()) break;
    }
  });

  constexpr size_t kSteadyRounds = 12;
  std::vector<double> latencies_ms;
  {
    GeneratorOptions generator_options;
    generator_options.seed = steady_spec.stream_seed;
    SyntheticStreamGenerator generator(
        MakeTrafficSchema((*steady)->symbols()), generator_options);
    for (size_t i = 0; i < kSteadyRounds; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      ASSERT_TRUE((*steady)->Push(generator.GenerateWindow(300)).ok());
      ASSERT_TRUE((*steady)->Flush().ok());
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
  }

  // Snapshot while the greedy tenant is still hammering: it must have a
  // real backlog (we were genuinely contended) yet never be starved.
  const SessionStats greedy_mid = (*greedy)->stats();
  stop.store(true, std::memory_order_release);
  greedy_pusher.join();
  const SessionStats steady_stats = (*steady)->stats();
  server.CloseAll();

  EXPECT_GT(greedy_mid.engine.reasoning.enqueued_windows,
            greedy_mid.engine.reasoning.windows)
      << "greedy tenant never built a backlog — the pool was not contended";
  EXPECT_GT(greedy_mid.engine.reasoning.windows, 0u)
      << "weight-1 tenant was fully starved";

  // p99 (== max over 12 rounds) stays under a deliberately generous
  // bound that still catches actual starvation (an unweighted queue
  // would park steady behind ~32 greedy windows per round).
  const double worst = *std::max_element(latencies_ms.begin(),
                                         latencies_ms.end());
  EXPECT_LT(worst, 15000.0) << "steady tenant p99 unbounded under load";

  EXPECT_EQ(steady_stats.shed_events, 0u);
  EXPECT_EQ(steady_stats.engine.completeness(), 1.0);
  EXPECT_EQ(steady_transcript,
            OracleTranscript(steady_spec, kSteadyRounds, 300));
}

TEST(SharedPoolServerTest, SixtyFourSessionsCostPoolPlusLoopThreads) {
  ServerConfig config;
  config.shared_pool_threads = 2;
  config.max_sessions = 128;
  StreamServer server(config);

  SessionOptions options;
  options.program_text = "a(X) :- b(X).\n#input b/1.\n#show a/1.";
  options.engine.pipeline.window_size = 4;
  options.engine.pipeline.max_inflight_windows = 2;

  const size_t before = CurrentThreadCount();
  ASSERT_GT(before, 0u) << "/proc/self/status not readable";
  std::atomic<uint64_t> results{0};
  std::vector<std::shared_ptr<StreamSession>> sessions;
  for (int i = 0; i < 64; ++i) {
    auto session = server.CreateSession(
        "tenant-" + std::to_string(i), options,
        [&results](const SessionEvent& event) {
          if (event.event.kind == EmissionEvent::Kind::kResult) ++results;
        });
    ASSERT_TRUE(session.ok()) << session.status();
    sessions.push_back(*session);
  }
  const size_t after = CurrentThreadCount();

  // The whole point of the shared pool: 64 pooled sessions spawn zero
  // threads (the old design cost ~3 threads per async session). Allow a
  // little slack for runtime/test-framework threads.
  EXPECT_LE(after, before + 2)
      << "64 sessions grew the thread count from " << before << " to "
      << after << " — session count is leaking threads again";

  // And they all actually reason: one window through each.
  for (auto& session : sessions) {
    std::vector<Triple> batch;
    for (int i = 0; i < 4; ++i) {
      auto triple =
          ParseTripleLine("b x" + std::to_string(i), session->symbols());
      ASSERT_TRUE(triple.ok()) << triple.status();
      batch.push_back(*triple);
    }
    ASSERT_TRUE(session->Push(std::move(batch)).ok());
    ASSERT_TRUE(session->Flush().ok());
  }
  EXPECT_EQ(results.load(), 64u);
  server.CloseAll();
}

TEST(SharedPoolServerTest, StatsReportLaneGaugesPerPartitionTask) {
  // A P' window costs one lane task for itself plus one per partition
  // beyond the first; the stats reply carries the lane gauges after the
  // pre-existing keys. The P' decomposition the session's engine uses has
  // two partitions.
  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program =
      MakeTrafficProgram(symbols, TrafficProgramVariant::kPPrime, true);
  ASSERT_TRUE(program.ok()) << program.status();
  StatusOr<InputDependencyGraph> graph = InputDependencyGraph::Build(*program);
  ASSERT_TRUE(graph.ok()) << graph.status();
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const uint64_t partitions = plan->num_communities();
  ASSERT_EQ(partitions, 2u);

  ServerConfig config;
  config.shared_pool_threads = 4;
  StreamServer server(config);
  TenantSpec spec = {"lanes", TrafficProgramVariant::kPPrime, 500, 0, false,
                     909};
  SessionOptions options = TenantOptions(spec);
  options.engine.pipeline.pool_max_inflight = 2;
  auto session =
      server.CreateSession(spec.name, options, [](const SessionEvent&) {});
  ASSERT_TRUE(session.ok()) << session.status();
  GeneratorOptions generator_options;
  generator_options.seed = spec.stream_seed;
  SyntheticStreamGenerator generator(MakeTrafficSchema((*session)->symbols()),
                                     generator_options);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*session)->Push(generator.GenerateWindow(250)).ok());
  }
  ASSERT_TRUE((*session)->Flush().ok());
  const std::string reply = FormatStats(spec.name, (*session)->stats());
  server.CloseAll();

  std::map<std::string, uint64_t> fields;
  for (const std::string& line : StrSplit(reply, '\n')) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    fields[line.substr(0, eq)] =
        std::strtoull(line.c_str() + eq + 1, nullptr, 10);
  }
  const uint64_t windows = fields["delivered_windows"];
  EXPECT_EQ(windows, 4u);
  EXPECT_EQ(fields["lane_tasks_submitted"],
            windows + windows * (partitions - 1));
  EXPECT_EQ(fields["lane_tasks_completed"], fields["lane_tasks_submitted"]);
  EXPECT_GE(fields["lane_max_queued"], 1u);
  EXPECT_EQ(fields["partitions"], partitions);
  EXPECT_LT(reply.find("\ncompleteness="),
            reply.find("\nlane_tasks_submitted="));
}

TEST(SharedPoolServerTest, StatsReportThePartitionsTheAnalysisChose) {
  // shards= is an upper bound: the key-flow analysis splits P′'s two
  // communities into shards= buckets each, but keeps recursive
  // reachability whole, and stats says which.
  constexpr char kReach[] = R"(
    #input link/2.
    reach(X, Y) :- link(X, Y).
    reach(X, Z) :- reach(X, Y), link(Y, Z).
    #show reach/2.
  )";
  struct Case {
    const char* name;
    std::string program;
    size_t shards;
    uint64_t partitions;
  };
  const std::string pprime =
      TrafficProgramText(TrafficProgramVariant::kPPrime, true);
  const Case kCases[] = {{"pprime0", pprime, 0, 2},
                         {"pprime4", pprime, 4, 8},
                         {"reach4", kReach, 4, 1}};
  StreamServer server(ServerConfig{});
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    SessionOptions options;
    options.program_text = c.program;
    options.engine.pipeline.reasoner.num_shards = c.shards;
    auto session =
        server.CreateSession(c.name, options, [](const SessionEvent&) {});
    ASSERT_TRUE(session.ok()) << session.status();
    const std::string reply = FormatStats(c.name, (*session)->stats());
    EXPECT_NE(reply.find("\nnum_shards=" + std::to_string(c.shards) + "\n"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("\npartitions=" + std::to_string(c.partitions)),
              std::string::npos)
        << reply;
  }
  server.CloseAll();
}

// Async engines without a shared pool run on a private pool of exactly
// num_reason_workers threads — no emitter, no inner reasoner pools, and
// no thread per shard: key buckets are partitions on the same pool.
// Every thread is gone again once the engine is destroyed.
TEST(SharedPoolServerTest, PrivatePoolsCostExactlyTheirThreads) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program =
      parser.ParseProgram("a(X) :- b(X).\n#input b/1.\n#show a/1.");
  ASSERT_TRUE(program.ok()) << program.status();
  std::vector<Triple> window;
  for (int i = 0; i < 4; ++i) {
    window.push_back(Triple{Term::Integer(i), symbols->Intern("b"), {}});
  }

  constexpr size_t kWorkers = 3;
  constexpr size_t kShards = 2;
  const size_t before = CurrentThreadCount();
  ASSERT_GT(before, 0u) << "/proc/self/status not readable";
  for (const size_t shards : {size_t{0}, kShards}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    EngineConfig config;
    config.pipeline.reasoner.num_shards = shards;
    config.pipeline.window_size = 4;
    config.pipeline.async = true;
    config.pipeline.num_reason_workers = kWorkers;
    uint64_t results = 0;
    {
      auto engine = StreamEngine::Create(
          &*program, config, [&results](EmissionEvent& event) {
            if (event.kind == EmissionEvent::Kind::kResult) ++results;
          });
      ASSERT_TRUE(engine.ok()) << engine.status();
      EXPECT_EQ((*engine)->num_reason_workers(), kWorkers);
      EXPECT_EQ(CurrentThreadCount(), before + kWorkers);
      (*engine)->PushBatch(window);
      (*engine)->Flush();
    }
    EXPECT_EQ(results, 1u);
    EXPECT_EQ(WaitForThreadCount(before), before);
  }

  // A sync engine's reasoner: the caller reasons too, so num_threads = 3
  // costs a private pool of 2 threads.
  {
    EngineConfig config;
    config.pipeline.window_size = 4;
    config.pipeline.reasoner.num_threads = kWorkers;
    auto engine = StreamEngine::Create(&*program, config,
                                       [](EmissionEvent&) {});
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ(CurrentThreadCount(), before + kWorkers - 1);
  }
  EXPECT_EQ(WaitForThreadCount(before), before);
}

TEST_F(SessionTest, QuotaShedsWindowsBeyondMaxQueuedAndAccountsThem) {
  // Pooled quota semantics at the session API: max_queued_windows=1
  // sheds any window that closes while another is still undelivered.
  SessionOptions options = TrafficOptions(200);
  options.engine.pipeline.max_inflight_windows = 8;
  options.engine.pipeline.max_queued_windows = 1;

  uint64_t result_events = 0;
  uint64_t shed_events = 0;
  auto session = StreamSession::Create(
      "quota", options, [&](const SessionEvent& event) {
        if (event.event.kind == EmissionEvent::Kind::kResult) ++result_events;
        if (event.event.kind == EmissionEvent::Kind::kShed) ++shed_events;
      });
  ASSERT_TRUE(session.ok()) << session.status();

  constexpr size_t kWindows = 16;
  for (size_t i = 0; i < kWindows; ++i) {
    ASSERT_TRUE((*session)->Push(MakeStream(**session, 200, 40 + i)).ok());
  }
  ASSERT_TRUE((*session)->Flush().ok());
  const SessionStats stats = (*session)->stats();
  (*session)->Close();

  // Conservation: every window is either delivered or shed-with-receipt —
  // the quota degrades gracefully, it never loses windows silently.
  EXPECT_EQ(result_events + shed_events, kWindows);
  EXPECT_GT(shed_events, 0u) << "quota never triggered";
  EXPECT_EQ(stats.shed_events, shed_events);
  EXPECT_EQ(stats.result_events, result_events);
  EXPECT_EQ(stats.engine.reasoning.windows, result_events);
  EXPECT_LT(stats.engine.completeness(), 1.0);
  EXPECT_GT(stats.engine.completeness(), 0.0);
}

// ---------------------------------------------------------------------------
// Transports: the in-proc connection and a TCP loopback smoke, both
// speaking the wire protocol end to end.
// ---------------------------------------------------------------------------

/// Collects server→client payloads and lets the test await replies while
/// counting the subscription events that interleave before them.
class PayloadCollector {
 public:
  void Handle(std::string payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    payloads_.push_back(std::move(payload));
    cv_.notify_all();
  }

  /// Pops payloads until a reply ("ok ..."/"error ...") surfaces,
  /// counting and keeping "event <session> result ..." payloads along
  /// the way.
  std::string AwaitReply() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      while (payloads_.empty()) {
        if (cv_.wait_for(lock, std::chrono::seconds(30)) ==
            std::cv_status::timeout) {
          ADD_FAILURE() << "timed out waiting for a reply";
          return "";
        }
      }
      std::string payload = std::move(payloads_.front());
      payloads_.pop_front();
      if (payload.rfind("event ", 0) == 0) {
        if (payload.find(" result ") != std::string::npos) {
          ++result_events_;
          results_.push_back(std::move(payload));
        }
        continue;
      }
      return payload;
    }
  }

  uint64_t result_events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return result_events_;
  }

  /// The result events popped so far whose session is `session`, with
  /// the "event <session> " prefix cut off.
  std::vector<std::string> results_of(const std::string& session) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string prefix = "event " + session + " ";
    std::vector<std::string> out;
    for (const std::string& payload : results_) {
      if (payload.rfind(prefix, 0) == 0) {
        out.push_back(payload.substr(prefix.size()));
      }
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> payloads_;
  uint64_t result_events_ = 0;
  std::vector<std::string> results_;
};

constexpr const char* kTinyProgram =
    "a(X) :- b(X).\n#input b/1.\n#show a/1.";

// Every open is a lane on the shared pool, with or without async=1:
// default opens add no thread, a weight=4 session's windows run as lane
// tasks, and a lane's max_inflight= cap is accepted.
TEST(SharedPoolServerTest, DefaultOpenIsAPooledLane) {
  ServerConfig config;
  config.shared_pool_threads = 2;
  StreamServer server(config);
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });

  const size_t before = CurrentThreadCount();
  ASSERT_GT(before, 0u) << "/proc/self/status not readable";
  for (int i = 0; i < 8; ++i) {
    const std::string name = "plain" + std::to_string(i);
    ASSERT_TRUE(
        connection->Send("open " + name + " window=4\n" + kTinyProgram).ok());
    EXPECT_EQ(collector.AwaitReply(), "ok open " + name + " v=1");
  }
  EXPECT_LE(CurrentThreadCount(), before)
      << "default opens started threads of their own";

  ASSERT_TRUE(
      connection->Send(std::string("open heavy window=4 weight=4\n") +
                       kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open heavy v=1");
  ASSERT_TRUE(connection->Send("push heavy\nb x1\nb x2\nb x3\nb x4").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok push heavy");
  ASSERT_TRUE(connection->Send("flush heavy").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok flush heavy");
  ASSERT_TRUE(connection->Send("stats heavy").ok());
  const std::string stats = collector.AwaitReply();
  const std::string key = "\nlane_tasks_submitted=";
  const size_t at = stats.find(key);
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_GT(std::strtoull(stats.c_str() + at + key.size(), nullptr, 10), 0u)
      << stats;

  ASSERT_TRUE(
      connection->Send(std::string("open capped window=4 max_inflight=2\n") +
                       kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open capped v=1");
  connection->Close();
}

TEST(TransportTest, InProcConnectionSpeaksTheProtocol) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });

  ASSERT_TRUE(connection->Send("ping").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok ping");

  ASSERT_TRUE(
      connection->Send(std::string("open tiny window=4\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open tiny v=1");
  EXPECT_EQ(server.num_sessions(), 1u);

  // Unknown session and malformed requests come back as error replies
  // with machine-readable codes.
  ASSERT_TRUE(connection->Send("push nope\nb x1").ok());
  EXPECT_EQ(
      collector.AwaitReply().rfind("error push nope code=unknown_session", 0),
      0u);
  ASSERT_TRUE(connection->Send("warble").ok());
  EXPECT_EQ(collector.AwaitReply().rfind("error", 0), 0u);

  // Two tumbling windows of four facts each.
  for (int window = 0; window < 2; ++window) {
    std::string push = "push tiny";
    for (int i = 0; i < 4; ++i) {
      push += "\nb x" + std::to_string(window * 4 + i);
    }
    ASSERT_TRUE(connection->Send(push).ok());
    EXPECT_EQ(collector.AwaitReply(), "ok push tiny");
  }
  ASSERT_TRUE(connection->Send("flush tiny").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok flush tiny");
  EXPECT_EQ(collector.result_events(), 2u);

  ASSERT_TRUE(connection->Send("stats tiny").ok());
  const std::string stats = collector.AwaitReply();
  EXPECT_EQ(stats.rfind("ok stats tiny\nstate=running", 0), 0u) << stats;
  EXPECT_NE(stats.find("\ndelivered_windows=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\ndelivered_answers=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\ncompleteness=1"), std::string::npos) << stats;

  ASSERT_TRUE(connection->Send("close tiny").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok close tiny");
  EXPECT_EQ(server.num_sessions(), 0u);

  connection->Close();
  EXPECT_FALSE(connection->Send("ping").ok());
}

// A push whose line k is malformed is refused whole: the reply carries
// the line's error, nothing reaches the session, and only the lines
// before k are interned.
TEST(TransportTest, MalformedPushLineRefusesThePushAndInternsOnlyEarlierLines) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });
  ASSERT_TRUE(
      connection->Send(std::string("open tiny window=4\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open tiny v=1");
  StatusOr<std::shared_ptr<StreamSession>> session = server.FindSession("tiny");
  ASSERT_TRUE(session.ok()) << session.status();
  SymbolTable& symbols = (*session)->symbols();
  const size_t before = symbols.size();

  ASSERT_TRUE(connection
                  ->Send("push tiny\nb early1\nb early2 7\r\n\n"
                         "b bad1 bad2 bad3\nb late1")
                  .ok());
  EXPECT_EQ(collector.AwaitReply(),
            "error push tiny code=invalid_argument INVALID_ARGUMENT: triple "
            "line needs '<predicate> <subject> [<object>]', got 'b bad1 bad2 "
            "bad3'");
  EXPECT_EQ(symbols.size(), before + 2);
  EXPECT_NE(symbols.Lookup("early1"), kInvalidSymbol);
  EXPECT_NE(symbols.Lookup("early2"), kInvalidSymbol);
  for (const char* name : {"bad1", "bad2", "bad3", "late1"}) {
    EXPECT_EQ(symbols.Lookup(name), kInvalidSymbol) << name;
  }
  ASSERT_TRUE(connection->Send("stats tiny").ok());
  const std::string stats = collector.AwaitReply();
  EXPECT_NE(stats.find("\npushed_batches=0\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\npushed_items=0\n"), std::string::npos) << stats;

  // The connection and the session survive the refusal.
  ASSERT_TRUE(connection->Send("push tiny\nb late1").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok push tiny");
  EXPECT_EQ(symbols.size(), before + 3);
  connection->Close();
}

TEST(TransportTest, UnknownProtocolVersionIsRejectedCleanly) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });

  // A v=2 client is refused before any session state is created...
  ASSERT_TRUE(
      connection->Send(std::string("open vbad window=4 v=2\n") + kTinyProgram)
          .ok());
  const std::string reply = collector.AwaitReply();
  EXPECT_EQ(reply.rfind("error open vbad code=unsupported_version", 0), 0u)
      << reply;
  EXPECT_NE(reply.find("this server speaks v=1"), std::string::npos) << reply;
  EXPECT_EQ(server.num_sessions(), 0u);

  // ...and the connection survives to open a correctly versioned session.
  ASSERT_TRUE(
      connection->Send(std::string("open vgood window=4 v=1\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open vgood v=1");
  EXPECT_EQ(server.num_sessions(), 1u);
  connection->Close();
}

TEST(TransportTest, OverCapOpenOptionsAreRejectedAndTheServerSurvives) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });

  // Each option would size memory or threads before the first push, a
  // program with inputs no triple can carry would fail every window, and
  // reuse=ground names no reuse path (reuse=solve is the one): refused at
  // the wire, with no session created, and the server keeps serving.
  constexpr const char* kTriplelessProgram =
      "#input gps/3, speed/2.\n"
      "seen(V) :- gps(V, X, Y), X > 0, Y > 0.\n"
      "fast(V) :- speed(V, S), S > 90.\n";
  const std::pair<const char*, const char*> kRefused[] = {
      {"window=1000000000000000", kTinyProgram},
      {"window=1048577", kTinyProgram},
      {"shards=65", kTinyProgram},
      {"max_inflight=65", kTinyProgram},
      {"window=4 slide=2 reuse=ground", kTinyProgram},
      {"window=4", kTriplelessProgram}};
  for (const auto& [option, program] : kRefused) {
    SCOPED_TRACE(std::string(option) + "\n" + program);
    ASSERT_TRUE(connection
                    ->Send(std::string("open big async=1 ") + option + "\n" +
                           program)
                    .ok());
    const std::string reply = collector.AwaitReply();
    EXPECT_EQ(reply.rfind("error open big code=invalid_argument", 0), 0u)
        << reply;
    EXPECT_EQ(server.num_sessions(), 0u);
  }

  // The caps themselves are accepted, and a normal session opens on the
  // same server afterwards.
  ASSERT_TRUE(connection
                  ->Send(std::string("open edge async=1 window=1048576 "
                                     "shards=64 max_inflight=64\n") +
                         kTinyProgram)
                  .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open edge v=1");
  ASSERT_TRUE(
      connection->Send(std::string("open normal window=4\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open normal v=1");
  EXPECT_EQ(server.num_sessions(), 2u);
  connection->Close();
}

// A disjunctive program cannot take the reuse path (the incremental
// solver reads the grounder's store in place and takes normal rules
// only), so reuse=solve reasons it cold: no window reuses, and the result
// events are byte-identical to a reuse=none session's over the same
// pushes.
TEST(TransportTest, DisjunctiveProgramUnderReuseReasonsCold) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });
  constexpr const char* kDisjunctiveProgram =
      "#input on/1.\np(X) | q(X) :- on(X).\n#show p/1, q/1.";

  for (const char* session : {"cold", "warm"}) {
    const std::string reuse =
        std::string(session) == "warm" ? "reuse=solve" : "reuse=none";
    ASSERT_TRUE(connection
                    ->Send("open " + std::string(session) +
                           " window=8 slide=2 " + reuse + "\n" +
                           kDisjunctiveProgram)
                    .ok());
    EXPECT_EQ(collector.AwaitReply(),
              "ok open " + std::string(session) + " v=1");
    for (int batch = 0; batch < 6; ++batch) {
      std::string push = "push " + std::string(session);
      for (int i = 0; i < 4; ++i) {
        push += "\non x" + std::to_string((batch * 4 + i) % 3);
      }
      ASSERT_TRUE(connection->Send(push).ok());
      EXPECT_EQ(collector.AwaitReply(), "ok push " + std::string(session));
    }
    ASSERT_TRUE(connection->Send("flush " + std::string(session)).ok());
    EXPECT_EQ(collector.AwaitReply(), "ok flush " + std::string(session));
  }

  const std::vector<std::string> cold = collector.results_of("cold");
  EXPECT_FALSE(cold.empty());
  EXPECT_EQ(collector.results_of("warm"), cold);
  StatusOr<std::shared_ptr<StreamSession>> warm = server.FindSession("warm");
  ASSERT_TRUE(warm.ok()) << warm.status();
  const PipelineStats reasoning = (*warm)->stats().engine.reasoning;
  EXPECT_EQ(reasoning.windows, cold.size());
  EXPECT_EQ(reasoning.incremental_windows, 0u);
  EXPECT_EQ(reasoning.incremental_solve_windows, 0u);
  connection->Close();
}

TEST(TransportTest, DroppingTheConnectionClosesItsSessions) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  PayloadCollector collector;
  connection->Receive(
      [&collector](std::string payload) { collector.Handle(std::move(payload)); });
  ASSERT_TRUE(
      connection->Send(std::string("open orphan window=4\n") + kTinyProgram)
          .ok());
  EXPECT_EQ(collector.AwaitReply(), "ok open orphan v=1");
  ASSERT_TRUE(connection->Send("push orphan\nb x1\nb x2").ok());
  EXPECT_EQ(collector.AwaitReply(), "ok push orphan");
  EXPECT_EQ(server.num_sessions(), 1u);

  // No explicit close: dropping the connection drains and closes the
  // sessions it opened.
  connection->Close();
  EXPECT_EQ(server.num_sessions(), 0u);
}

TEST(TransportTest, TcpLoopbackSmoke) {
  StreamServer server;
  TcpServer tcp(&server, TcpServer::Options{});
  ASSERT_TRUE(tcp.Start().ok());
  ASSERT_GT(tcp.port(), 0);

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  FrameDecoder decoder;
  uint64_t result_events = 0;
  auto send_payload = [fd](std::string_view payload) {
    const std::string frame = EncodeFrame(payload);
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = send(fd, frame.data() + sent, frame.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  };
  auto await_reply = [&]() -> std::string {
    std::string payload;
    while (true) {
      while (decoder.Next(&payload)) {
        if (payload.rfind("event ", 0) == 0) {
          if (payload.find(" result ") != std::string::npos) ++result_events;
          continue;
        }
        return payload;
      }
      char buffer[4096];
      const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ADD_FAILURE() << "server closed the connection";
        return "";
      }
      decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
    }
  };

  send_payload("ping");
  EXPECT_EQ(await_reply(), "ok ping");

  send_payload(std::string("open tcp window=3\n") + kTinyProgram);
  EXPECT_EQ(await_reply(), "ok open tcp v=1");

  send_payload("push tcp\nb x1\nb x2\nb x3");
  EXPECT_EQ(await_reply(), "ok push tcp");
  send_payload("flush tcp");
  EXPECT_EQ(await_reply(), "ok flush tcp");
  EXPECT_EQ(result_events, 1u);

  send_payload("stats tcp");
  const std::string stats = await_reply();
  EXPECT_NE(stats.find("\ndelivered_answers=1"), std::string::npos) << stats;

  send_payload("close tcp");
  EXPECT_EQ(await_reply(), "ok close tcp");

  close(fd);
  tcp.Stop();
  EXPECT_EQ(server.num_sessions(), 0u);
}

}  // namespace
}  // namespace streamasp
