#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stream/format.h"
#include "stream/generator.h"
#include "stream/query_processor.h"
#include "stream/triple.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

// ---------------------------------------------------------------- Triple.

TEST(TripleTest, ToStringWithAndWithoutObject) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Triple binary{Term::Integer(3), symbols->Intern("average_speed"),
                Term::Integer(10)};
  EXPECT_EQ(binary.ToString(*symbols), "<3, average_speed, 10>");
  Triple unary{Term::Integer(3), symbols->Intern("traffic_light"),
               std::nullopt};
  EXPECT_EQ(unary.ToString(*symbols), "<3, traffic_light>");
}

// --------------------------------------------------- DataFormatProcessor.

class FormatTest : public ::testing::Test {
 protected:
  FormatTest() : symbols_(MakeSymbolTable()) {}
  SymbolTablePtr symbols_;
  DataFormatProcessor format_;
};

TEST_F(FormatTest, BinaryRoundTrip) {
  const SymbolId speed = symbols_->Intern("average_speed");
  ASSERT_TRUE(format_.DeclarePredicate(speed, 2).ok());
  const Triple triple{Term::Integer(5), speed, Term::Integer(12)};
  StatusOr<std::vector<PackedFact>> facts = format_.ToPackedFacts({triple});
  ASSERT_TRUE(facts.ok());
  ASSERT_EQ(facts->size(), 1u);
  const PackedFact& fact = facts->front();
  EXPECT_EQ(fact.predicate, speed);
  EXPECT_EQ(fact.arity, 2u);
  const Atom atom(fact.predicate,
                  {fact.args[0].ToTerm(), fact.args[1].ToTerm()});
  EXPECT_EQ(atom.ToString(*symbols_), "average_speed(5,12)");
  StatusOr<Triple> back = format_.ToTriple(atom);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, triple);
}

TEST_F(FormatTest, UnaryRoundTrip) {
  const SymbolId light = symbols_->Intern("traffic_light");
  ASSERT_TRUE(format_.DeclarePredicate(light, 1).ok());
  const Triple triple{Term::Integer(7), light, std::nullopt};
  StatusOr<std::vector<PackedFact>> facts = format_.ToPackedFacts({triple});
  ASSERT_TRUE(facts.ok());
  ASSERT_EQ(facts->size(), 1u);
  EXPECT_EQ(facts->front().arity, 1u);
  EXPECT_EQ(facts->front().args[0], PackedTerm::Integer(7));
  EXPECT_FALSE(facts->front().args[1].has_value());
  StatusOr<Triple> back =
      format_.ToTriple(Atom(light, {facts->front().args[0].ToTerm()}));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, triple);
}

TEST_F(FormatTest, UndeclaredPredicateFails) {
  const SymbolId ghost = symbols_->Intern("ghost");
  const Status status =
      format_.ToPackedFacts({Triple{Term::Integer(1), ghost, std::nullopt}})
          .status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "undeclared stream predicate id " + std::to_string(ghost));
}

TEST_F(FormatTest, ArityMismatchFails) {
  const SymbolId p = symbols_->Intern("p");
  ASSERT_TRUE(format_.DeclarePredicate(p, 2).ok());
  // Missing object.
  const Status missing =
      format_.ToPackedFacts({Triple{Term::Integer(1), p, std::nullopt}})
          .status();
  EXPECT_EQ(missing.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(missing.message(), "binary predicate missing an object");
  const SymbolId q = symbols_->Intern("q");
  ASSERT_TRUE(format_.DeclarePredicate(q, 1).ok());
  // Superfluous object.
  const Status superfluous =
      format_.ToPackedFacts({Triple{Term::Integer(1), q, Term::Integer(2)}})
          .status();
  EXPECT_EQ(superfluous.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(superfluous.message(), "unary predicate received an object");
}

TEST_F(FormatTest, RedeclarationMustAgree) {
  const SymbolId p = symbols_->Intern("p");
  ASSERT_TRUE(format_.DeclarePredicate(p, 2).ok());
  EXPECT_TRUE(format_.DeclarePredicate(p, 2).ok());
  EXPECT_FALSE(format_.DeclarePredicate(p, 1).ok());
}

TEST_F(FormatTest, ArityOutOfTripleRangeRejected) {
  EXPECT_FALSE(format_.DeclarePredicate(symbols_->Intern("p"), 0).ok());
  EXPECT_FALSE(format_.DeclarePredicate(symbols_->Intern("q"), 3).ok());
}

TEST_F(FormatTest, ToFactsTranslatesWholeWindow) {
  const SymbolId p = symbols_->Intern("p");
  ASSERT_TRUE(format_.DeclarePredicate(p, 2).ok());
  std::vector<Triple> window = {
      Triple{Term::Integer(1), p, Term::Integer(2)},
      Triple{Term::Integer(3), p, Term::Integer(4)}};
  StatusOr<std::vector<PackedFact>> facts = format_.ToPackedFacts(window);
  ASSERT_TRUE(facts.ok());
  ASSERT_EQ(facts->size(), 2u);
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ((*facts)[i].predicate, p);
    EXPECT_EQ((*facts)[i].arity, 2u);
    EXPECT_EQ((*facts)[i].args[0], window[i].subject);
    EXPECT_EQ((*facts)[i].args[1], window[i].object);
  }
  // A bad item fails the whole window.
  window.push_back(Triple{Term::Integer(5), p, std::nullopt});
  EXPECT_EQ(format_.ToPackedFacts(window).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FormatTest, ToTripleRejectsBadAtoms) {
  const Atom arity3(symbols_->Intern("p"),
                    {Term::Integer(1), Term::Integer(2), Term::Integer(3)});
  EXPECT_FALSE(format_.ToTriple(arity3).ok());
  const Atom non_ground(symbols_->Intern("p"),
                        {Term::Variable(symbols_->Intern("X"))});
  EXPECT_FALSE(format_.ToTriple(non_ground).ok());
}

// ------------------------------------------------------------- Generator.

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorTest() : symbols_(MakeSymbolTable()) {}
  SymbolTablePtr symbols_;
};

TEST_F(GeneratorTest, ProducesRequestedCount) {
  SyntheticStreamGenerator gen(MakeTrafficSchema(*symbols_), {});
  EXPECT_EQ(gen.GenerateWindow(1000).size(), 1000u);
  EXPECT_TRUE(gen.GenerateWindow(0).empty());
}

TEST_F(GeneratorTest, DeterministicForSeed) {
  GeneratorOptions options;
  options.seed = 99;
  SyntheticStreamGenerator a(MakeTrafficSchema(*symbols_), options);
  SyntheticStreamGenerator b(MakeTrafficSchema(*symbols_), options);
  const std::vector<Triple> wa = a.GenerateWindow(200);
  const std::vector<Triple> wb = b.GenerateWindow(200);
  EXPECT_EQ(wa, wb);
}

TEST_F(GeneratorTest, PaperUniformValuesBoundedByWindowSize) {
  GeneratorOptions options;
  options.profile = GeneratorProfile::kPaperUniform;
  SyntheticStreamGenerator gen(MakeTrafficSchema(*symbols_), options);
  const size_t n = 500;
  for (const Triple& t : gen.GenerateWindow(n)) {
    ASSERT_TRUE(t.subject.is_integer());
    EXPECT_GE(t.subject.integer_value(), 0);
    EXPECT_LT(t.subject.integer_value(), static_cast<int64_t>(n));
    if (t.object.has_value() && t.object->is_integer()) {
      EXPECT_GE(t.object->integer_value(), 0);
      EXPECT_LT(t.object->integer_value(), static_cast<int64_t>(n));
    }
  }
}

TEST_F(GeneratorTest, EventRichSubjectsComeFromSmallPool) {
  GeneratorOptions options;
  options.profile = GeneratorProfile::kEventRich;
  options.location_divisor = 100;
  SyntheticStreamGenerator gen(MakeTrafficSchema(*symbols_), options);
  std::set<int64_t> subjects;
  for (const Triple& t : gen.GenerateWindow(2000)) {
    subjects.insert(t.subject.integer_value());
  }
  EXPECT_LE(subjects.size(), 20u);  // Pool is 2000/100 = 20.
}

TEST_F(GeneratorTest, SchemaCoverage) {
  SyntheticStreamGenerator gen(MakeTrafficSchema(*symbols_), {});
  std::set<SymbolId> predicates;
  for (const Triple& t : gen.GenerateWindow(2000)) {
    predicates.insert(t.predicate);
  }
  EXPECT_EQ(predicates.size(), 6u);
}

TEST_F(GeneratorTest, ObjectPoolRespected) {
  SyntheticStreamGenerator gen(MakeTrafficSchema(*symbols_), {});
  const SymbolId smoke = symbols_->Intern("car_in_smoke");
  const SymbolId high = symbols_->Intern("high");
  const SymbolId low = symbols_->Intern("low");
  for (const Triple& t : gen.GenerateWindow(3000)) {
    if (t.predicate != smoke) continue;
    ASSERT_TRUE(t.object.has_value());
    ASSERT_TRUE(t.object->is_symbol());
    EXPECT_TRUE(t.object->symbol() == high || t.object->symbol() == low);
  }
}

TEST_F(GeneratorTest, WeightsSkewPredicateShares) {
  std::vector<StreamPredicate> schema = MakeTrafficSchema(*symbols_);
  // Make car_number ~25% of the stream (weight 5/3 against 5 x 1.0).
  for (StreamPredicate& shape : schema) {
    if (shape.predicate == symbols_->Intern("car_number")) {
      shape.weight = 5.0 / 3.0;
    }
  }
  SyntheticStreamGenerator gen(schema, {});
  std::map<SymbolId, size_t> counts;
  const size_t n = 20000;
  for (const Triple& t : gen.GenerateWindow(n)) ++counts[t.predicate];
  const double share = static_cast<double>(
                           counts[symbols_->Intern("car_number")]) / n;
  EXPECT_NEAR(share, 0.25, 0.02);
}

TEST_F(GeneratorTest, SequenceNumbersIncrease) {
  SyntheticStreamGenerator gen(MakeTrafficSchema(*symbols_), {});
  EXPECT_EQ(gen.GenerateTripleWindow(10).sequence, 0u);
  EXPECT_EQ(gen.GenerateTripleWindow(10).sequence, 1u);
}

// -------------------------------------------------- StreamQueryProcessor.

std::map<int64_t, int> Counts(const std::vector<Triple>& items) {
  std::map<int64_t, int> counts;
  for (const Triple& t : items) ++counts[t.subject.integer_value()];
  return counts;
}

/// The delta contract: base.items + admitted - expired == items, as
/// multisets, where base is the window `delta_base` names (the empty
/// window for the first emission). An item may appear in both delta sets
/// and must net out.
void ExpectDeltaInvariant(const std::vector<TripleWindow>& windows) {
  std::map<uint64_t, std::map<int64_t, int>> seen;
  for (const TripleWindow& w : windows) {
    ASSERT_TRUE(w.has_delta) << "window " << w.sequence;
    std::map<int64_t, int> running;
    if (w.delta_base != TripleWindow::kNoDeltaBase) {
      ASSERT_EQ(seen.count(w.delta_base), 1u) << "window " << w.sequence;
      running = seen[w.delta_base];
    }
    for (const Triple& t : w.admitted) ++running[t.subject.integer_value()];
    for (const Triple& t : w.expired) {
      if (--running[t.subject.integer_value()] == 0) {
        running.erase(t.subject.integer_value());
      }
    }
    EXPECT_EQ(running, Counts(w.items)) << "window " << w.sequence;
    seen[w.sequence] = Counts(w.items);
  }
}

class QueryProcessorTest : public ::testing::Test {
 protected:
  QueryProcessorTest()
      : symbols_(MakeSymbolTable()), p_(symbols_->Intern("p")) {}

  /// Item `id` of the one-predicate stream the cadence cases feed.
  Triple Item(int64_t id) const {
    return Triple{Term::Integer(id), p_, std::nullopt};
  }

  /// A processor over that stream that collects its windows in windows_.
  StreamQueryProcessor Collector(size_t window_size, size_t slide) {
    StreamQueryProcessor proc(window_size, slide, [this](TripleWindow w) {
      windows_.push_back(std::move(w));
    });
    proc.RegisterPredicate(p_);
    return proc;
  }

  SymbolTablePtr symbols_;
  SymbolId p_;
  std::vector<TripleWindow> windows_;
};

TEST_F(QueryProcessorTest, WindowsEmittedAtSize) {
  std::vector<TripleWindow> windows;
  StreamQueryProcessor proc(3, /*slide=*/0, [&](const TripleWindow& w) {
    windows.push_back(w);
  });
  const SymbolId p = symbols_->Intern("p");
  proc.RegisterPredicate(p);
  for (int i = 0; i < 7; ++i) {
    proc.Push(Triple{Term::Integer(i), p, std::nullopt});
  }
  EXPECT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].size(), 3u);
  EXPECT_EQ(windows[0].sequence, 0u);
  EXPECT_EQ(windows[1].sequence, 1u);
  proc.Flush();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[2].size(), 1u);
}

TEST_F(QueryProcessorTest, FiltersUnregisteredPredicates) {
  std::vector<TripleWindow> windows;
  StreamQueryProcessor proc(2, /*slide=*/0, [&](const TripleWindow& w) {
    windows.push_back(w);
  });
  const SymbolId keep = symbols_->Intern("keep");
  const SymbolId drop = symbols_->Intern("drop");
  proc.RegisterPredicate(keep);
  proc.Push(Triple{Term::Integer(1), keep, std::nullopt});
  proc.Push(Triple{Term::Integer(2), drop, std::nullopt});
  proc.Push(Triple{Term::Integer(3), keep, std::nullopt});
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(proc.dropped_count(), 1u);
  for (const Triple& t : windows[0].items) {
    EXPECT_EQ(t.predicate, keep);
  }
}

// The filter's counting contract: nothing registered drops every item
// (kInvalidSymbol and ids 0 and 1 too); re-registering a predicate
// changes nothing; each registered predicate passes, also ids whose low
// bits collide; and dropped items never reach a window, tumbling or
// sliding.
TEST_F(QueryProcessorTest, DroppedCountPinsTheFilter) {
  const SymbolId a = symbols_->Intern("a");
  const SymbolId b = symbols_->Intern("b");
  const SymbolId c = symbols_->Intern("c");
  const SymbolId far = a + 1024;  // Shares a's low ten bits.
  auto item = [](SymbolId predicate, int64_t subject) {
    return Triple{Term::Integer(subject), predicate, std::nullopt};
  };
  for (size_t slide : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(slide);
    std::vector<TripleWindow> windows;
    StreamQueryProcessor proc(4, slide, [&](const TripleWindow& w) {
      windows.push_back(w);
    });
    proc.PushBatch({item(a, 0), item(b, 1), item(far, 2),
                    item(kInvalidSymbol, 3), item(0, 4), item(1, 5)});
    EXPECT_EQ(proc.dropped_count(), 6u);
    EXPECT_TRUE(windows.empty());

    proc.RegisterPredicate(a);
    proc.RegisterPredicate(far);
    proc.RegisterPredicate(a);
    proc.PushBatch({item(a, 3), item(b, 4), item(c, 5), item(far, 6),
                    item(a, 7), item(b, 8), item(a, 9),
                    item(kInvalidSymbol, 10)});
    EXPECT_EQ(proc.dropped_count(), 10u);
    proc.Flush();
    ASSERT_FALSE(windows.empty());
    for (const TripleWindow& window : windows) {
      for (const Triple& t : window.items) {
        EXPECT_TRUE(t.predicate == a || t.predicate == far);
      }
    }
    EXPECT_EQ(windows.back().items.back(), item(a, 9));
  }
}

TEST_F(QueryProcessorTest, FlushOnEmptyIsNoOp) {
  int calls = 0;
  StreamQueryProcessor proc(2, /*slide=*/0,
                            [&](const TripleWindow&) { ++calls; });
  proc.Flush();
  EXPECT_EQ(calls, 0);
}

TEST_F(QueryProcessorTest, PushBatchAndCounters) {
  int calls = 0;
  StreamQueryProcessor proc(5, /*slide=*/0,
                            [&](const TripleWindow&) { ++calls; });
  const SymbolId p = symbols_->Intern("p");
  proc.RegisterPredicate(p);
  std::vector<Triple> batch(12, Triple{Term::Integer(0), p, std::nullopt});
  proc.PushBatch(batch);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(proc.emitted_windows(), 2u);
}

TEST_F(QueryProcessorTest, ZeroWindowSizeClampedToOne) {
  for (const size_t slide : {size_t{0}, size_t{99}}) {
    windows_.clear();
    StreamQueryProcessor proc = Collector(0, slide);
    proc.Push(Item(1));
    proc.Push(Item(2));
    EXPECT_EQ(windows_.size(), 2u) << "slide " << slide;
  }
}

TEST_F(QueryProcessorTest, SlideAboveSizeIsTumbling) {
  StreamQueryProcessor proc = Collector(3, 99);
  for (int i = 0; i < 9; ++i) proc.Push(Item(i));
  ASSERT_EQ(windows_.size(), 3u);
  for (size_t k = 0; k < windows_.size(); ++k) {
    EXPECT_FALSE(windows_[k].has_delta);
    ASSERT_EQ(windows_[k].size(), 3u);
    EXPECT_EQ(windows_[k].items[0].subject.integer_value(),
              static_cast<int64_t>(3 * k));
  }
}

TEST_F(QueryProcessorTest, SlidingWindowsOverlap) {
  StreamQueryProcessor proc = Collector(4, 2);
  for (int i = 0; i < 8; ++i) proc.Push(Item(i));
  // First at item 4 (buffer full), then every 2 items.
  ASSERT_EQ(windows_.size(), 3u);
  EXPECT_EQ(windows_[0].items.front().subject.integer_value(), 0);
  EXPECT_EQ(windows_[1].items.front().subject.integer_value(), 2);
  EXPECT_EQ(windows_[2].items.front().subject.integer_value(), 4);
  for (const TripleWindow& w : windows_) EXPECT_EQ(w.size(), 4u);
}

TEST_F(QueryProcessorTest, SlidingSequenceNumbersAreMonotonic) {
  StreamQueryProcessor proc = Collector(2, 1);
  for (int i = 0; i < 5; ++i) proc.Push(Item(i));
  ASSERT_EQ(windows_.size(), 4u);
  for (size_t k = 0; k < windows_.size(); ++k) {
    EXPECT_EQ(windows_[k].sequence, k);
    EXPECT_EQ(windows_[k].delta_base,
              k == 0 ? TripleWindow::kNoDeltaBase : k - 1);
  }
}

TEST_F(QueryProcessorTest, DeltaInvariantAcrossSlides) {
  for (const size_t slide : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("slide " + std::to_string(slide));
    windows_.clear();
    StreamQueryProcessor proc = Collector(4, slide);
    for (int i = 0; i < 13; ++i) proc.Push(Item(i));
    proc.Flush();
    ASSERT_FALSE(windows_.empty());
    ExpectDeltaInvariant(windows_);
  }
}

TEST_F(QueryProcessorTest, DuplicateItemsKeepMultisetDeltas) {
  StreamQueryProcessor proc = Collector(4, 2);
  // Only two distinct payloads circulate: every window holds duplicates.
  for (int i = 0; i < 12; ++i) proc.Push(Item(i % 2));
  proc.Flush();
  ExpectDeltaInvariant(windows_);
  // Steady state: each slide expires exactly two items and admits two,
  // even though the expired and admitted atoms are identical.
  ASSERT_GE(windows_.size(), 2u);
  EXPECT_EQ(windows_[1].expired.size(), 2u);
  EXPECT_EQ(windows_[1].admitted.size(), 2u);
}

TEST_F(QueryProcessorTest, FlushDeltaCoversThePartialTail) {
  StreamQueryProcessor proc = Collector(4, 3);
  for (int i = 0; i < 6; ++i) proc.Push(Item(i));
  EXPECT_EQ(windows_.size(), 1u);
  proc.Flush();  // Trailer: the rolling buffer [2..5].
  ASSERT_EQ(windows_.size(), 2u);
  ExpectDeltaInvariant(windows_);
  EXPECT_EQ(windows_[1].size(), 4u);
  EXPECT_EQ(windows_[1].expired.size(), 2u);   // Items 0, 1 rolled out.
  EXPECT_EQ(windows_[1].admitted.size(), 2u);  // Items 4, 5 arrived.
  // A second flush with nothing new is a no-op.
  proc.Flush();
  EXPECT_EQ(windows_.size(), 2u);
}

TEST_F(QueryProcessorTest, SlidingTrafficStreamEmitsDeltas) {
  GeneratorOptions options;
  options.seed = 2017;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), options);
  StreamQueryProcessor proc(
      /*window_size=*/100, /*slide=*/25,
      [&](TripleWindow window) { windows_.push_back(std::move(window)); });
  for (const StreamPredicate& pred : MakeTrafficSchema(*symbols_)) {
    proc.RegisterPredicate(pred.predicate);
  }
  proc.PushBatch(generator.GenerateWindow(400));
  proc.Flush();
  EXPECT_EQ(proc.dropped_count(), 0u);
  ASSERT_EQ(windows_.size(), 13u);
  for (size_t k = 0; k < windows_.size(); ++k) {
    EXPECT_TRUE(windows_[k].has_delta);
    EXPECT_EQ(windows_[k].sequence, k);
    EXPECT_EQ(windows_[k].size(), 100u);
  }
  // First window admits everything; later ones slide by 25.
  EXPECT_TRUE(windows_[0].expired.empty());
  EXPECT_EQ(windows_[0].admitted.size(), 100u);
  EXPECT_EQ(windows_[1].expired.size(), 25u);
  EXPECT_EQ(windows_[1].admitted.size(), 25u);
}

// FoldShedDelta as the pipeline's admission path uses it: window k is
// shed from inside the callback, so window k + 1's delta spans the gap
// and is relative to window k - 1.
TEST_F(QueryProcessorTest, FoldShedDeltaNetsTheGap) {
  constexpr uint64_t kShed = 2;
  StreamQueryProcessor* self = nullptr;
  StreamQueryProcessor proc(4, 3, [&](TripleWindow window) {
    if (window.sequence == kShed) {
      self->FoldShedDelta(&window);
      return;
    }
    windows_.push_back(std::move(window));
  });
  self = &proc;
  proc.RegisterPredicate(p_);
  for (int i = 0; i < 16; ++i) proc.Push(Item(i));
  ASSERT_EQ(windows_.size(), 4u);
  EXPECT_EQ(windows_[1].sequence, kShed - 1);
  EXPECT_EQ(windows_[2].sequence, kShed + 1);
  EXPECT_EQ(windows_[2].delta_base, kShed - 1);
  EXPECT_EQ(windows_[3].delta_base, kShed + 1);
  // Window 1 holds [3..6] and window 3 [9..12]: the folded delta expires
  // 3..8 and admits 7..12, so 7 and 8 appear in both sets.
  EXPECT_EQ(windows_[2].expired.size(), 6u);
  EXPECT_EQ(windows_[2].admitted.size(), 6u);
  ExpectDeltaInvariant(windows_);
}

TEST_F(QueryProcessorTest, FoldShedDeltaOfATumblingWindowIsANoOp) {
  StreamQueryProcessor* self = nullptr;
  StreamQueryProcessor proc(3, /*slide=*/0, [&](TripleWindow window) {
    if (window.sequence == 1) {
      const std::vector<Triple> items = window.items;
      self->FoldShedDelta(&window);
      EXPECT_FALSE(window.has_delta);
      EXPECT_EQ(window.items, items);
      return;
    }
    windows_.push_back(std::move(window));
  });
  self = &proc;
  proc.RegisterPredicate(p_);
  for (int i = 0; i < 9; ++i) proc.Push(Item(i));
  ASSERT_EQ(windows_.size(), 2u);
  const TripleWindow& next = windows_[1];
  EXPECT_EQ(next.sequence, 2u);
  EXPECT_FALSE(next.has_delta);
  EXPECT_TRUE(next.expired.empty());
  EXPECT_TRUE(next.admitted.empty());
  EXPECT_EQ(Counts(next.items),
            (std::map<int64_t, int>{{6, 1}, {7, 1}, {8, 1}}));
}

}  // namespace
}  // namespace streamasp
