// Failure-injection and edge-condition tests for the streaming pipeline:
// inconsistent partition programs, malformed stream items, resource
// limits, arity conflicts, and empty/degenerate windows.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "streamrule/accuracy.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/pipeline.h"
#include "streamrule/random_partitioner.h"
#include "streamrule/traffic_workload.h"
#include "triple_test_util.h"

// Allocation fault injection for this binary: while g_poison_bytes is
// non-zero, the first allocation of exactly that many bytes (on any
// thread) throws std::bad_alloc and disarms the trap. Allocations of
// exactly g_watch_bytes are counted in g_watch_hits (a probe that a code
// path ran). An allocation of exactly g_stall_bytes parks its thread
// until the test clears g_stall_bytes, recording the thread in
// g_stalled_thread.
namespace {
std::atomic<size_t> g_poison_bytes{0};
std::atomic<size_t> g_watch_bytes{0};
std::atomic<size_t> g_watch_hits{0};
std::atomic<size_t> g_stall_bytes{0};
std::atomic<std::thread::id> g_stalled_thread{};
}  // namespace

void* operator new(size_t size) {
  size_t poison = g_poison_bytes.load(std::memory_order_relaxed);
  if (poison != 0 && size == poison &&
      g_poison_bytes.compare_exchange_strong(poison, 0)) {
    throw std::bad_alloc();
  }
  if (size == g_watch_bytes.load(std::memory_order_relaxed)) {
    g_watch_hits.fetch_add(1, std::memory_order_relaxed);
  }
  if (size != 0 && size == g_stall_bytes.load()) {
    g_stalled_thread.store(std::this_thread::get_id());
    while (g_stall_bytes.load() == size) std::this_thread::yield();
  }
  void* memory = std::malloc(size == 0 ? 1 : size);
  if (memory == nullptr) throw std::bad_alloc();
  return memory;
}

void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, size_t) noexcept { std::free(memory); }

namespace streamasp {
namespace {

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  Atom A(const std::string& text) {
    StatusOr<Atom> atom = parser_.ParseGroundAtom(text);
    EXPECT_TRUE(atom.ok()) << atom.status();
    return std::move(atom).value();
  }

  SymbolTablePtr symbols_;
  Parser parser_;
};

TEST_F(FailureInjectionTest, InconsistentWindowYieldsNoAnswers) {
  // The constraint fires on the window content: no stable model.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input reading/2.
    broken :- reading(S, V), V > 100.
    :- broken.
  )");
  ASSERT_TRUE(program.ok());
  Reasoner reasoner(&*program);
  StatusOr<ReasonerResult> result =
      reasoner.Process(WindowOf({A("reading(s1, 500)")}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->answers.empty());
}

TEST_F(FailureInjectionTest, OneInconsistentPartitionPoisonsTheCombination) {
  // Partition 1 is inconsistent; the combining handler's cross product is
  // empty — exactly the paper's Ans_P(W) formula.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input good/1, bad/1.
    ok(X) :- good(X).
    :- bad(X).
  )");
  ASSERT_TRUE(program.ok());
  PartitioningPlan plan(2);
  plan.Assign(PredicateSignature{symbols_->Intern("good"), 1}, 0);
  plan.Assign(PredicateSignature{symbols_->Intern("bad"), 1}, 1);
  ParallelReasoner pr(&*program, plan);
  StatusOr<ParallelReasonerResult> result =
      pr.Process(WindowOf({A("good(1)"), A("bad(2)")}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->answers.empty());
  // Against a reference with answers, accuracy collapses to 0.
  EXPECT_DOUBLE_EQ(MeanAccuracy(result->answers, {{A("good(1)")}}), 0.0);
}

TEST_F(FailureInjectionTest, UndeclaredStreamPredicateFailsConversion) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  Reasoner reasoner(&*program);
  TripleWindow window;
  window.items = {Triple{Term::Integer(1), symbols_->Intern("mystery"),
                         Term::Integer(2)}};
  EXPECT_EQ(reasoner.Process(window).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FailureInjectionTest, InputsTriplesCannotCarryAreRefusedAtCreate) {
  // A triple carries a subject and at most an object, and its predicate
  // name alone fixes the fact's arity: an arity-3 input, or one name at
  // two arities, could never be fed. Create refuses both up front
  // instead of building an engine whose windows all fail conversion.
  for (const char* text : {
           R"(#input gps/3, speed/2.
              seen(V) :- gps(V, X, Y), X > 0, Y > 0.
              fast(V) :- speed(V, S), S > 90.)",
           R"(#input speed/1, speed/2.
              moving(V) :- speed(V).
              fast(V) :- speed(V, S), S > 90.)"}) {
    SCOPED_TRACE(text);
    StatusOr<Program> program = parser_.ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status();
    ASSERT_TRUE(program->Validate().ok());
    for (const bool async : {false, true}) {
      PipelineOptions options;
      options.async = async;
      StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
          StreamRulePipeline::Create(&*program, options,
                                     [](EmissionEvent&) {});
      EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument)
          << "async=" << async;
    }
  }
}

TEST_F(FailureInjectionTest, SolverDecisionLimitSurfacesThroughReasoner) {
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input seed/1.
    a(X) :- seed(X), not b(X).
    b(X) :- seed(X), not a(X).
  )");
  ASSERT_TRUE(program.ok());
  ReasonerOptions options;
  options.solving.max_decisions = 2;
  Reasoner reasoner(&*program, options);
  std::vector<Atom> window;
  for (int i = 0; i < 10; ++i) {
    window.push_back(A("seed(" + std::to_string(i) + ")"));
  }
  EXPECT_EQ(reasoner.Process(WindowOf(window)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(FailureInjectionTest, GrounderRuleLimitSurfacesThroughReasoner) {
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input n/1.
    count(s(X)) :- count(X).
    count(X) :- n(X).
  )");
  ASSERT_TRUE(program.ok());
  ReasonerOptions options;
  options.grounding.max_ground_rules = 50;
  Reasoner reasoner(&*program, options);
  EXPECT_EQ(reasoner.Process(WindowOf({A("n(0)")})).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(FailureInjectionTest, ManyAnswerSetsHitCombiningCap) {
  // Each partition's program has 2^4 = 16 answer sets; the default
  // combining cap (256) binds at 16 * 16 = 256.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input l/1, r/1.
    pick(X) :- l(X), not drop(X).
    drop(X) :- l(X), not pick(X).
    pick(X) :- r(X), not drop(X).
    drop(X) :- r(X), not pick(X).
  )");
  ASSERT_TRUE(program.ok());
  PartitioningPlan plan(2);
  plan.Assign(PredicateSignature{symbols_->Intern("l"), 1}, 0);
  plan.Assign(PredicateSignature{symbols_->Intern("r"), 1}, 1);
  ParallelReasonerOptions options;
  options.combining.max_combined_answers = 32;
  ParallelReasoner pr(&*program, plan, options);
  std::vector<Atom> window;
  for (int i = 0; i < 4; ++i) {
    window.push_back(A("l(" + std::to_string(i) + ")"));
    window.push_back(A("r(" + std::to_string(100 + i) + ")"));
  }
  StatusOr<ParallelReasonerResult> result = pr.Process(WindowOf(window));
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->answers.size(), 32u);
  EXPECT_GT(result->answers.size(), 0u);
}

TEST_F(FailureInjectionTest, EmptyPartitionsAreHarmless) {
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  StatusOr<InputDependencyGraph> graph = InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  ASSERT_TRUE(plan.ok());
  ParallelReasoner pr(&*program, *plan);
  // A window with only location-family items: the car-fire partition is
  // empty but must still produce its (empty-window) answer.
  StatusOr<ParallelReasonerResult> result = pr.Process(
      WindowOf({A("average_speed(9, 10)"), A("car_number(9, 50)")}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->answers.size(), 1u);
  // traffic_jam(9) derived despite one partition being empty.
  bool found = false;
  for (const Atom& atom : result->answers[0]) {
    if (symbols_->NameOf(atom.predicate()) == "traffic_jam") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(FailureInjectionTest, RandomPartitionOfEmptyWindow) {
  RandomPartitioner partitioner(3, 1);
  const auto partitions = partitioner.Partition({});
  ASSERT_EQ(partitions.size(), 3u);
  for (const auto& p : partitions) EXPECT_TRUE(p.empty());
}

TEST_F(FailureInjectionTest, NonDeterministicPartitionsCrossProduct) {
  // Two partitions x two answer sets each -> four combined answers.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input l/1, r/1.
    la :- l(X), not lb.
    lb :- l(X), not la.
    ra :- r(X), not rb.
    rb :- r(X), not ra.
  )");
  ASSERT_TRUE(program.ok());
  PartitioningPlan plan(2);
  plan.Assign(PredicateSignature{symbols_->Intern("l"), 1}, 0);
  plan.Assign(PredicateSignature{symbols_->Intern("r"), 1}, 1);
  ParallelReasoner pr(&*program, plan);
  StatusOr<ParallelReasonerResult> result =
      pr.Process(WindowOf({A("l(1)"), A("r(2)")}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 4u);
}

TEST_F(FailureInjectionTest, PooledPartitionThrowFailsOnlyItsWindow) {
  // Two independent input predicates, hence two partitions per window. A
  // pooled window reasons partition 0 on its own task and partition 1 on
  // a front-submitted lane task; the fault hits partition 1 of window 1.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input good/1, bad/1.
    ok(X) :- good(X).
    nok(X) :- bad(X).
    #show ok/1.
    #show nok/1.
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  constexpr size_t kPoisonItems = 3331;  // Partition 1 of window 1.
  constexpr size_t kWindow = kPoisonItems + 5;
  PipelineOptions options;
  options.window_size = kWindow;
  options.async = true;
  options.shared_pool = std::make_shared<SharedReasonerPool>(2);
  options.pool_max_inflight = 2;
  std::vector<EmissionEvent::Kind> kinds;
  std::vector<std::string> errors;
  std::vector<size_t> answers;
  auto pipeline = StreamRulePipeline::Create(
      &*program, options, [&](EmissionEvent& event) {
        kinds.push_back(event.kind);
        if (event.kind == EmissionEvent::Kind::kError) {
          errors.push_back(event.status.message());
        } else if (event.kind == EmissionEvent::Kind::kResult) {
          answers.push_back(event.result->answers.size());
        }
      });
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  const PartitioningPlan& plan = (*pipeline)->plan();
  ASSERT_EQ(plan.num_communities(), 2);
  const SymbolId good = symbols_->Intern("good");
  const SymbolId bad = symbols_->Intern("bad");
  const bool good_first =
      plan.CommunitiesOf(PredicateSignature{good, 1}) == std::vector<int>{0};
  const SymbolId first = good_first ? good : bad;
  const SymbolId second = good_first ? bad : good;

  // Windows 0 and 2 split evenly; window 1 puts kPoisonItems items into
  // partition 1, whose grounding reserves exactly that many ground rules.
  auto window = [&](size_t in_second) {
    std::vector<Triple> items;
    for (size_t i = 0; i < kWindow; ++i) {
      const SymbolId predicate = i < in_second ? second : first;
      items.push_back(Triple{Term::Integer(static_cast<int64_t>(i)),
                             predicate, {}});
    }
    return items;
  };
  g_poison_bytes.store(kPoisonItems * sizeof(GroundRule));
  (*pipeline)->PushBatch(window(kWindow / 2));
  (*pipeline)->PushBatch(window(kPoisonItems));
  (*pipeline)->PushBatch(window(kWindow / 2));
  (*pipeline)->Flush();
  const bool fired = g_poison_bytes.exchange(0) == 0;
  ASSERT_TRUE(fired) << "the injected fault never triggered";

  const std::vector<EmissionEvent::Kind> expected = {
      EmissionEvent::Kind::kResult, EmissionEvent::Kind::kError,
      EmissionEvent::Kind::kResult};
  EXPECT_EQ(kinds, expected);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].rfind("reasoning task exception: ", 0), 0u)
      << errors[0];
  EXPECT_EQ(answers, (std::vector<size_t>{1, 1}));

  const PipelineStats stats = (*pipeline)->stats();
  EXPECT_EQ(stats.windows, 2u);
  EXPECT_EQ(stats.errors, 1u);
  // The lane drained: one window task plus one partition task per window.
  const SharedReasonerPool::Queue::Stats lane =
      (*pipeline)->pool_queue()->stats();
  EXPECT_EQ(lane.submitted, 6u);
  EXPECT_EQ(lane.completed, lane.submitted);
  EXPECT_EQ((*pipeline)->pool_queue()->max_inflight(), 2u);
}

TEST_F(FailureInjectionTest, PrivatePoolPartitionFaultSurfacesAfterAllRan) {
  // Three independent input predicates, hence three partitions. With a
  // private pool Process reasons partition 0 on the caller and fans
  // partitions 1 and 2 out; the fault hits partition 1 on a pool thread.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input a/1, b/1, c/1.
    pa(X) :- a(X).
    pb(X) :- b(X).
    pc(X) :- c(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const SymbolId predicates[] = {symbols_->Intern("a"), symbols_->Intern("b"),
                                 symbols_->Intern("c")};
  PartitioningPlan plan(3);
  for (int i = 0; i < 3; ++i) {
    plan.Assign(PredicateSignature{predicates[i], 1}, i);
  }
  ParallelReasonerOptions options;
  options.num_threads = 2;
  ParallelReasoner pr(&*program, plan, options);

  // Partition i holds kItems[i] items; its grounding reserves exactly
  // that many ground rules, so the sizes double as per-partition probes.
  constexpr size_t kItems[] = {1117, 3331, 2221};
  TripleWindow window;
  for (int p = 0; p < 3; ++p) {
    for (size_t i = 0; i < kItems[p]; ++i) {
      window.items.push_back(Triple{Term::Integer(static_cast<int64_t>(i)),
                                    predicates[p], {}});
    }
  }
  g_watch_hits.store(0);
  g_watch_bytes.store(kItems[2] * sizeof(GroundRule));
  g_poison_bytes.store(kItems[1] * sizeof(GroundRule));
  EXPECT_THROW(pr.Process(window), std::bad_alloc);
  g_watch_bytes.store(0);
  EXPECT_EQ(g_poison_bytes.exchange(0), 0u) << "the fault never triggered";
  // Partition 2, queued behind the failing one, still ran.
  EXPECT_GE(g_watch_hits.load(), 1u);

  // Nothing of the failed call is left on the lane: the reasoner is
  // immediately reusable and answers every partition.
  StatusOr<ParallelReasonerResult> result = pr.Process(window);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_partitions, 3u);
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0].size(),
            2 * (kItems[0] + kItems[1] + kItems[2]));
}

TEST_F(FailureInjectionTest, ProcessWaitsOnlyForItsOwnPartitions) {
  // Three independent input predicates, hence three partitions, on a
  // reasoner of three threads (the caller plus a private pool of two).
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input a/1, b/1, c/1.
    pa(X) :- a(X).
    pb(X) :- b(X).
    pc(X) :- c(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  const SymbolId predicates[] = {symbols_->Intern("a"), symbols_->Intern("b"),
                                 symbols_->Intern("c")};
  PartitioningPlan plan(3);
  for (int i = 0; i < 3; ++i) {
    plan.Assign(PredicateSignature{predicates[i], 1}, i);
  }
  ParallelReasonerOptions options;
  options.num_threads = 3;
  ParallelReasoner pr(&*program, plan, options);
  auto make_window = [&](const size_t (&items)[3]) {
    TripleWindow window;
    for (int p = 0; p < 3; ++p) {
      for (size_t i = 0; i < items[p]; ++i) {
        window.items.push_back(Triple{
            Term::Integer(static_cast<int64_t>(i)), predicates[p], {}});
      }
    }
    return window;
  };

  // The slow caller's partition 1 parks one pool thread: its grounding
  // reserves exactly kStallItems ground rules.
  constexpr size_t kStallItems = 3331;
  const TripleWindow slow_window = make_window({5, kStallItems, 7});
  const TripleWindow fast_window = make_window({11, 13, 17});
  g_stall_bytes.store(kStallItems * sizeof(GroundRule));
  std::thread slow([&] {
    StatusOr<ParallelReasonerResult> result = pr.Process(slow_window);
    EXPECT_TRUE(result.ok()) << result.status();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (g_stalled_thread.load() == std::thread::id() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const std::thread::id stalled = g_stalled_thread.load();
  ASSERT_NE(stalled, std::thread::id()) << "the stall never triggered";
  EXPECT_NE(stalled, slow.get_id()) << "stalled on the caller, not the pool";

  // The other pool thread and the fast caller reason every partition of
  // the fast window; its Process must return while the slow one is parked.
  std::atomic<bool> fast_done{false};
  std::thread fast([&] {
    StatusOr<ParallelReasonerResult> result = pr.Process(fast_window);
    EXPECT_TRUE(result.ok()) << result.status();
    fast_done.store(true);
  });
  while (!fast_done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(fast_done.load())
      << "Process waited for another caller's partitions";
  g_stall_bytes.store(0);
  fast.join();
  slow.join();
  g_stalled_thread.store(std::thread::id());
}

}  // namespace
}  // namespace streamasp
