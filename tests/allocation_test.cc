// Heap-allocation budgets of the window data plane. A counting global
// operator new tallies every allocation made while a probe is armed; the
// probes run one window through an inline ParallelReasoner (no pool
// threads, so every counted allocation belongs to the window):
//   * a cold P′ window of 5,000 triples, whose grounding interns every
//     atom afresh and decides every partition;
//   * a steady slide of the recursive reachability workload under
//     grounding and solving reuse, whose cost is the retraction and the
//     delta replay through the persistent grounder and solver.
// A third probe counts one warm P′ push through the in-proc server
// connection (the session server's push ingest: head parse, body scan,
// batched interning, the session's windower), whose count must not grow
// with the push's line count.
// The budgets are counts, so they hold on any host; a change that brings
// back per-element allocation (a map node per atom, a vector per rule, a
// string per pushed line) trips them.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "depgraph/input_dependency_graph.h"
#include "server/server.h"
#include "stream/generator.h"
#include "stream/query_processor.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/traffic_workload.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* memory = std::malloc(size == 0 ? 1 : size);
  if (memory == nullptr) throw std::bad_alloc();
  return memory;
}

void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, size_t) noexcept { std::free(memory); }

namespace streamasp {
namespace {

/// Allocations made by `body`.
template <typename Body>
size_t CountAllocations(Body&& body) {
  g_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load();
}

StatusOr<PartitioningPlan> PlanFor(const Program& program) {
  STREAMASP_ASSIGN_OR_RETURN(InputDependencyGraph graph,
                             InputDependencyGraph::Build(program));
  return DecomposeInputDependencyGraph(graph);
}

TEST(AllocationTest, ColdPPrimeWindowIsDecidedUnderOneAllocationPerTriple) {
  constexpr size_t kWindow = 5000;
  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  ASSERT_TRUE(program.ok()) << program.status();
  StatusOr<PartitioningPlan> plan = PlanFor(*program);
  ASSERT_TRUE(plan.ok()) << plan.status();

  GeneratorOptions gen_options;
  gen_options.seed = 2017;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     gen_options);
  TripleWindow warm_up;
  warm_up.items = generator.GenerateWindow(kWindow);
  TripleWindow window;
  window.sequence = 1;
  window.items = generator.GenerateWindow(kWindow);

  ParallelReasonerOptions options;
  options.num_threads = 1;  // Inline: every allocation is the window's.
  ParallelReasoner pr(&*program, *plan, options);
  ASSERT_TRUE(pr.Process(warm_up).ok());

  StatusOr<ParallelReasonerResult> result = InternalError("not run");
  const size_t allocations =
      CountAllocations([&] { result = pr.Process(window); });
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->answers.empty());
  // Every partition grounding was decided: no simplification pass and no
  // solver core were built.
  EXPECT_EQ(result->grounding.decided_groundings, result->num_partitions);
  const double per_triple =
      static_cast<double>(allocations) / static_cast<double>(kWindow);
  std::printf("cold P' window: %zu allocations, %.2f per triple\n",
              allocations, per_triple);
  // Reads 0.74: triples intern straight from their packed words (no Atom
  // per fact), decided windows skip simplification and the solver core,
  // and partitions are sized once. Before that it read 2.94, and 9.91
  // before the packed atom table.
  EXPECT_LE(per_triple, 1.0);
}

constexpr char kReachProgram[] = R"(
  #input link/2.
  #input high/1.
  reach(X, Y) :- link(X, Y).
  reach(X, Z) :- reach(X, Y), link(Y, Z).
  alarm(X, Y) :- high(X), high(Y), reach(X, Y).
  #show alarm/2.
)";

TEST(AllocationTest, SteadyReachSlideUnderReuseSolveStaysUnderCeiling) {
  // The async_pipeline bench's sliding-tc-reuse-solve shape: windows of
  // 1,600 triples sliding by 100 over ~48 nodes.
  constexpr size_t kWindow = 1600;
  constexpr size_t kSlide = 100;
  constexpr size_t kWarmSlides = 6;
  constexpr size_t kMeasuredSlides = 4;
  constexpr size_t kItems = kWindow + kSlide * (kWarmSlides + kMeasuredSlides);
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(kReachProgram);
  ASSERT_TRUE(program.ok()) << program.status();
  StatusOr<PartitioningPlan> plan = PlanFor(*program);
  ASSERT_TRUE(plan.ok()) << plan.status();

  GeneratorOptions gen_options;
  gen_options.seed = 2017;
  gen_options.location_divisor = kItems / 48;
  gen_options.value_range = 48;
  std::vector<StreamPredicate> schema(2);
  schema[0].predicate = symbols->Intern("link");
  schema[0].has_object = true;
  schema[0].weight = 4.0;
  schema[1].predicate = symbols->Intern("high");
  schema[1].weight = 1.0;
  SyntheticStreamGenerator generator(schema, gen_options);
  std::vector<TripleWindow> windows;
  StreamQueryProcessor windower(kWindow, kSlide, [&](TripleWindow window) {
    windows.push_back(std::move(window));
  });
  for (const StreamPredicate& pred : schema) {
    windower.RegisterPredicate(pred.predicate);
  }
  windower.PushBatch(generator.GenerateWindow(kItems));
  EXPECT_EQ(windower.dropped_count(), 0u);
  ASSERT_EQ(windows.size(), 1 + kWarmSlides + kMeasuredSlides);

  ParallelReasonerOptions options;
  options.num_threads = 1;
  options.reasoner.reuse_grounding = true;
  options.reasoner.solving.reuse_solving = true;
  ParallelReasoner pr(&*program, *plan, options);
  for (size_t w = 0; w <= kWarmSlides; ++w) {
    ASSERT_TRUE(pr.Process(windows[w]).ok());
  }

  // The ceiling sits ~15% above the worst Release reading (4,967 per
  // slide, with the solver reading the grounder's rule store in place;
  // 5,509 when the solver kept its own copy of the rules and watch lists,
  // 7,751 when every window fact became an Atom). Debug builds, whose
  // CheckWindowCounts adds one count column per slide and whose
  // whole-store check reuses its scratch, read 4,971.
  constexpr size_t kCeiling = 5700;
  size_t worst = 0;
  for (size_t w = kWarmSlides + 1; w < windows.size(); ++w) {
    StatusOr<ParallelReasonerResult> result = InternalError("not run");
    const size_t allocations =
        CountAllocations([&] { result = pr.Process(windows[w]); });
    ASSERT_TRUE(result.ok()) << result.status();
    // A steady slide: reused, not rebuilt.
    EXPECT_EQ(result->grounding.incremental_fallbacks, 0u);
    EXPECT_EQ(result->solving.solve_rebuilds, 0u);
    EXPECT_EQ(result->solving.fixpoint_maintained_windows, 1u);
    std::printf("reach slide %zu: %zu allocations\n", w, allocations);
    worst = std::max(worst, allocations);
  }
  EXPECT_LE(worst, kCeiling);
}

/// A push request carrying `lines` P′ triples, rendered as a client would.
std::string TrafficPush(size_t lines) {
  SymbolTablePtr symbols = MakeSymbolTable();
  GeneratorOptions options;
  options.seed = 2017;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols), options);
  std::string payload = "push s1";
  for (const Triple& triple : generator.GenerateWindow(lines)) {
    payload.push_back('\n');
    payload += symbols->NameOf(triple.predicate);
    payload.push_back(' ');
    payload += triple.subject.ToString(*symbols);
    if (triple.object.has_value()) {
      payload.push_back(' ');
      payload += triple.object.ToString(*symbols);
    }
  }
  return payload;
}

TEST(AllocationTest, WarmPushCostsTheSameAllocationsAtAnyLineCount) {
  StreamServer server;
  std::unique_ptr<SessionTransport> connection = server.Connect();
  size_t replies = 0;
  std::string last_reply;
  connection->Receive([&](std::string payload) {
    ++replies;
    last_reply = std::move(payload);
  });
  // A window larger than every push below together, so no window closes
  // and every counted allocation is the pushes' own.
  ASSERT_TRUE(connection
                  ->Send("open s1 window=100000\n" +
                         TrafficProgramText(TrafficProgramVariant::kPPrime,
                                            /*with_show=*/true))
                  .ok());
  ASSERT_EQ(last_reply, "ok open s1 v=1");

  const std::string small = TrafficPush(5000);
  const std::string large = TrafficPush(10000);
  // Warm: the session's table holds the pushes' names afterwards.
  for (const std::string* payload : {&small, &large}) {
    ASSERT_TRUE(connection->Send(*payload).ok());
    ASSERT_EQ(last_reply, "ok push s1");
  }
  auto count_push = [&](const std::string& payload) {
    std::string copy = payload;  // Send takes the payload by value.
    const size_t allocations = CountAllocations(
        [&] { EXPECT_TRUE(connection->Send(std::move(copy)).ok()); });
    EXPECT_EQ(last_reply, "ok push s1");
    return allocations;
  };
  const size_t at_5000 = count_push(small);
  const size_t at_10000 = count_push(large);
  std::printf("warm P' push: %zu allocations at 5000 lines, %zu at 10000\n",
              at_5000, at_10000);
  EXPECT_EQ(replies, 5u);
  // Reads 3 at both sizes: the triple batch, the symbol names and their
  // ids, each reserved once from the body's line count. Before the
  // in-place scan, each line longer than the short-string buffer cost a
  // std::string (3,904 and 8,825).
  EXPECT_LE(at_10000, at_5000);
  EXPECT_LE(at_10000, 4u);
  connection->Close();
}

}  // namespace
}  // namespace streamasp
