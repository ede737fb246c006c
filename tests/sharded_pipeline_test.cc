// Sharding is partitioning: num_shards bounds the buckets the key-flow
// analysis (SplitIntoBuckets) splits each dependency community into,
// inside the one pipeline's partitioning handler. The partition
// differential drives every engine shape through the StreamEngine facade
// and checks the event transcript byte for byte against the unsharded
// synchronous oracle — across programs P and P′ (whose duplicated
// car_number is copied into every bucket of both its communities), the
// network-monitoring program, and recursive reachability (which the
// analysis refuses to split), tumbling and sliding windows, shard
// counts, sync/async and the grounding/solving reuse stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "asp/parser.h"
#include "depgraph/atom_level.h"
#include "stream/format.h"
#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

// Recursive reachability: reach/2 joins link/2 on its subject in one rule
// and on its object in the other, so no key position fits link/2 and the
// analysis keeps its community whole.
constexpr char kReachProgram[] = R"(
  #input link/2.
  #input high/1.
  reach(X, Y) :- link(X, Y).
  reach(X, Z) :- reach(X, Y), link(Y, Z).
  alarm(X, Y) :- high(X), high(Y), reach(X, Y).
  #show alarm/2.
)";

// The program of examples/network_monitoring.cpp: three families, each
// joining on its first argument.
constexpr char kNetworkProgram[] = R"(
  high_rate(H)     :- packet_rate(H, R), R > 80.
  many_conns(H)    :- open_conns(H, N), N > 50.
  port_scan(H)     :- high_rate(H), many_conns(H), not whitelisted(H).
  brute_force(A)   :- failed_logins(A, F), attempts(A, T), F * 2 > T,
                      T >= 10.
  degraded(S)      :- health_probe(S, L), L >= 200.
  alert(H) :- port_scan(H).
  alert(A) :- brute_force(A).
  alert(S) :- degraded(S).
  #input packet_rate/2, open_conns/2, whitelisted/1,
         failed_logins/2, attempts/2, health_probe/2.
  #show port_scan/1, brute_force/1, degraded/1, alert/1.
)";

class SubjectBucketTest : public ::testing::Test {
 protected:
  SubjectBucketTest() : symbols_(MakeSymbolTable()) {}

  /// The programs the bucket split is checked on.
  enum class Workload { kP, kPPrime, kNetwork, kReach };

  Program MustProgram(Workload workload) {
    StatusOr<Program> program =
        workload == Workload::kP || workload == Workload::kPPrime
            ? MakeTrafficProgram(symbols_,
                                 workload == Workload::kP
                                     ? TrafficProgramVariant::kP
                                     : TrafficProgramVariant::kPPrime,
                                 /*with_show=*/true)
            : Parser(symbols_).ParseProgram(workload == Workload::kNetwork
                                                ? kNetworkProgram
                                                : kReachProgram);
    EXPECT_TRUE(program.ok()) << program.status();
    return std::move(program).value();
  }

  std::vector<Triple> MakeStream(size_t items, uint64_t seed = 2017,
                                 Workload workload = Workload::kP) {
    GeneratorOptions options;
    options.seed = seed;
    std::vector<StreamPredicate> schema;
    switch (workload) {
      case Workload::kP:
      case Workload::kPPrime:
        schema = MakeTrafficSchema(*symbols_);
        break;
      case Workload::kNetwork:
        options.value_range = 250;
        schema = {{symbols_->Intern("packet_rate"), true, {}, 1.0},
                  {symbols_->Intern("open_conns"), true, {}, 1.0},
                  {symbols_->Intern("whitelisted"), false, {}, 0.3},
                  {symbols_->Intern("failed_logins"), true, {}, 1.0},
                  {symbols_->Intern("attempts"), true, {}, 1.0},
                  {symbols_->Intern("health_probe"), true, {}, 1.0}};
        break;
      case Workload::kReach:
        // Few distinct nodes, so the closure is dense and every window
        // has alarms.
        options.value_range = 24;
        options.location_divisor = std::max<size_t>(1, items / 24);
        schema = {{symbols_->Intern("link"), true, {}, 4.0},
                  {symbols_->Intern("high"), false, {}, 1.0}};
        break;
    }
    SyntheticStreamGenerator generator(schema, options);
    return generator.GenerateWindow(items);
  }

  /// Buckets per community the analysis chooses at `num_shards`.
  std::vector<int> BucketCounts(const Program& program, size_t num_shards) {
    const PartitioningPlan plan = SplitIntoBuckets(
        program, *DecomposeInputDependencyGraph(
                     *InputDependencyGraph::Build(program)),
        num_shards);
    std::vector<int> counts;
    for (int c = 0; c < plan.num_communities(); ++c) {
      counts.push_back(plan.BucketsOf(c));
    }
    return counts;
  }

  // One line per emitted window — kind, sequence, size and every answer
  // set, byte for byte — the common currency of the differential. Also
  // records each result's partition count.
  std::string Transcript(const Program& program, const EngineConfig& config,
                         const std::vector<Triple>& stream,
                         EngineStats* stats_out = nullptr,
                         std::vector<size_t>* partitions_out = nullptr) {
    std::string transcript;
    auto engine = StreamEngine::Create(
        &program, config, [&](EmissionEvent& event) {
          transcript += "#" + std::to_string(event.sequence) + "[" +
                        std::to_string(event.window->size()) + "]";
          switch (event.kind) {
            case EmissionEvent::Kind::kResult:
              for (const GroundAnswer& answer : event.result->answers) {
                transcript += " " + AnswerToString(answer, *symbols_);
              }
              if (partitions_out != nullptr) {
                partitions_out->push_back(event.result->num_partitions);
              }
              break;
            case EmissionEvent::Kind::kError:
              transcript += " error " + event.status.ToString();
              break;
            case EmissionEvent::Kind::kShed:
              transcript += " shed";
              break;
          }
          transcript += "\n";
        });
    EXPECT_TRUE(engine.ok()) << engine.status();
    if (!engine.ok()) return "";
    (*engine)->PushBatch(stream);
    (*engine)->Flush();
    if (stats_out != nullptr) *stats_out = (*engine)->stats();
    return transcript;
  }

  /// The unsharded synchronous oracle of a window geometry.
  std::string Oracle(const Program& program, size_t window_size,
                     size_t window_slide, const std::vector<Triple>& stream) {
    EngineConfig config;
    config.pipeline.window_size = window_size;
    config.pipeline.window_slide = window_slide;
    return Transcript(program, config, stream);
  }

  SymbolTablePtr symbols_;
};

TEST_F(SubjectBucketTest, AnalysisPinsBucketCountsAndFactRouting) {
  // What num_shards = N buys each program: P and P′ split both
  // communities, the network program all three, and reachability none.
  // P's and P′'s inputs are keyed at argument 0, the subject, except the
  // duplicated car_number, which is replicated. And a fact window routes
  // exactly as the equal triple window does.
  struct Case {
    const char* name;
    Workload workload;
    bool splits;
  };
  const Case kCases[] = {{"P", Workload::kP, true},
                         {"P'", Workload::kPPrime, true},
                         {"network", Workload::kNetwork, true},
                         {"reach_tc", Workload::kReach, false}};
  for (const Case& c : kCases) {
    const Program program = MustProgram(c.workload);
    const PartitioningPlan community = *DecomposeInputDependencyGraph(
        *InputDependencyGraph::Build(program));
    const std::vector<Triple> stream = MakeStream(3000, 11, c.workload);
    DataFormatProcessor format;
    ASSERT_TRUE(
        format.DeclareInputPredicates(program.input_predicates()).ok());
    for (const size_t n : {size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(std::string(c.name) + " num_shards=" + std::to_string(n));
      const std::vector<int> want(community.num_communities(),
                                  c.splits ? static_cast<int>(n) : 1);
      EXPECT_EQ(BucketCounts(program, n), want);

      const PartitioningHandler handler(
          SplitIntoBuckets(program, community, n));
      if (c.workload == Workload::kP || c.workload == Workload::kPPrime) {
        ASSERT_EQ(handler.num_partitions(), 2 * n);
        for (const PredicateSignature& sig : community.predicates()) {
          EXPECT_EQ(handler.plan().KeyPositionOf(sig),
                    community.CommunitiesOf(sig).size() > 1
                        ? PartitioningPlan::kReplicated
                        : 0)
              << sig.ToString(*symbols_);
        }
      }
      const auto triples = handler.Partition(stream);
      StatusOr<std::vector<Atom>> facts = format.ToFacts(stream);
      ASSERT_TRUE(facts.ok());
      const auto fact_partitions = handler.PartitionFacts(*facts);
      ASSERT_EQ(fact_partitions.size(), triples.size());
      for (size_t p = 0; p < triples.size(); ++p) {
        StatusOr<std::vector<Atom>> want_facts = format.ToFacts(triples[p]);
        ASSERT_TRUE(want_facts.ok());
        EXPECT_EQ(fact_partitions[p], *want_facts) << "partition " << p;
      }
    }
  }
}

TEST_F(SubjectBucketTest, PartitionDifferentialMatchesSyncOracle) {
  // The acceptance sweep: P, P′, the network program and reachability ×
  // tumbling and sliding × num_shards {0, 1, 2, 4} × sync/async × reuse
  // none/ground/solve, every transcript byte-identical to the unsharded
  // sync oracle. The traffic and network rules join each input on its
  // subject (P′'s r7 joins car_fire against many_cars, whose car_number
  // input is duplicated into every bucket), so those plans split every
  // community into num_shards buckets; reachability joins link/2 on its
  // object too, so its community stays whole at every num_shards.
  // A slide of an eighth turns over a quarter of a window in two slides,
  // under the grounders' fallback fraction, so the split deltas are
  // patched in.
  struct Reuse {
    const char* name;
    bool grounding;
    bool solving;
  };
  const Reuse kReuse[] = {
      {"none", false, false}, {"ground", true, false}, {"solve", false, true}};
  struct Case {
    const char* name;
    Workload workload;
    uint64_t seed;
    size_t items;
    size_t window;
    bool splits;
  };
  const Case kCases[] = {{"P", Workload::kP, 2017, 4000, 1000, true},
                         {"P'", Workload::kPPrime, 7, 4000, 1000, true},
                         {"network", Workload::kNetwork, 3, 4000, 1000, true},
                         {"reach_tc", Workload::kReach, 2017, 800, 200, false}};
  for (const Case& c : kCases) {
    const Program program = MustProgram(c.workload);
    const std::vector<Triple> stream =
        MakeStream(c.items, c.seed, c.workload);
    for (const size_t slide : {size_t{0}, c.window / 8}) {
      const std::string oracle = Oracle(program, c.window, slide, stream);
      ASSERT_FALSE(oracle.empty());
      for (const size_t shards : {0u, 1u, 2u, 4u}) {
        for (const bool async : {false, true}) {
          for (const Reuse& reuse : kReuse) {
            SCOPED_TRACE(std::string(c.name) +
                         " slide=" + std::to_string(slide) +
                         " shards=" + std::to_string(shards) +
                         (async ? " async" : " sync") +
                         " reuse=" + reuse.name);
            EngineConfig config;
            config.pipeline.reasoner.num_shards = shards;
            config.pipeline.window_size = c.window;
            config.pipeline.window_slide = slide;
            config.pipeline.async = async;
            config.pipeline.max_inflight_windows = 4;
            ReasonerOptions& reasoner = config.pipeline.reasoner.reasoner;
            reasoner.reuse_grounding = reuse.grounding;
            reasoner.solving.reuse_solving = reuse.solving;
            EngineStats stats;
            std::vector<size_t> partitions;
            EXPECT_EQ(
                Transcript(program, config, stream, &stats, &partitions),
                oracle);
            EXPECT_EQ(stats.delivery_errors, 0u);
            EXPECT_EQ(stats.num_shards, shards);
            // Every window splits into communities × buckets partitions.
            const size_t communities = static_cast<size_t>(
                BucketCounts(program, /*num_shards=*/1).size());
            const size_t expected =
                communities * (c.splits ? std::max<size_t>(shards, 1) : 1);
            EXPECT_EQ(stats.num_partitions, expected);
            EXPECT_EQ(partitions,
                      std::vector<size_t>(partitions.size(), expected));
            if (slide != 0 && !async && reuse.solving) {
              // The split delta keeps every partition's persistent
              // solver patching across windows, not rebuilding.
              EXPECT_GT(stats.reasoning.incremental_solve_windows, 0u);
            }
          }
        }
      }
    }
  }
}

TEST_F(SubjectBucketTest, SlidingSmallSlidesLeaveMostBucketsUnchanged) {
  // slide ≪ buckets × churn: most windows change only one or two
  // partitions' slices, so the other partitions receive EMPTY deltas
  // (retain everything) — and the transcript must still match the oracle
  // exactly, with the persistent solvers patching.
  const Program program = MustProgram(Workload::kP);
  const std::vector<Triple> stream = MakeStream(700, /*seed=*/23);
  const std::string oracle = Oracle(program, 120, 10, stream);

  EngineConfig config;
  config.pipeline.reasoner.num_shards = 4;
  config.pipeline.window_size = 120;
  config.pipeline.window_slide = 10;
  config.pipeline.reasoner.reasoner.solving.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(Transcript(program, config, stream, &stats), oracle);
  EXPECT_GT(stats.reasoning.incremental_solve_windows, 0u);
}

TEST_F(SubjectBucketTest, SlidingDuplicateTriplesExpireAcrossBoundaries) {
  // Duplicate stream items: the multiset delta contract says each
  // occurrence expires positionally, and both copies route to the same
  // bucket. Doubling every triple guarantees duplicates live in the same
  // window and expire across boundaries.
  const Program program = MustProgram(Workload::kP);
  const std::vector<Triple> base = MakeStream(300, /*seed=*/5);
  std::vector<Triple> stream;
  stream.reserve(base.size() * 2);
  for (const Triple& t : base) {
    stream.push_back(t);
    stream.push_back(t);
  }
  const std::string oracle = Oracle(program, 100, 20, stream);

  for (const size_t shards : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineConfig config;
    config.pipeline.reasoner.num_shards = shards;
    config.pipeline.window_size = 100;
    config.pipeline.window_slide = 20;
    config.pipeline.reasoner.reasoner.solving.reuse_solving = true;
    EngineStats stats;
    EXPECT_EQ(Transcript(program, config, stream, &stats), oracle);
    EXPECT_EQ(stats.delivery_errors, 0u);
  }
}

TEST_F(SubjectBucketTest, SlidingFlushBeforeFirstFillEmitsPartialWindow) {
  // A stream shorter than the window: no boundary ever fires, so Flush
  // emits the retained partial window (admitted == items, no
  // expirations), split into buckets like any other.
  const Program program = MustProgram(Workload::kP);
  const std::vector<Triple> stream = MakeStream(90, /*seed=*/31);
  const std::string oracle = Oracle(program, 200, 50, stream);
  ASSERT_FALSE(oracle.empty());

  EngineConfig config;
  config.pipeline.reasoner.num_shards = 3;
  config.pipeline.window_size = 200;
  config.pipeline.window_slide = 50;
  config.pipeline.reasoner.reasoner.solving.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(Transcript(program, config, stream, &stats), oracle);
  EXPECT_EQ(stats.delivered_windows, 1u);
}

TEST_F(SubjectBucketTest, FailedPartitionsFailTheirWindowInOrder) {
  // Every partition's grounding exceeds its rule limit: each window
  // surfaces as exactly one error event, in order, in both modes, and
  // Flush returns.
  const Program program = MustProgram(Workload::kP);
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    EngineConfig config;
    config.pipeline.reasoner.num_shards = 2;
    config.pipeline.window_size = 200;
    config.pipeline.async = async;
    config.pipeline.reasoner.reasoner.grounding.max_ground_rules = 1;
    EngineStats stats;
    const std::string transcript =
        Transcript(program, config, MakeStream(600), &stats);
    EXPECT_EQ(std::count(transcript.begin(), transcript.end(), '\n'), 3);
    EXPECT_EQ(transcript.rfind("#0[200] error", 0), 0u) << transcript;
    EXPECT_NE(transcript.find("\n#2[200] error"), std::string::npos)
        << transcript;
    EXPECT_EQ(stats.delivered_windows, 0u);
    EXPECT_EQ(stats.delivery_errors, 3u);
    EXPECT_EQ(stats.accounted_windows(), 3u);
  }
}

}  // namespace
}  // namespace streamasp
