// Solving reuse threaded through the reasoning layers: ParallelReasoner's
// per-partition persistent solvers, the sync/async pipelines with
// solving reuse, and key buckets (num_shards) — all differentially
// checked against the same configuration without reuse (byte-identical
// transcripts), across slide sizes, programs P/P', shard counts, and with
// the grounding flag both set and unset (either flag selects the one
// reuse path).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asp/parser.h"
#include "emission_test_util.h"
#include "stream/generator.h"
#include "stream/query_processor.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/pipeline.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class SolvingReuseTest : public ::testing::Test {
 protected:
  SolvingReuseTest() : symbols_(MakeSymbolTable()) {}

  Program MustProgram(TrafficProgramVariant variant) {
    StatusOr<Program> program =
        MakeTrafficProgram(symbols_, variant, /*with_show=*/true);
    EXPECT_TRUE(program.ok()) << program.status();
    return std::move(program).value();
  }

  std::vector<Triple> MakeStream(size_t items, uint64_t seed = 2017) {
    GeneratorOptions options;
    options.seed = seed;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), options);
    return generator.GenerateWindow(items);
  }

  void AppendLine(std::string* transcript, const TripleWindow& window,
                  const ParallelReasonerResult& result) {
    *transcript += "#" + std::to_string(window.sequence) + "[" +
                   std::to_string(window.size()) + "]:";
    for (const GroundAnswer& answer : result.answers) {
      *transcript += " " + AnswerToString(answer, *symbols_);
    }
    *transcript += "\n";
  }

  std::string PipelineTranscript(const Program& program,
                                 PipelineOptions options,
                                 const std::vector<Triple>& stream,
                                 PipelineStats* stats_out = nullptr) {
    std::string transcript;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &program, options,
            ByKind([&](const TripleWindow& window,
                       const ParallelReasonerResult& result) {
              AppendLine(&transcript, window, result);
            }));
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    (*pipeline)->PushBatch(stream);
    (*pipeline)->Flush();
    if (stats_out != nullptr) *stats_out = (*pipeline)->stats();
    return transcript;
  }

  SymbolTablePtr symbols_;
};

TEST_F(SolvingReuseTest, ParallelReasonerSlidingWindowsMatchBatch) {
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    const Program program = MustProgram(variant);
    const std::vector<Triple> stream = MakeStream(600);
    for (const size_t slide : {size_t{25}, size_t{50}, size_t{100}}) {
      for (const bool explicit_grounding : {false, true}) {
        SCOPED_TRACE("slide " + std::to_string(slide) +
                     (explicit_grounding ? " +reuse_grounding" : ""));
        // reuse_solving alone must imply grounding reuse; setting both
        // must behave identically.
        ParallelReasonerOptions warm_options;
        warm_options.reasoner.solving.reuse_solving = true;
        warm_options.reasoner.reuse_grounding = explicit_grounding;
        // A slide-50 delta (50 expired + 50 admitted facts) is as large as
        // the window, so that leg raises fallback_delta_fraction above 1.0
        // to replay; the others keep the default (0.5).
        if (slide == 50) {
          warm_options.reasoner.incremental.fallback_delta_fraction = 1.5;
        }
        ParallelReasoner warm(&program, PartitioningPlan(1), warm_options);
        ParallelReasoner batch(&program, PartitioningPlan(1), {});

        std::string warm_answers;
        std::string batch_answers;
        GroundingStats reuse;
        StreamQueryProcessor windower(
            /*window_size=*/100, slide, [&](const TripleWindow& window) {
              StatusOr<ParallelReasonerResult> a = warm.Process(window);
              StatusOr<ParallelReasonerResult> b = batch.Process(window);
              ASSERT_TRUE(a.ok()) << a.status();
              ASSERT_TRUE(b.ok()) << b.status();
              reuse.Accumulate(a->grounding);
              AppendLine(&warm_answers, window, *a);
              AppendLine(&batch_answers, window, *b);
            });
        for (const StreamPredicate& pred : MakeTrafficSchema(*symbols_)) {
          windower.RegisterPredicate(pred.predicate);
        }
        windower.PushBatch(stream);
        windower.Flush();
        EXPECT_EQ(windower.dropped_count(), 0u);
        EXPECT_FALSE(batch_answers.empty());
        EXPECT_EQ(warm_answers, batch_answers);
        // The grounder's path on each leg. Every window either replays its
        // delta through the cache or regrounds. At slide 25 most windows
        // replay, and at slide 50 8 of the 11 do (measured on P and P′). At
        // slide == size the windows tumble and carry no delta, so the
        // grounder's own snapshot diff finds them too far apart and it
        // regrounds every window.
        const size_t windows = windower.emitted_windows();
        EXPECT_EQ(reuse.incremental_windows + reuse.incremental_fallbacks,
                  windows);
        if (slide == 25) {
          EXPECT_GT(reuse.incremental_windows, windows / 2);
        } else if (slide == 50) {
          EXPECT_EQ(reuse.incremental_windows, 8u);
        } else {
          EXPECT_EQ(reuse.incremental_windows, 0u);
          EXPECT_EQ(reuse.incremental_fallbacks, windows);
        }
      }
    }
  }
}

TEST_F(SolvingReuseTest, SyncSlidingPipelineMatchesWithAndWithoutReuse) {
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(1200);

  PipelineOptions base;
  base.window_size = 200;
  base.window_slide = 50;
  base.async = false;

  PipelineOptions grounding_flag = base;
  grounding_flag.reasoner.reasoner.reuse_grounding = true;

  PipelineOptions warm = base;
  warm.reasoner.reasoner.reuse_grounding = true;
  warm.reasoner.reasoner.solving.reuse_solving = true;

  PipelineStats baseline_stats;
  PipelineStats grounding_flag_stats;
  PipelineStats warm_stats;
  const std::string want =
      PipelineTranscript(program, base, stream, &baseline_stats);
  const std::string grounding_flag_got = PipelineTranscript(
      program, grounding_flag, stream, &grounding_flag_stats);
  const std::string warm_got =
      PipelineTranscript(program, warm, stream, &warm_stats);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want, grounding_flag_got);
  EXPECT_EQ(want, warm_got);

  // Solver counters move only under reuse, and the overlapping windows
  // must actually hit the patch path. Either flag selects the one reuse
  // path, so the two reuse runs count the same work.
  EXPECT_EQ(baseline_stats.incremental_solve_windows, 0u);
  EXPECT_EQ(grounding_flag_stats.incremental_windows,
            warm_stats.incremental_windows);
  EXPECT_EQ(grounding_flag_stats.incremental_solve_windows,
            warm_stats.incremental_solve_windows);
  EXPECT_EQ(grounding_flag_stats.warm_start_hits, warm_stats.warm_start_hits);
  EXPECT_GT(warm_stats.incremental_solve_windows, 0u);
  EXPECT_GT(warm_stats.grounding_rules_retained, 0u);
  EXPECT_GT(warm_stats.grounding_rules_new, 0u);
  EXPECT_GT(warm_stats.warm_start_hits, 0u);
  EXPECT_EQ(warm_stats.windows, baseline_stats.windows);
}

TEST_F(SolvingReuseTest, AsyncSlidingPipelineMatchesSyncOracle) {
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const std::vector<Triple> stream = MakeStream(900);

  PipelineOptions sync;
  sync.window_size = 150;
  sync.window_slide = 30;
  sync.async = false;
  const std::string want = PipelineTranscript(program, sync, stream);

  PipelineOptions async = sync;
  async.async = true;
  async.max_inflight_windows = 4;
  async.reasoner.reasoner.reuse_grounding = true;
  async.reasoner.reasoner.solving.reuse_solving = true;
  const std::string got = PipelineTranscript(program, async, stream);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want, got);
}

TEST_F(SolvingReuseTest, ShardedEngineMatchesWithAndWithoutReuse) {
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(800);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    PipelineOptions base;
    base.reasoner.num_shards = shards;
    base.window_size = 200;

    PipelineOptions warm = base;
    warm.reasoner.reasoner.reuse_grounding = true;
    warm.reasoner.reasoner.solving.reuse_solving = true;

    const std::string want = PipelineTranscript(program, base, stream);
    PipelineStats warm_stats;
    const std::string got =
        PipelineTranscript(program, warm, stream, &warm_stats);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(want, got);
    // Tumbling windows: the grounder cache falls back and the
    // paired solver re-ingests — correct, never corrupting answers.
    EXPECT_GT(warm_stats.solve_rebuilds, 0u);
  }
}

TEST_F(SolvingReuseTest, ShardedSlidingEngineKeepsPersistentSolversWarm) {
  // The bucketed sliding path: the partitioning handler hands every
  // partition (community, key bucket) its routed slice of the window
  // delta, so the per-partition persistent solvers patch across
  // overlapping windows instead of re-ingesting — byte-identical to the
  // same bucketed configuration without reuse AND to the unsharded
  // sliding sync oracle.
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(1000, /*seed=*/19);

  PipelineOptions sync;
  sync.window_size = 200;
  sync.window_slide = 40;
  const std::string oracle = PipelineTranscript(program, sync, stream);
  ASSERT_FALSE(oracle.empty());

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    PipelineOptions base;
    base.reasoner.num_shards = shards;
    base.window_size = 200;
    base.window_slide = 40;

    PipelineOptions warm = base;
    // Implies grounding reuse.
    warm.reasoner.reasoner.solving.reuse_solving = true;

    EXPECT_EQ(PipelineTranscript(program, base, stream), oracle);
    PipelineStats warm_stats;
    EXPECT_EQ(PipelineTranscript(program, warm, stream, &warm_stats), oracle);
    EXPECT_GT(warm_stats.incremental_solve_windows, 0u);
    EXPECT_GT(warm_stats.grounding_rules_retained, 0u);
    EXPECT_GT(warm_stats.warm_start_hits, 0u);
  }
}

TEST_F(SolvingReuseTest, MaintainedFixpointColumnMatchesPatchedRebuild) {
  // The maintained-fixpoint column of the differential matrix: for every
  // slide size and both traffic programs, the reuse_solving pipeline with
  // delta-sized model maintenance (the default) and with it disabled
  // (PR 4's patched-rebuild behavior) must both produce the no-reuse
  // baseline transcript byte for byte. The traffic programs are
  // non-definite, so maintenance must also know to stay out of the way.
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    const Program program = MustProgram(variant);
    const std::vector<Triple> stream = MakeStream(1200);
    for (const size_t slide : {size_t{25}, size_t{50}, size_t{100}}) {
      SCOPED_TRACE("slide " + std::to_string(slide));
      PipelineOptions base;
      base.window_size = 200;
      base.window_slide = slide;

      PipelineOptions maintained = base;
      maintained.reasoner.reasoner.solving.reuse_solving = true;
      maintained.reasoner.reasoner.solving.maintain_fixpoint = true;

      PipelineOptions patched = base;
      patched.reasoner.reasoner.solving.reuse_solving = true;
      patched.reasoner.reasoner.solving.maintain_fixpoint = false;

      const std::string want = PipelineTranscript(program, base, stream);
      EXPECT_FALSE(want.empty());
      EXPECT_EQ(PipelineTranscript(program, maintained, stream), want);
      EXPECT_EQ(PipelineTranscript(program, patched, stream), want);
    }
  }
}

TEST_F(SolvingReuseTest, ShardedMaintainedFixpointColumnMatchesOracle) {
  // Same column across shard counts: maintained and patched-rebuild
  // configurations must both reproduce the unsharded sliding sync oracle.
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(1000, /*seed=*/19);

  PipelineOptions sync;
  sync.window_size = 200;
  sync.window_slide = 40;
  const std::string oracle = PipelineTranscript(program, sync, stream);
  ASSERT_FALSE(oracle.empty());

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    PipelineOptions maintained;
    maintained.reasoner.num_shards = shards;
    maintained.window_size = 200;
    maintained.window_slide = 40;
    maintained.reasoner.reasoner.solving.reuse_solving = true;

    PipelineOptions patched = maintained;
    patched.reasoner.reasoner.solving.maintain_fixpoint = false;

    EXPECT_EQ(PipelineTranscript(program, maintained, stream), oracle);
    EXPECT_EQ(PipelineTranscript(program, patched, stream), oracle);
  }
}

TEST_F(SolvingReuseTest, DefiniteSlidingPipelineMaintainsRootFixpoint) {
  // A definite recursive workload (the maintained path's home turf):
  // sliding reachability. The maintained run must match the no-reuse
  // baseline transcript, actually ride the maintained fixpoint
  // (fixpoint_maintained_windows), and carry most of the model across
  // windows untouched (assignments_reused); with maintenance off the
  // counter must stay zero while the transcript still matches.
  Parser parser(symbols_);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input link/2.
    reach(X, Y) :- link(X, Y).
    reach(X, Z) :- reach(X, Y), link(Y, Z).
    #show reach/2.
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  GeneratorOptions gen;
  gen.seed = 2017;
  gen.value_range = 24;
  gen.location_divisor = 8;
  std::vector<StreamPredicate> schema(1);
  schema[0].predicate = symbols_->Intern("link");
  schema[0].has_object = true;
  SyntheticStreamGenerator generator(schema, gen);
  const std::vector<Triple> stream = generator.GenerateWindow(600);

  PipelineOptions base;
  base.window_size = 120;
  base.window_slide = 10;

  PipelineOptions maintained = base;
  maintained.reasoner.reasoner.solving.reuse_solving = true;

  PipelineOptions patched = base;
  patched.reasoner.reasoner.solving.reuse_solving = true;
  patched.reasoner.reasoner.solving.maintain_fixpoint = false;

  const std::string want = PipelineTranscript(*program, base, stream);
  EXPECT_FALSE(want.empty());

  PipelineStats maintained_stats;
  EXPECT_EQ(PipelineTranscript(*program, maintained, stream,
                               &maintained_stats),
            want);
  EXPECT_GT(maintained_stats.fixpoint_maintained_windows, 0u);
  EXPECT_GT(maintained_stats.atoms_touched, 0u);
  EXPECT_GT(maintained_stats.assignments_reused, 0u);

  PipelineStats patched_stats;
  EXPECT_EQ(PipelineTranscript(*program, patched, stream, &patched_stats),
            want);
  EXPECT_EQ(patched_stats.fixpoint_maintained_windows, 0u);
}

TEST_F(SolvingReuseTest, DisjunctiveProgramKeepsColdSolvePath) {
  Parser parser(symbols_);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input on/1.
    p(X) | q(X) :- on(X).
    #show p/1, q/1.
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  GeneratorOptions gen;
  gen.seed = 7;
  std::vector<StreamPredicate> schema(1);
  schema[0].predicate = symbols_->Intern("on");
  schema[0].has_object = false;
  SyntheticStreamGenerator generator(schema, gen);
  const std::vector<Triple> stream = generator.GenerateWindow(120);

  PipelineOptions base;
  base.window_size = 40;
  base.window_slide = 10;

  const std::string want = PipelineTranscript(*program, base, stream);
  EXPECT_FALSE(want.empty());
  // Reuse requested through either flag: the disjunctive guard routes
  // every window through the cold path, grounder and solver alike.
  for (const bool through_grounding_flag : {false, true}) {
    SCOPED_TRACE(through_grounding_flag ? "reuse_grounding"
                                        : "reuse_solving");
    PipelineOptions warm = base;
    if (through_grounding_flag) {
      warm.reasoner.reasoner.reuse_grounding = true;
    } else {
      warm.reasoner.reasoner.solving.reuse_solving = true;
    }
    PipelineStats warm_stats;
    EXPECT_EQ(PipelineTranscript(*program, warm, stream, &warm_stats), want);
    EXPECT_GT(warm_stats.windows, 0u);
    EXPECT_EQ(warm_stats.incremental_windows, 0u);
    EXPECT_EQ(warm_stats.grounding_fallbacks, 0u);
    EXPECT_EQ(warm_stats.incremental_solve_windows, 0u);
    EXPECT_EQ(warm_stats.solve_rebuilds, 0u);
    EXPECT_EQ(warm_stats.warm_start_hits, 0u);
  }
}

}  // namespace
}  // namespace streamasp
