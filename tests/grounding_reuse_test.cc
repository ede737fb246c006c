// Grounding reuse threaded through the reasoning layers: the sliding
// query processor's deltas into ParallelReasoner's per-partition
// incremental grounders (each paired with its persistent solver: the one
// reuse path, selected here through ReasonerOptions::reuse_grounding),
// the sync/async pipeline with reuse, and key buckets (num_shards) — all
// differentially checked against the same configuration without reuse
// (byte-identical transcripts).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "emission_test_util.h"
#include "stream/generator.h"
#include "stream/query_processor.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/pipeline.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class GroundingReuseTest : public ::testing::Test {
 protected:
  GroundingReuseTest() : symbols_(MakeSymbolTable()) {}

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
    int64_t last_sequence = -1;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &program, options,
            ByKind([&](const TripleWindow& window,
                       const ParallelReasonerResult& result) {
              EXPECT_GT(static_cast<int64_t>(window.sequence), last_sequence);
              last_sequence = static_cast<int64_t>(window.sequence);
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

TEST_F(GroundingReuseTest, ParallelReasonerSlidingWindowsMatchBatch) {
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    const Program program = MustProgram(variant);
    const std::vector<Triple> stream = MakeStream(600);
    for (const size_t slide : {size_t{25}, size_t{50}, size_t{100}}) {
      SCOPED_TRACE("slide " + std::to_string(slide));
      ParallelReasonerOptions reuse_options;
      reuse_options.reasoner.reuse_grounding = true;
      // A slide-50 delta (50 expired + 50 admitted facts) is as large as
      // the window, so that leg raises fallback_delta_fraction above 1.0
      // to replay; the others keep the default (0.5).
      if (slide == 50) {
        reuse_options.reasoner.incremental.fallback_delta_fraction = 1.5;
      }
      ParallelReasoner incremental(
          &program, PartitioningPlan(1), reuse_options);
      ParallelReasoner batch(&program, PartitioningPlan(1), {});

      std::string incremental_answers;
      std::string batch_answers;
      GroundingStats reuse;
      StreamQueryProcessor windower(
          /*window_size=*/100, slide, [&](const TripleWindow& window) {
            StatusOr<ParallelReasonerResult> a = incremental.Process(window);
            StatusOr<ParallelReasonerResult> b = batch.Process(window);
            ASSERT_TRUE(a.ok()) << a.status();
            ASSERT_TRUE(b.ok()) << b.status();
            reuse.Accumulate(a->grounding);
            AppendLine(&incremental_answers, window, *a);
            AppendLine(&batch_answers, window, *b);
          });
      for (const StreamPredicate& pred : MakeTrafficSchema(*symbols_)) {
        windower.RegisterPredicate(pred.predicate);
      }
      windower.PushBatch(stream);
      windower.Flush();
      EXPECT_EQ(windower.dropped_count(), 0u);
      EXPECT_FALSE(batch_answers.empty());
      EXPECT_EQ(incremental_answers, batch_answers);
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

TEST_F(GroundingReuseTest, SyncSlidingPipelineMatchesWithAndWithoutReuse) {
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(1200);

  PipelineOptions base;
  base.window_size = 200;
  base.window_slide = 50;
  base.async = false;

  PipelineOptions reuse = base;
  reuse.reasoner.reasoner.reuse_grounding = true;

  PipelineStats baseline_stats;
  PipelineStats reuse_stats;
  const std::string want =
      PipelineTranscript(program, base, stream, &baseline_stats);
  const std::string got =
      PipelineTranscript(program, reuse, stream, &reuse_stats);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want, got);

  // Without reuse no counter moves; with reuse the overlapping windows
  // must actually hit the incremental path.
  EXPECT_EQ(baseline_stats.incremental_windows, 0u);
  EXPECT_EQ(baseline_stats.grounding_fallbacks, 0u);
  EXPECT_GT(reuse_stats.incremental_windows, 0u);
  EXPECT_GT(reuse_stats.grounding_rules_retained, 0u);
  EXPECT_GT(reuse_stats.grounding_rules_new, 0u);
  EXPECT_EQ(reuse_stats.windows, baseline_stats.windows);
}

TEST_F(GroundingReuseTest, AsyncSlidingPipelineMatchesSyncOracle) {
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const std::vector<Triple> stream = MakeStream(900);

  PipelineOptions sync;
  sync.window_size = 150;
  sync.window_slide = 30;
  sync.async = false;
  const std::string want = PipelineTranscript(program, sync, stream);

  // Async with reuse: each worker's grounders see every Nth window, so
  // deltas are larger, but the lossless kBlock policy keeps the delivered
  // transcript byte-identical to the sync oracle.
  PipelineOptions async = sync;
  async.async = true;
  async.max_inflight_windows = 4;
  async.reasoner.reasoner.reuse_grounding = true;
  const std::string got = PipelineTranscript(program, async, stream);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want, got);
}

TEST_F(GroundingReuseTest, ShardedEngineMatchesWithAndWithoutReuse) {
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(800);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    PipelineOptions base;
    base.reasoner.num_shards = shards;
    base.window_size = 200;

    PipelineOptions reuse = base;
    reuse.reasoner.reasoner.reuse_grounding = true;

    const std::string want = PipelineTranscript(program, base, stream);
    PipelineStats reuse_stats;
    const std::string got =
        PipelineTranscript(program, reuse, stream, &reuse_stats);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(want, got);
    // Tumbling windows: the cache sees disjoint content and must degrade
    // to (correct) full re-groundings, never corrupt answers.
    EXPECT_GT(reuse_stats.grounding_fallbacks, 0u);
  }
}

TEST_F(GroundingReuseTest, ShardedSlidingWindowsKeepGroundingReuseIncremental) {
  // Each partition's grounder replays only its routed slice of the
  // window's delta (community, then key bucket), and the combined
  // transcript stays byte-identical to the unsharded sliding oracle.
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const std::vector<Triple> stream = MakeStream(900);

  PipelineOptions sync;
  sync.window_size = 150;
  sync.window_slide = 30;
  const std::string want = PipelineTranscript(program, sync, stream);
  ASSERT_FALSE(want.empty());

  for (const size_t shards : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    PipelineOptions options = sync;
    options.reasoner.num_shards = shards;
    options.reasoner.reasoner.reuse_grounding = true;
    PipelineStats stats;
    EXPECT_EQ(PipelineTranscript(program, options, stream, &stats), want);
    EXPECT_GT(stats.incremental_windows, 0u);
    EXPECT_GT(stats.grounding_rules_retained, 0u);
  }
}

TEST_F(GroundingReuseTest, ShardedSlidingValidation) {
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const EmissionHandler callback = [](EmissionEvent&) {};

  // Sliding by more than a full window never makes sense.
  PipelineOptions oversized;
  oversized.reasoner.num_shards = 2;
  oversized.window_size = 100;
  oversized.window_slide = 200;
  EXPECT_FALSE(
      StreamRulePipeline::Create(&program, oversized, callback).ok());

  // In-range slides are a supported configuration.
  PipelineOptions sliding;
  sliding.reasoner.num_shards = 2;
  sliding.window_size = 100;
  sliding.window_slide = 25;
  EXPECT_TRUE(StreamRulePipeline::Create(&program, sliding, callback).ok());
}

}  // namespace
}  // namespace streamasp
