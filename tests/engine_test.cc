// StreamEngine facade: the shared Create-time validator, sharding as a
// key-bucket split of the one pipeline's partitioning, the unified
// EngineStats snapshot, and differential checks that output through the
// facade is byte-identical to driving the pipeline directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "streamrule/validate.h"

namespace streamasp {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : symbols_(MakeSymbolTable()) {
    StatusOr<Program> program = MakeTrafficProgram(
        symbols_, TrafficProgramVariant::kPPrime, /*with_show=*/true);
    if (program.ok()) {
      program_ = std::make_unique<Program>(std::move(*program));
    }
  }

  void SetUp() override { ASSERT_NE(program_, nullptr); }

  std::vector<Triple> MakeStream(size_t items) {
    GeneratorOptions options;
    options.seed = 7;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), options);
    return generator.GenerateWindow(items);
  }

  SymbolTablePtr symbols_;
  std::unique_ptr<Program> program_;
};

// ---------------------------------------------------------------------------
// Shared validator: one rule table, uniform Status messages.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, ValidatorTable) {
  struct Case {
    const char* name;
    PipelineOptions pipeline;
    bool ok;
    const char* message_substring;  // Must appear in the error message.
  };
  PipelineOptions async_no_queue;
  async_no_queue.async = true;
  async_no_queue.max_inflight_windows = 0;
  PipelineOptions oversized_slide;
  oversized_slide.window_size = 100;
  oversized_slide.window_slide = 101;
  PipelineOptions boundary_slide;
  boundary_slide.window_size = 100;
  boundary_slide.window_slide = 100;
  PipelineOptions lossy_sync;
  lossy_sync.backpressure = BackpressurePolicy::kDropOldest;
  PipelineOptions lossy_async = lossy_sync;
  lossy_async.async = true;
  PipelineOptions zero_weight;
  zero_weight.async = true;
  zero_weight.shared_pool = std::make_shared<SharedReasonerPool>(1);
  zero_weight.pool_weight = 0;

  const Case kCases[] = {
      {"defaults", PipelineOptions{}, true, ""},
      {"async needs inflight >= 1", async_no_queue, false,
       "max_inflight_windows"},
      {"slide beyond window", oversized_slide, false, "window_slide"},
      {"slide == window is tumbling", boundary_slide, true, ""},
      {"lossy sync ok", lossy_sync, true, ""},
      {"lossy async ok", lossy_async, true, ""},
      {"pooled zero weight", zero_weight, false, "pool_weight must be >= 1"},
  };
  for (const Case& c : kCases) {
    const Status status = ValidatePipelineOptions(c.pipeline);
    EXPECT_EQ(status.ok(), c.ok) << c.name << ": " << status.ToString();
    if (!c.ok) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.name;
      EXPECT_NE(status.message().find(c.message_substring),
                std::string::npos)
          << c.name << ": " << status.ToString();
    }
  }
}

TEST_F(EngineTest, CreateRejectsThroughSharedValidator) {
  // The same violation is refused with the same message whatever the
  // shard count.
  EngineConfig bad;
  bad.pipeline.async = true;
  bad.pipeline.max_inflight_windows = 0;
  auto unsharded = StreamEngine::Create(program_.get(), bad,
                                        [](EmissionEvent&) {});
  ASSERT_FALSE(unsharded.ok());
  bad.pipeline.reasoner.num_shards = 2;
  auto sharded = StreamEngine::Create(program_.get(), bad,
                                      [](EmissionEvent&) {});
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(unsharded.status(), sharded.status());

  EXPECT_FALSE(
      StreamEngine::Create(nullptr, EngineConfig{}, [](EmissionEvent&) {})
          .ok());
  EXPECT_FALSE(
      StreamEngine::Create(program_.get(), EngineConfig{}, EmissionHandler())
          .ok());
}

// ---------------------------------------------------------------------------
// Sharding as partitioning and the unified stats surface.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, NumShardsSplitsEachCommunityIntoBuckets) {
  // One pipeline whatever the shard count: each of P′'s communities is
  // split into num_shards key buckets, and 0 and 1 both mean no buckets.
  for (const size_t shards : {size_t{0}, size_t{1}, size_t{3}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    EngineConfig config;
    config.pipeline.window_size = 500;
    config.pipeline.reasoner.num_shards = shards;
    std::vector<size_t> partitions;
    auto engine = StreamEngine::Create(
        program_.get(), config, [&](EmissionEvent& event) {
          if (event.kind == EmissionEvent::Kind::kResult) {
            partitions.push_back(event.result->num_partitions);
          }
        });
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_NE((*engine)->pipeline(), nullptr);
    const size_t communities =
        (*engine)->pipeline()->plan().num_communities();
    ASSERT_EQ(communities, 2u);
    (*engine)->PushBatch(MakeStream(1000));
    (*engine)->Flush();
    EXPECT_EQ(partitions,
              std::vector<size_t>(2, communities * std::max<size_t>(
                                                       shards, 1)));
    EXPECT_EQ((*engine)->stats().num_shards, shards);
  }
}

TEST_F(EngineTest, UnifiedStatsUnsharded) {
  EngineConfig config;
  config.pipeline.window_size = 400;
  uint64_t events = 0;
  auto engine = StreamEngine::Create(program_.get(), config,
                                     [&](EmissionEvent& event) {
                                       if (event.kind ==
                                           EmissionEvent::Kind::kResult) {
                                         ++events;
                                       }
                                     });
  ASSERT_TRUE(engine.ok());
  (*engine)->PushBatch(MakeStream(1000));
  (*engine)->Flush();
  const EngineStats stats = (*engine)->stats();
  EXPECT_EQ(stats.num_shards, 0u);
  EXPECT_EQ(stats.reasoning.windows, events);
  EXPECT_EQ(stats.reasoning.windows, 3u);  // 400 + 400 + flushed 200.
  EXPECT_EQ(stats.reasoning.items, 1000u);
  EXPECT_EQ(stats.reasoning.errors, 0u);
  EXPECT_EQ(stats.accounted_windows(), 3u);
  EXPECT_EQ(stats.completeness(), 1.0);
}

TEST_F(EngineTest, UnifiedStatsSharded) {
  EngineConfig config;
  config.pipeline.reasoner.num_shards = 2;
  config.pipeline.window_size = 400;
  uint64_t events = 0;
  size_t partition_items = 0;
  auto engine = StreamEngine::Create(
      program_.get(), config, [&](EmissionEvent& event) {
        if (event.kind == EmissionEvent::Kind::kResult) {
          ++events;
          partition_items += event.result->total_partition_items;
        }
      });
  ASSERT_TRUE(engine.ok());
  (*engine)->PushBatch(MakeStream(1000));
  (*engine)->Flush();
  const EngineStats stats = (*engine)->stats();
  EXPECT_EQ(stats.num_shards, 2u);
  EXPECT_EQ(stats.reasoning.windows, events);
  EXPECT_EQ(stats.reasoning.windows, 3u);  // Windows are not split.
  EXPECT_EQ(stats.reasoning.items, 1000u);
  // The P' plan duplicates car_number across communities, and the
  // handler copies it into every bucket of both: the partitions hold
  // more items than the windows.
  EXPECT_GT(partition_items, 1000u);
  EXPECT_EQ(stats.reasoning.errors, 0u);
  EXPECT_EQ(stats.accounted_windows(), 3u);
  EXPECT_EQ(stats.completeness(), 1.0);
}

// ---------------------------------------------------------------------------
// Differential: the facade adds no behavior — event streams through
// StreamEngine are byte-identical to the pipeline driven directly, across
// shapes, sliding windows, shard counts and the reuse stack.
// ---------------------------------------------------------------------------

std::string Transcript(const SymbolTable& symbols, uint64_t sequence,
                       const EmissionEvent& event) {
  std::string out = "#" + std::to_string(sequence);
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

TEST_F(EngineTest, FacadeMatchesDirectEnginesByteForByte) {
  const std::vector<Triple> stream = MakeStream(2400);
  struct Shape {
    const char* name;
    size_t shards;
    bool async;
    size_t slide;
    bool reuse_grounding;
    bool reuse_solving;
  };
  const Shape kShapes[] = {
      {"sync", 0, false, 0, false, false},
      {"async", 0, true, 0, false, false},
      {"sliding+reuse-solve", 0, false, 150, true, true},
      {"sharded x3", 3, true, 0, false, false},
      {"sharded sliding", 2, false, 150, true, false},
  };
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    EngineConfig config;
    config.pipeline.reasoner.num_shards = shape.shards;
    config.pipeline.window_size = 600;
    config.pipeline.window_slide = shape.slide;
    config.pipeline.async = shape.async;
    config.pipeline.reasoner.reasoner.reuse_grounding = shape.reuse_grounding;
    config.pipeline.reasoner.reasoner.solving.reuse_solving =
        shape.reuse_solving;

    std::string facade_transcript;
    auto facade = StreamEngine::Create(
        program_.get(), config, [&](EmissionEvent& event) {
          facade_transcript +=
              Transcript(*symbols_, event.sequence, event);
        });
    ASSERT_TRUE(facade.ok()) << facade.status();
    (*facade)->PushBatch(stream);
    (*facade)->Flush();

    std::string direct_transcript;
    auto direct = StreamRulePipeline::Create(
        program_.get(), config.pipeline, [&](EmissionEvent& event) {
          direct_transcript += Transcript(*symbols_, event.sequence, event);
        });
    ASSERT_TRUE(direct.ok()) << direct.status();
    (*direct)->PushBatch(stream);
    (*direct)->Flush();
    EXPECT_FALSE(facade_transcript.empty());
    EXPECT_EQ(facade_transcript, direct_transcript);
  }
}

// ---------------------------------------------------------------------------
// Partition fan-out on a pool lane: a pooled P' window's partitions (two
// communities, times the key buckets) run as separate lane tasks
// joined by the last finisher. The transcript must stay byte-identical to
// the sync oracle of the same shape across lane caps, shared and private
// pools, the reuse stack, and shard counts.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, PooledPartitionFanOutMatchesSyncOracle) {
  const std::vector<Triple> stream = MakeStream(2400);
  struct Reuse {
    const char* name;
    bool on;
  };
  const Reuse kReuse[] = {{"none", false}, {"solve", true}};
  auto config_for = [](size_t shards, const Reuse& reuse) {
    EngineConfig config;
    config.pipeline.reasoner.num_shards = shards;
    config.pipeline.window_size = 600;
    config.pipeline.window_slide = 150;
    config.pipeline.reasoner.reasoner.solving.reuse_solving = reuse.on;
    return config;
  };
  auto pool = std::make_shared<SharedReasonerPool>(4);
  for (size_t shards : {0u, 1u, 2u}) {
    for (const Reuse& reuse : kReuse) {
      std::string oracle;
      PipelineStats oracle_stats;
      {
        auto engine = StreamEngine::Create(
            program_.get(), config_for(shards, reuse),
            [&](EmissionEvent& event) {
              oracle += Transcript(*symbols_, event.sequence, event);
            });
        ASSERT_TRUE(engine.ok()) << engine.status();
        (*engine)->PushBatch(stream);
        (*engine)->Flush();
        oracle_stats = (*engine)->stats().reasoning;
      }
      ASSERT_FALSE(oracle.empty());
      // cap 0 is a private pool left at its default cap, which is every
      // pool thread even at max_inflight_windows = 1.
      constexpr size_t kPrivateThreads = 3;
      for (size_t cap : {1u, 2u, 4u, 0u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " reuse=" +
                     reuse.name + " cap=" + std::to_string(cap));
        EngineConfig config = config_for(shards, reuse);
        config.pipeline.async = true;
        if (cap == 0) {
          config.pipeline.num_reason_workers = kPrivateThreads;
          config.pipeline.max_inflight_windows = 1;
          cap = kPrivateThreads;
        } else {
          config.pipeline.shared_pool = pool;
          config.pipeline.pool_max_inflight = cap;
        }
        std::string transcript;
        auto engine = StreamEngine::Create(
            program_.get(), config, [&](EmissionEvent& event) {
              transcript += Transcript(*symbols_, event.sequence, event);
            });
        ASSERT_TRUE(engine.ok()) << engine.status();
        (*engine)->PushBatch(stream);
        (*engine)->Flush();
        EXPECT_EQ(transcript, oracle);

        // One lane task per window plus one per extra partition (under
        // reuse, per partition), all completed by the flush.
        const EngineStats stats = (*engine)->stats();
        const StreamRulePipeline* pipeline = (*engine)->pipeline();
        ASSERT_EQ(pipeline->plan().num_communities(), 2);
        const size_t partitions = 2 * std::max<size_t>(shards, 1);
        const uint64_t windows = stats.reasoning.windows;
        EXPECT_EQ(stats.lane.submitted,
                  (reuse.on ? partitions + 1 : partitions) * windows);
        EXPECT_EQ(stats.lane.completed, stats.lane.submitted);
        EXPECT_EQ(pipeline->pool_queue()->max_inflight(), cap);

        // Each partition's incremental state sees every window in order,
        // so reuse behaves exactly as in the sync oracle.
        EXPECT_EQ(stats.reasoning.incremental_windows,
                  oracle_stats.incremental_windows);
        EXPECT_EQ(stats.reasoning.grounding_fallbacks,
                  oracle_stats.grounding_fallbacks);
        EXPECT_EQ(stats.reasoning.solve_rebuilds,
                  oracle_stats.solve_rebuilds);
        EXPECT_EQ(stats.reasoning.fixpoint_maintained_windows,
                  oracle_stats.fixpoint_maintained_windows);
      }
    }
  }
}

TEST_F(EngineTest, ShardedFacadeMatchesUnshardedAnswers) {
  // The key-flow analysis splits only what the traffic rules allow, so
  // a bucketed pipeline must reproduce the unbucketed answer stream
  // byte-for-byte through the facade.
  const std::vector<Triple> stream = MakeStream(1800);
  auto run = [&](size_t shards) {
    EngineConfig config;
    config.pipeline.reasoner.num_shards = shards;
    config.pipeline.window_size = 600;
    config.pipeline.async = shards != 0;
    std::string transcript;
    auto engine = StreamEngine::Create(
        program_.get(), config, [&](EmissionEvent& event) {
          if (event.kind != EmissionEvent::Kind::kResult) return;
          transcript += "#" + std::to_string(event.sequence);
          for (const GroundAnswer& answer : event.result->answers) {
            transcript += "\n  " + AnswerToString(answer, *symbols_);
          }
          transcript += "\n";
        });
    EXPECT_TRUE(engine.ok()) << engine.status();
    (*engine)->PushBatch(stream);
    (*engine)->Flush();
    return transcript;
  };
  const std::string unsharded = run(0);
  EXPECT_FALSE(unsharded.empty());
  EXPECT_EQ(run(2), unsharded);
  EXPECT_EQ(run(4), unsharded);
}

}  // namespace
}  // namespace streamasp
