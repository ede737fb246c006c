// StreamEngine facade: the shared Create-time validator (one rule table
// across both engine shapes), shape selection, the unified EngineStats
// snapshot, and differential checks that output through the facade is
// byte-identical to driving the underlying engines directly.

#include <gtest/gtest.h>

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
// Shared validator: one rule table, uniform Status messages for both
// shapes (satellite: Create-time validation hoisted out of the engines).
// ---------------------------------------------------------------------------

TEST_F(EngineTest, ValidatorTable) {
  struct Case {
    const char* name;
    PipelineOptions pipeline;
    bool sharded;
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

  const Case kCases[] = {
      {"defaults", PipelineOptions{}, false, true, ""},
      {"defaults sharded", PipelineOptions{}, true, true, ""},
      {"async needs inflight >= 1", async_no_queue, false, false,
       "max_inflight_windows"},
      {"async needs inflight >= 1 (sharded)", async_no_queue, true, false,
       "max_inflight_windows"},
      {"slide beyond window", oversized_slide, false, false, "window_slide"},
      {"slide == window is tumbling", boundary_slide, false, true, ""},
      {"lossy sync unsharded ok", lossy_sync, false, true, ""},
      {"lossy sync sharded rejected", lossy_sync, true, false,
       "lossy backpressure policies only engage in async shard pipelines"},
      {"lossy async sharded ok", lossy_async, true, true, ""},
  };
  for (const Case& c : kCases) {
    const Status status = ValidatePipelineOptions(c.pipeline, c.sharded);
    EXPECT_EQ(status.ok(), c.ok) << c.name << ": " << status.ToString();
    if (!c.ok) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.name;
      EXPECT_NE(status.message().find(c.message_substring),
                std::string::npos)
          << c.name << ": " << status.ToString();
    }
  }

  // Sharded wrapper adds the shard-count rule on top of the same table.
  ShardedPipelineOptions no_shards;
  no_shards.num_shards = 0;
  const Status status = ValidateShardedPipelineOptions(no_shards);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_shards"), std::string::npos);
}

TEST_F(EngineTest, CreateRejectsThroughSharedValidator) {
  // The same violation is refused with the same message through every
  // entry point: unsharded facade, sharded facade, and both engines.
  EngineConfig bad;
  bad.pipeline.async = true;
  bad.pipeline.max_inflight_windows = 0;
  auto unsharded = StreamEngine::Create(program_.get(), bad,
                                        [](EmissionEvent&) {});
  ASSERT_FALSE(unsharded.ok());
  bad.num_shards = 2;
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
// Shape selection and the unified stats surface.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, PicksShapeFromConfig) {
  EngineConfig config;
  config.pipeline.window_size = 500;
  auto unsharded = StreamEngine::Create(program_.get(), config,
                                        [](EmissionEvent&) {});
  ASSERT_TRUE(unsharded.ok()) << unsharded.status();
  EXPECT_NE((*unsharded)->pipeline(), nullptr);
  EXPECT_EQ((*unsharded)->sharded(), nullptr);
  EXPECT_EQ((*unsharded)->num_shards(), 0u);

  config.num_shards = 3;
  auto sharded = StreamEngine::Create(program_.get(), config,
                                      [](EmissionEvent&) {});
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ((*sharded)->pipeline(), nullptr);
  ASSERT_NE((*sharded)->sharded(), nullptr);
  EXPECT_EQ((*sharded)->num_shards(), 3u);
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
  EXPECT_EQ(stats.delivered_windows, events);
  EXPECT_EQ(stats.delivered_windows, 3u);  // 400 + 400 + flushed 200.
  EXPECT_EQ(stats.reasoning.items, 1000u);
  EXPECT_EQ(stats.delivery_errors, 0u);
  EXPECT_EQ(stats.accounted_windows(), 3u);
  EXPECT_EQ(stats.completeness(), 1.0);
  EXPECT_EQ(stats.max_shard_items(), 1000u);
  EXPECT_TRUE(stats.per_shard.empty());
}

TEST_F(EngineTest, UnifiedStatsSharded) {
  EngineConfig config;
  config.num_shards = 2;
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
  EXPECT_EQ(stats.num_shards, 2u);
  EXPECT_EQ(stats.delivered_windows, events);
  EXPECT_EQ(stats.delivered_windows, 3u);  // Global windows, merged.
  EXPECT_EQ(stats.per_shard.size(), 2u);
  EXPECT_EQ(stats.routed_items.size(), 2u);
  // The P' plan duplicates car_number across communities, so the router
  // broadcasts those items to both shards: the routed sum counts each
  // broadcast item once per shard and thus exceeds the pushed count.
  EXPECT_GT(stats.routed_items[0] + stats.routed_items[1] +
                stats.filtered_items,
            1000u);
  EXPECT_GE(stats.routed_items[0], 1u);
  EXPECT_GE(stats.routed_items[1], 1u);
  EXPECT_EQ(stats.delivery_errors, 0u);
  EXPECT_EQ(stats.mean_completeness, 1.0);
}

// ---------------------------------------------------------------------------
// Differential: the facade adds no behavior — event streams through
// StreamEngine are byte-identical to the underlying engines driven
// directly, across shapes, sliding windows, and the reuse stack.
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
      {"sliding+reuse", 0, false, 150, true, false},
      {"sliding+reuse-solve", 0, false, 150, true, true},
      {"sharded x3", 3, true, 0, false, false},
      {"sharded sliding", 2, false, 150, true, false},
  };
  for (const Shape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    EngineConfig config;
    config.num_shards = shape.shards;
    config.pipeline.window_size = 600;
    config.pipeline.window_slide = shape.slide;
    config.pipeline.async = shape.async;
    config.pipeline.reuse_grounding = shape.reuse_grounding;
    config.pipeline.reuse_solving = shape.reuse_solving;

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
    if (shape.shards == 0) {
      auto direct = StreamRulePipeline::Create(
          program_.get(), config.pipeline, [&](EmissionEvent& event) {
            direct_transcript +=
                Transcript(*symbols_, event.sequence, event);
          });
      ASSERT_TRUE(direct.ok()) << direct.status();
      (*direct)->PushBatch(stream);
      (*direct)->Flush();
    } else {
      ShardedPipelineOptions options;
      options.num_shards = shape.shards;
      options.pipeline = config.pipeline;
      auto direct = ShardedPipelineEngine::Create(
          program_.get(), options, [&](EmissionEvent& event) {
            direct_transcript +=
                Transcript(*symbols_, event.sequence, event);
          });
      ASSERT_TRUE(direct.ok()) << direct.status();
      (*direct)->PushBatch(stream);
      (*direct)->Flush();
    }
    EXPECT_FALSE(facade_transcript.empty());
    EXPECT_EQ(facade_transcript, direct_transcript);
  }
}

// ---------------------------------------------------------------------------
// Partition fan-out on a pool lane: a pooled P' window's two partitions
// run as separate lane tasks joined by the last finisher. The transcript
// must stay byte-identical to the sync oracle of the same shape across
// lane caps, shared and private pools, the reuse stack, and a lane shared
// by shard pipelines.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, PooledPartitionFanOutMatchesSyncOracle) {
  const std::vector<Triple> stream = MakeStream(2400);
  struct Reuse {
    const char* name;
    bool grounding;
    bool solving;
  };
  const Reuse kReuse[] = {
      {"none", false, false}, {"ground", true, false}, {"solve", true, true}};
  auto config_for = [](size_t shards, const Reuse& reuse) {
    EngineConfig config;
    config.num_shards = shards;
    config.pipeline.window_size = 600;
    config.pipeline.window_slide = 150;
    config.pipeline.reuse_grounding = reuse.grounding;
    config.pipeline.reuse_solving = reuse.solving;
    return config;
  };
  auto pool = std::make_shared<SharedReasonerPool>(4);
  for (size_t shards : {0u, 1u, 2u}) {
    for (const Reuse& reuse : kReuse) {
      std::string oracle;
      {
        auto engine = StreamEngine::Create(
            program_.get(), config_for(shards, reuse),
            [&](EmissionEvent& event) {
              oracle += Transcript(*symbols_, event.sequence, event);
            });
        ASSERT_TRUE(engine.ok()) << engine.status();
        (*engine)->PushBatch(stream);
        (*engine)->Flush();
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

        // One lane task per window plus one per extra partition, all
        // completed by the flush; every pipeline's slot use fits the cap.
        const EngineStats stats = (*engine)->stats();
        std::vector<const StreamRulePipeline*> pipelines;
        if (shards == 0) {
          pipelines.push_back((*engine)->pipeline());
        } else {
          for (size_t s = 0; s < shards; ++s) {
            pipelines.push_back(&(*engine)->sharded()->shard(s));
          }
        }
        const size_t partitions = pipelines[0]->plan().num_communities();
        ASSERT_EQ(partitions, 2u);
        EXPECT_EQ(stats.lane.submitted,
                  partitions * stats.reasoning.windows);
        EXPECT_EQ(stats.lane.completed, stats.lane.submitted);
        for (const StreamRulePipeline* pipeline : pipelines) {
          EXPECT_EQ(pipeline->pool_queue()->max_inflight(), cap);
          EXPECT_GE(pipeline->max_slots_in_use(), 1u);
          EXPECT_LE(pipeline->max_slots_in_use(), cap);
        }
      }
    }
  }
}

TEST_F(EngineTest, ShardedFacadeMatchesUnshardedAnswers) {
  // Subject sharding respects the traffic rules' dependencies, so the
  // sharded shape must reproduce the single-pipeline answer stream
  // byte-for-byte through the facade.
  const std::vector<Triple> stream = MakeStream(1800);
  auto run = [&](size_t shards) {
    EngineConfig config;
    config.num_shards = shards;
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
