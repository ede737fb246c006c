// The staged asynchronous execution engine: differential equivalence
// against the synchronous oracle, ordered emission with several windows in
// flight, Flush drain semantics, and backpressure accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "emission_test_util.h"
#include "stream/generator.h"
#include "streamrule/pipeline.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class AsyncPipelineTest : public ::testing::Test {
 protected:
  AsyncPipelineTest() : symbols_(MakeSymbolTable()) {}

  std::vector<Triple> MakeStream(size_t items, uint64_t seed = 2017) {
    GeneratorOptions options;
    options.seed = seed;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), options);
    return generator.GenerateWindow(items);
  }

  // Runs one pipeline over `stream` and renders every callback into one
  // transcript line per window: sequence, size, and every answer set,
  // byte for byte. Also checks the emission order invariant.
  std::string RunTranscript(const Program& program, PipelineOptions options,
                            const std::vector<Triple>& stream,
                            PipelineStats* stats_out = nullptr) {
    std::string transcript;
    int64_t last_sequence = -1;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &program, options,
            ByKind([&](const TripleWindow& window,
                       const ParallelReasonerResult& result) {
              // Strictly increasing sequences even when windows complete
              // out of order: the ordered emitter's contract.
              EXPECT_GT(static_cast<int64_t>(window.sequence), last_sequence);
              last_sequence = static_cast<int64_t>(window.sequence);
              transcript += "#" + std::to_string(window.sequence) + "[" +
                            std::to_string(window.size()) + "]:";
              for (const GroundAnswer& answer : result.answers) {
                transcript += " " + AnswerToString(answer, *symbols_);
              }
              transcript += "\n";
            }));
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    (*pipeline)->PushBatch(stream);
    (*pipeline)->Flush();
    if (stats_out != nullptr) *stats_out = (*pipeline)->stats();
    return transcript;
  }

  SymbolTablePtr symbols_;
};

TEST_F(AsyncPipelineTest, DifferentialAsyncMatchesSyncOracle) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(6700);  // 13 full + trailer.

  PipelineOptions sync;
  sync.window_size = 500;
  sync.async = false;

  PipelineOptions async = sync;
  async.async = true;
  async.max_inflight_windows = 4;

  PipelineStats sync_stats;
  PipelineStats async_stats;
  const std::string sync_transcript =
      RunTranscript(*program, sync, stream, &sync_stats);
  const std::string async_transcript =
      RunTranscript(*program, async, stream, &async_stats);

  // Byte-identical ordered output is the whole point of the ordered
  // emitter + lossless backpressure.
  EXPECT_FALSE(sync_transcript.empty());
  EXPECT_EQ(sync_transcript, async_transcript);

  EXPECT_EQ(sync_stats.windows, 14u);  // 13 full + flushed trailer.
  EXPECT_EQ(async_stats.windows, sync_stats.windows);
  EXPECT_EQ(async_stats.items, sync_stats.items);
  EXPECT_EQ(async_stats.answers, sync_stats.answers);
  EXPECT_EQ(async_stats.errors, 0u);
  EXPECT_EQ(async_stats.enqueued_windows, 14u);
  EXPECT_EQ(async_stats.dropped_windows, 0u);
  EXPECT_EQ(async_stats.rejected_windows, 0u);
  EXPECT_GE(async_stats.max_queue_depth, 1u);
  EXPECT_LE(async_stats.max_queue_depth, 4u);
}

TEST_F(AsyncPipelineTest, DifferentialHoldsForConnectedVariantToo) {
  // P' forces the Louvain + duplication path, so partitions genuinely
  // overlap while several windows are in flight.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(3000, /*seed=*/7);

  PipelineOptions sync;
  sync.window_size = 400;
  PipelineOptions async = sync;
  async.async = true;
  async.max_inflight_windows = 8;
  async.num_reason_workers = 3;

  EXPECT_EQ(RunTranscript(*program, sync, stream),
            RunTranscript(*program, async, stream));
}

TEST_F(AsyncPipelineTest, FlushDrainsAndPipelineStaysUsable) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  std::atomic<uint64_t> callbacks{0};
  PipelineOptions options;
  options.window_size = 300;
  options.async = true;
  options.max_inflight_windows = 4;
  StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
      StreamRulePipeline::Create(
          &*program, options,
          ByKind([&](const TripleWindow&, const ParallelReasonerResult&) {
            ++callbacks;
          }));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  EXPECT_GE((*pipeline)->num_reason_workers(), 1u);

  (*pipeline)->PushBatch(MakeStream(900));
  (*pipeline)->Flush();
  // Flush is a full drain: every admitted window reasoned AND delivered.
  EXPECT_EQ(callbacks.load(), 3u);
  EXPECT_EQ((*pipeline)->stats().windows, 3u);

  // The engine keeps running after a flush.
  (*pipeline)->PushBatch(MakeStream(600, /*seed=*/5));
  (*pipeline)->Flush();
  EXPECT_EQ(callbacks.load(), 5u);
}

TEST_F(AsyncPipelineTest, SheddingPoliciesKeepOrderAndAccounts) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kDropOldest, BackpressurePolicy::kReject}) {
    SCOPED_TRACE(BackpressurePolicyName(policy));
    PipelineOptions options;
    options.window_size = 100;
    options.async = true;
    options.max_inflight_windows = 1;
    options.num_reason_workers = 1;
    options.backpressure = policy;

    uint64_t delivered = 0;
    int64_t last_sequence = -1;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &*program, options,
            ByKind([&](const TripleWindow& window,
                       const ParallelReasonerResult&) {
              // Shedding may skip sequences but never reorders them.
              EXPECT_GT(static_cast<int64_t>(window.sequence), last_sequence);
              last_sequence = static_cast<int64_t>(window.sequence);
              ++delivered;
            }));
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();

    (*pipeline)->PushBatch(MakeStream(5000));
    (*pipeline)->Flush();

    const PipelineStats stats = (*pipeline)->stats();
    // 50 windower emissions are fully accounted: delivered, shed, or
    // (drop-oldest) admitted-then-evicted.
    EXPECT_EQ(stats.windows, delivered);
    EXPECT_EQ(stats.errors, 0u);
    if (policy == BackpressurePolicy::kDropOldest) {
      EXPECT_EQ(stats.enqueued_windows, 50u);
      EXPECT_EQ(stats.rejected_windows, 0u);
      EXPECT_EQ(stats.windows + stats.dropped_windows, 50u);
    } else {
      EXPECT_EQ(stats.dropped_windows, 0u);
      EXPECT_EQ(stats.enqueued_windows + stats.rejected_windows, 50u);
      EXPECT_EQ(stats.windows, stats.enqueued_windows);
    }
    EXPECT_LE(stats.max_queue_depth, 1u);
  }
}

TEST_F(AsyncPipelineTest, FlushWaitsForInFlightCallbacks) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  // A deliberately slow callback: Flush must not return while the emitter
  // is still inside it, even once the reorder buffer looks empty.
  std::atomic<uint64_t> finished_callbacks{0};
  PipelineOptions options;
  options.window_size = 200;
  options.async = true;
  options.max_inflight_windows = 2;
  StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
      StreamRulePipeline::Create(
          &*program, options,
          ByKind([&](const TripleWindow&, const ParallelReasonerResult&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            ++finished_callbacks;
          }));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  (*pipeline)->PushBatch(MakeStream(400));  // Two windows.
  (*pipeline)->Flush();
  EXPECT_EQ(finished_callbacks.load(), 2u);
}

TEST_F(AsyncPipelineTest, CreateRejectsZeroInflight) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  PipelineOptions options;
  options.async = true;
  options.max_inflight_windows = 0;
  EXPECT_FALSE(StreamRulePipeline::Create(
                   &*program, options,
                   ByKind([](const TripleWindow&,
                             const ParallelReasonerResult&) {}))
                   .ok());
}

TEST_F(AsyncPipelineTest, ThrowingCallbackIsCountedNotFatal) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  // In sync mode a throwing callback propagates to the Push caller; in
  // async mode it lands on the emitter thread, which must survive it
  // (count an error) and keep delivering later windows.
  std::atomic<uint64_t> delivered{0};
  PipelineOptions options;
  options.window_size = 250;
  options.async = true;
  options.max_inflight_windows = 2;
  StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
      StreamRulePipeline::Create(
          &*program, options,
          ByKind([&](const TripleWindow& window,
                     const ParallelReasonerResult&) {
            if (window.sequence == 0) throw std::runtime_error("boom");
            ++delivered;
          }));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  (*pipeline)->PushBatch(MakeStream(750));  // Three windows.
  (*pipeline)->Flush();

  EXPECT_EQ(delivered.load(), 2u);  // Windows 1 and 2 still arrive.
  const PipelineStats stats = (*pipeline)->stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.windows, 3u);  // Reasoning itself succeeded for all 3.
}

TEST_F(AsyncPipelineTest, DestructorDrainsAdmittedWindows) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  std::atomic<uint64_t> callbacks{0};
  {
    PipelineOptions options;
    options.window_size = 200;
    options.async = true;
    options.max_inflight_windows = 8;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &*program, options,
            ByKind([&](const TripleWindow&, const ParallelReasonerResult&) {
              ++callbacks;
            }));
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    (*pipeline)->PushBatch(MakeStream(1600));  // 8 admitted windows.
    // No Flush: the destructor must still reason + deliver all of them.
  }
  EXPECT_EQ(callbacks.load(), 8u);
}

}  // namespace
}  // namespace streamasp
