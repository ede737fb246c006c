// StreamRulePipeline facade: design-time wiring, stream loop, statistics,
// baseline mode, and error surfaces.

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "emission_test_util.h"
#include "stream/generator.h"
#include "streamrule/accuracy.h"
#include "streamrule/pipeline.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class PipelineFacadeTest : public ::testing::Test {
 protected:
  PipelineFacadeTest() : symbols_(MakeSymbolTable()) {}
  SymbolTablePtr symbols_;
};

TEST_F(PipelineFacadeTest, ProcessesWholeStream) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  size_t callbacks = 0;
  PipelineOptions options;
  options.window_size = 1000;
  StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
      StreamRulePipeline::Create(
          &*program, options,
          ByKind([&](const TripleWindow& window,
                     const ParallelReasonerResult& r) {
            ++callbacks;
            // Full windows while streaming; the flushed trailer is smaller.
            EXPECT_LE(window.size(), 1000u);
            EXPECT_EQ(r.num_partitions, 2u);
          }));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
  (*pipeline)->PushBatch(generator.GenerateWindow(3500));
  EXPECT_EQ(callbacks, 3u);
  (*pipeline)->Flush();
  EXPECT_EQ(callbacks, 4u);  // Trailing 500-item window.

  const PipelineStats& stats = (*pipeline)->stats();
  EXPECT_EQ(stats.windows, 4u);
  EXPECT_EQ(stats.items, 3500u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.mean_latency_ms(), 0.0);
  EXPECT_GE(stats.max_latency_ms, stats.mean_latency_ms());
}

TEST_F(PipelineFacadeTest, DesignTimeArtifactsExposed) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kPPrime, false);
  ASSERT_TRUE(program.ok());
  StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
      StreamRulePipeline::Create(&*program, {}, [](EmissionEvent&) {});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE((*pipeline)->decomposition_info().graph_was_connected);
  EXPECT_EQ((*pipeline)->plan().num_communities(), 2);
  EXPECT_EQ((*pipeline)->plan().DuplicatedPredicates().size(), 1u);
}

TEST_F(PipelineFacadeTest, BaselineModeMatchesPartitionedAnswers) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  std::vector<GroundAnswer> partitioned;
  std::vector<GroundAnswer> baseline;
  PipelineOptions fast;
  fast.window_size = 2000;
  PipelineOptions whole = fast;
  whole.disable_partitioning = true;

  auto run = [&](const PipelineOptions& options,
                 std::vector<GroundAnswer>* sink) {
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &*program, options,
            ByKind([&](const TripleWindow&, const ParallelReasonerResult& r) {
              for (const GroundAnswer& answer : r.answers) {
                sink->push_back(answer);
              }
            }));
    ASSERT_TRUE(pipeline.ok());
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
    (*pipeline)->PushBatch(generator.GenerateWindow(4000));
    (*pipeline)->Flush();
  };
  run(fast, &partitioned);
  run(whole, &baseline);

  ASSERT_EQ(partitioned.size(), baseline.size());
  for (size_t i = 0; i < partitioned.size(); ++i) {
    EXPECT_TRUE(AnswersEqual(partitioned[i], baseline[i]));
  }
}

TEST_F(PipelineFacadeTest, CreateRejectsBadArguments) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, false);
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(
      StreamRulePipeline::Create(nullptr, {}, [](EmissionEvent&) {}).ok());
  EXPECT_FALSE(
      StreamRulePipeline::Create(&*program, {}, EmissionHandler()).ok());
}

TEST_F(PipelineFacadeTest, CreateRejectsProgramWithoutInputs) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram("a :- b. b.");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(
      StreamRulePipeline::Create(&*program, {}, [](EmissionEvent&) {}).ok());
}

}  // namespace
}  // namespace streamasp
