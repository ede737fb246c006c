// Sharding is partitioning: num_shards splits each dependency community
// into subject buckets inside the one pipeline's partitioning handler.
// The partition differential drives every engine shape through the
// StreamEngine facade and checks the event transcript byte for byte
// against the unsharded synchronous oracle — across programs P and P′
// (whose duplicated car_number is copied into every bucket of both its
// communities), tumbling and sliding windows, shard counts, sync/async
// and the grounding/solving reuse stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class SubjectBucketTest : public ::testing::Test {
 protected:
  SubjectBucketTest() : symbols_(MakeSymbolTable()) {}

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

TEST_F(SubjectBucketTest, PartitionDifferentialMatchesSyncOracle) {
  // The acceptance sweep: P and P′ × tumbling and slide 125 × num_shards
  // {0, 1, 2, 4} × sync/async × reuse none/ground/solve, every transcript
  // byte-identical to the unsharded sync oracle. Subject buckets respect
  // the traffic rules' joins (each rule's non-duplicated atoms share
  // their subject), and P′'s r7 joins car_fire against many_cars, whose
  // car_number input is duplicated into every bucket.
  // A slide of 125 turns over a quarter of a 1000-item window, under the
  // grounders' fallback fraction, so the split deltas are patched in.
  constexpr size_t kWindow = 1000;
  struct Reuse {
    const char* name;
    bool grounding;
    bool solving;
  };
  const Reuse kReuse[] = {
      {"none", false, false}, {"ground", true, false}, {"solve", false, true}};
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    const Program program = MustProgram(variant);
    const bool pprime = variant == TrafficProgramVariant::kPPrime;
    const std::vector<Triple> stream = MakeStream(4000, pprime ? 7 : 2017);
    for (const size_t slide : {size_t{0}, size_t{125}}) {
      const std::string oracle = Oracle(program, kWindow, slide, stream);
      ASSERT_FALSE(oracle.empty());
      for (const size_t shards : {0u, 1u, 2u, 4u}) {
        for (const bool async : {false, true}) {
          for (const Reuse& reuse : kReuse) {
            SCOPED_TRACE(std::string(pprime ? "P'" : "P") +
                         " slide=" + std::to_string(slide) +
                         " shards=" + std::to_string(shards) +
                         (async ? " async" : " sync") +
                         " reuse=" + reuse.name);
            EngineConfig config;
            config.pipeline.reasoner.num_shards = shards;
            config.pipeline.window_size = kWindow;
            config.pipeline.window_slide = slide;
            config.pipeline.async = async;
            config.pipeline.max_inflight_windows = 4;
            config.pipeline.reuse_grounding = reuse.grounding;
            config.pipeline.reuse_solving = reuse.solving;
            EngineStats stats;
            std::vector<size_t> partitions;
            EXPECT_EQ(
                Transcript(program, config, stream, &stats, &partitions),
                oracle);
            EXPECT_EQ(stats.delivery_errors, 0u);
            EXPECT_EQ(stats.num_shards, shards);
            // Both plans have two communities: every window splits into
            // communities × buckets partitions.
            const size_t expected = 2 * std::max<size_t>(shards, 1);
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
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const std::vector<Triple> stream = MakeStream(700, /*seed=*/23);
  const std::string oracle = Oracle(program, 120, 10, stream);

  EngineConfig config;
  config.pipeline.reasoner.num_shards = 4;
  config.pipeline.window_size = 120;
  config.pipeline.window_slide = 10;
  config.pipeline.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(Transcript(program, config, stream, &stats), oracle);
  EXPECT_GT(stats.reasoning.incremental_solve_windows, 0u);
}

TEST_F(SubjectBucketTest, SlidingDuplicateTriplesExpireAcrossBoundaries) {
  // Duplicate stream items: the multiset delta contract says each
  // occurrence expires positionally, and both copies route to the same
  // bucket. Doubling every triple guarantees duplicates live in the same
  // window and expire across boundaries.
  const Program program = MustProgram(TrafficProgramVariant::kP);
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
    config.pipeline.reuse_solving = true;
    EngineStats stats;
    EXPECT_EQ(Transcript(program, config, stream, &stats), oracle);
    EXPECT_EQ(stats.delivery_errors, 0u);
  }
}

TEST_F(SubjectBucketTest, SlidingFlushBeforeFirstFillEmitsPartialWindow) {
  // A stream shorter than the window: no boundary ever fires, so Flush
  // emits the retained partial window (admitted == items, no
  // expirations), split into buckets like any other.
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const std::vector<Triple> stream = MakeStream(90, /*seed=*/31);
  const std::string oracle = Oracle(program, 200, 50, stream);
  ASSERT_FALSE(oracle.empty());

  EngineConfig config;
  config.pipeline.reasoner.num_shards = 3;
  config.pipeline.window_size = 200;
  config.pipeline.window_slide = 50;
  config.pipeline.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(Transcript(program, config, stream, &stats), oracle);
  EXPECT_EQ(stats.delivered_windows, 1u);
}

TEST_F(SubjectBucketTest, FailedPartitionsFailTheirWindowInOrder) {
  // Every partition's grounding exceeds its rule limit: each window
  // surfaces as exactly one error event, in order, in both modes, and
  // Flush returns.
  const Program program = MustProgram(TrafficProgramVariant::kP);
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
