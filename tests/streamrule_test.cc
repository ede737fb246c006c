#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "streamrule/accuracy.h"
#include "streamrule/answer.h"
#include "streamrule/combining_handler.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/random_partitioner.h"
#include "triple_test_util.h"

namespace streamasp {
namespace {

class StreamRuleTest : public ::testing::Test {
 protected:
  StreamRuleTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  Atom A(const std::string& text) {
    StatusOr<Atom> atom = parser_.ParseGroundAtom(text);
    EXPECT_TRUE(atom.ok()) << atom.status();
    return std::move(atom).value();
  }

  GroundAnswer Ans(std::initializer_list<const char*> atoms) {
    GroundAnswer answer;
    for (const char* text : atoms) answer.push_back(A(text));
    NormalizeAnswer(&answer);
    return answer;
  }

  PredicateSignature Sig(const std::string& name, uint32_t arity) {
    return PredicateSignature{symbols_->Intern(name), arity};
  }

  SymbolTablePtr symbols_;
  Parser parser_;
};

// -------------------------------------------------------- Answer helpers.

TEST_F(StreamRuleTest, NormalizeSortsAndDedups) {
  GroundAnswer answer = {A("b"), A("a"), A("b")};
  NormalizeAnswer(&answer);
  EXPECT_EQ(answer.size(), 2u);
  EXPECT_TRUE(answer[0] < answer[1]);
}

TEST_F(StreamRuleTest, IntersectionSize) {
  EXPECT_EQ(IntersectionSize(Ans({"a", "b", "c"}), Ans({"b", "c", "d"})), 2u);
  EXPECT_EQ(IntersectionSize(Ans({}), Ans({"a"})), 0u);
  EXPECT_EQ(IntersectionSize(Ans({"a"}), Ans({"a"})), 1u);
}

TEST_F(StreamRuleTest, UnionAnswers) {
  const GroundAnswer u = UnionAnswers(Ans({"a", "b"}), Ans({"b", "c"}));
  EXPECT_EQ(u, Ans({"a", "b", "c"}));
}

TEST_F(StreamRuleTest, ProjectAnswerKeepsOnlyShownSignatures) {
  const GroundAnswer answer = Ans({"p(1)", "q(1)", "p(2)"});
  const GroundAnswer projected =
      ProjectAnswer(answer, {Sig("p", 1)});
  EXPECT_EQ(projected, Ans({"p(1)", "p(2)"}));
}

TEST_F(StreamRuleTest, AnswerToStringRendersSet) {
  // Atom order follows symbol interning order ("a" interned first here).
  EXPECT_EQ(AnswerToString(Ans({"a", "b"}), *symbols_), "{a, b}");
  EXPECT_EQ(AnswerToString(Ans({}), *symbols_), "{}");
}

// -------------------------------------------- PartitioningHandler (Alg 1).

TEST_F(StreamRuleTest, PartitionRoutesByPlan) {
  PartitioningPlan plan(2);
  plan.Assign(Sig("p", 1), 0);
  plan.Assign(Sig("q", 1), 1);
  PartitioningHandler handler(plan);

  const std::vector<Atom> window = {A("p(1)"), A("q(2)"), A("p(3)")};
  const auto partitions = handler.Partition(WindowOf(window).items);
  ASSERT_EQ(partitions.size(), 2u);
  EXPECT_EQ(partitions[0].size(), 2u);
  EXPECT_EQ(partitions[1].size(), 1u);
  EXPECT_EQ(handler.stray_items(), 0u);
}

TEST_F(StreamRuleTest, PartitionDuplicatesSharedPredicates) {
  PartitioningPlan plan(2);
  plan.Assign(Sig("shared", 1), 0);
  plan.Assign(Sig("shared", 1), 1);
  plan.Assign(Sig("solo", 1), 0);
  PartitioningHandler handler(plan);

  const std::vector<Atom> window = {A("shared(1)"), A("solo(2)")};
  const auto partitions = handler.Partition(WindowOf(window).items);
  EXPECT_EQ(partitions[0].size(), 2u);
  EXPECT_EQ(partitions[1].size(), 1u);
  EXPECT_EQ(partitions[1][0], WindowOf({A("shared(1)")}).items[0]);
}

TEST_F(StreamRuleTest, PartitionStraysGoToCommunityZero) {
  PartitioningPlan plan(2);
  plan.Assign(Sig("known", 1), 1);
  PartitioningHandler handler(plan);

  const std::vector<Atom> window = {A("mystery(9)"), A("known(1)")};
  const auto partitions = handler.Partition(WindowOf(window).items);
  EXPECT_EQ(partitions[0].size(), 1u);
  EXPECT_EQ(partitions[1].size(), 1u);
  EXPECT_EQ(handler.stray_items(), 1u);
}

TEST_F(StreamRuleTest, PartitionTriplesMatchesArity) {
  // traffic_light arrives object-less => signature arity 1.
  PartitioningPlan plan(2);
  plan.Assign(Sig("traffic_light", 1), 1);
  plan.Assign(Sig("average_speed", 2), 0);
  PartitioningHandler handler(plan);

  std::vector<Triple> window = {
      Triple{Term::Integer(1), symbols_->Intern("average_speed"),
             Term::Integer(10)},
      Triple{Term::Integer(1), symbols_->Intern("traffic_light"),
             std::nullopt}};
  const auto partitions = handler.Partition(window);
  EXPECT_EQ(partitions[0].size(), 1u);
  EXPECT_EQ(partitions[1].size(), 1u);
  EXPECT_EQ(handler.stray_items(), 0u);
}

TEST_F(StreamRuleTest, PartitionPreservesEveryItemSomewhere) {
  PartitioningPlan plan(3);
  plan.Assign(Sig("a", 1), 0);
  plan.Assign(Sig("b", 1), 1);
  plan.Assign(Sig("c", 1), 2);
  PartitioningHandler handler(plan);
  std::vector<Atom> window;
  for (int i = 0; i < 30; ++i) {
    window.push_back(A((i % 3 == 0 ? "a(" : i % 3 == 1 ? "b(" : "c(") +
                       std::to_string(i) + ")"));
  }
  const auto partitions = handler.Partition(WindowOf(window).items);
  size_t total = 0;
  for (const auto& p : partitions) total += p.size();
  EXPECT_EQ(total, window.size());
}

// ------------------------------------------------------ RandomPartitioner.

TEST_F(StreamRuleTest, RandomPartitionCoversWindow) {
  RandomPartitioner partitioner(4, 123);
  std::vector<Atom> window;
  for (int i = 0; i < 100; ++i) window.push_back(A("p(" + std::to_string(i) + ")"));
  const auto partitions = partitioner.Partition(WindowOf(window).items);
  ASSERT_EQ(partitions.size(), 4u);
  size_t total = 0;
  for (const auto& p : partitions) total += p.size();
  EXPECT_EQ(total, 100u);
}

TEST_F(StreamRuleTest, RandomPartitionIsDeterministicPerSeed) {
  std::vector<Atom> window;
  for (int i = 0; i < 50; ++i) window.push_back(A("p(" + std::to_string(i) + ")"));
  const std::vector<Triple> items = WindowOf(window).items;
  RandomPartitioner a(3, 9), b(3, 9);
  EXPECT_EQ(a.Partition(items), b.Partition(items));
}

TEST_F(StreamRuleTest, RandomPartitionKClampedToOne) {
  RandomPartitioner partitioner(0);
  EXPECT_EQ(partitioner.k(), 1u);
}

// -------------------------------------------------------- CombiningHandler.

TEST_F(StreamRuleTest, CombineSingleAnswersUnions) {
  CombiningHandler combiner;
  StatusOr<std::vector<GroundAnswer>> combined = combiner.Combine(
      {{Ans({"a"})}, {Ans({"b"})}});
  ASSERT_TRUE(combined.ok());
  ASSERT_EQ(combined->size(), 1u);
  EXPECT_EQ((*combined)[0], Ans({"a", "b"}));
}

TEST_F(StreamRuleTest, CombineCrossProduct) {
  CombiningHandler combiner;
  StatusOr<std::vector<GroundAnswer>> combined = combiner.Combine(
      {{Ans({"a1"}), Ans({"a2"})}, {Ans({"b1"}), Ans({"b2"})}});
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->size(), 4u);
}

TEST_F(StreamRuleTest, CombineDeduplicatesEqualUnions) {
  CombiningHandler combiner;
  StatusOr<std::vector<GroundAnswer>> combined = combiner.Combine(
      {{Ans({"a"}), Ans({"a"})}, {Ans({"b"})}});
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->size(), 1u);
}

TEST_F(StreamRuleTest, CombineEmptyPartitionListYieldsEmptyUnion) {
  CombiningHandler combiner;
  StatusOr<std::vector<GroundAnswer>> combined = combiner.Combine({});
  ASSERT_TRUE(combined.ok());
  ASSERT_EQ(combined->size(), 1u);
  EXPECT_TRUE((*combined)[0].empty());
}

TEST_F(StreamRuleTest, CombineInconsistentPartitionKillsAllAnswers) {
  CombiningHandler combiner;
  StatusOr<std::vector<GroundAnswer>> combined = combiner.Combine(
      {{Ans({"a"})}, {}});
  ASSERT_TRUE(combined.ok());
  EXPECT_TRUE(combined->empty());
}

TEST_F(StreamRuleTest, CombineRespectsCap) {
  CombiningOptions options;
  options.max_combined_answers = 3;
  CombiningHandler combiner(options);
  std::vector<GroundAnswer> many;
  for (int i = 0; i < 10; ++i) many.push_back(Ans({("p(" + std::to_string(i) + ")").c_str()}));
  StatusOr<std::vector<GroundAnswer>> combined =
      combiner.Combine({many, many});
  ASSERT_TRUE(combined.ok());
  EXPECT_LE(combined->size(), 3u);
}

// ---------------------------------------------------------------- Accuracy.

TEST_F(StreamRuleTest, AccuracyIdenticalAnswersIsOne) {
  const std::vector<GroundAnswer> reference = {Ans({"a", "b"})};
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({"a", "b"}), reference), 1.0);
  EXPECT_DOUBLE_EQ(MeanAccuracy(reference, reference), 1.0);
}

TEST_F(StreamRuleTest, AccuracyMissingAtomsLowersRecall) {
  const std::vector<GroundAnswer> reference = {Ans({"a", "b", "c", "d"})};
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({"a", "b"}), reference), 0.5);
}

TEST_F(StreamRuleTest, AccuracySpuriousAtomsDoNotLowerRecall) {
  // The paper's metric is recall-shaped: extra atoms in the PR answer are
  // not penalized.
  const std::vector<GroundAnswer> reference = {Ans({"a"})};
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({"a", "zz"}), reference), 1.0);
}

TEST_F(StreamRuleTest, AccuracyTakesBestReference) {
  const std::vector<GroundAnswer> reference = {Ans({"a", "b"}),
                                               Ans({"c", "d"})};
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({"c", "d"}), reference), 1.0);
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({"a", "c"}), reference), 0.5);
}

TEST_F(StreamRuleTest, AccuracyDegenerateCases) {
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({}), {}), 1.0);
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({"a"}), {}), 0.0);
  EXPECT_DOUBLE_EQ(AnswerAccuracy(Ans({"a"}), {Ans({})}), 1.0);
  EXPECT_DOUBLE_EQ(MeanAccuracy({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(MeanAccuracy({}, {Ans({"a"})}), 0.0);
}

TEST_F(StreamRuleTest, MeanAccuracyAverages) {
  const std::vector<GroundAnswer> reference = {Ans({"a", "b"})};
  const std::vector<GroundAnswer> pr = {Ans({"a", "b"}), Ans({"a"})};
  EXPECT_DOUBLE_EQ(MeanAccuracy(pr, reference), 0.75);
}

}  // namespace
}  // namespace streamasp
