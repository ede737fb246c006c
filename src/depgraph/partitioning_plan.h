#ifndef STREAMASP_DEPGRAPH_PARTITIONING_PLAN_H_
#define STREAMASP_DEPGRAPH_PARTITIONING_PLAN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "asp/atom.h"
#include "asp/symbol_table.h"

namespace streamasp {

/// The output of the decomposing process (paper §II-B): a mapping from
/// each input predicate to the communities whose partitions must receive
/// its ground atoms. A predicate mapped to more than one community is a
/// *duplicated* predicate — its window instances are copied into several
/// partitions, which is the latency overhead Figure 9 measures.
///
/// A plan may additionally split communities into hash buckets (see
/// SplitIntoBuckets in depgraph/atom_level.h): each community has a bucket
/// count, and each predicate either a key argument position — an item
/// goes to the bucket its key argument hashes to — or kReplicated, in
/// which case it is copied to every bucket of each of its communities.
/// A fresh plan has one bucket per community.
class PartitioningPlan {
 public:
  /// KeyPositionOf's answer for predicates that are not keyed.
  static constexpr int kReplicated = -1;

  PartitioningPlan() = default;

  /// Creates a plan with `num_communities` empty communities, one bucket
  /// each.
  explicit PartitioningPlan(int num_communities)
      : num_communities_(num_communities), buckets_(num_communities, 1) {}

  /// Assigns `predicate` to `community` (idempotent). Community ids must
  /// be in [0, num_communities).
  void Assign(const PredicateSignature& predicate, int community);

  int num_communities() const { return num_communities_; }

  /// Communities of a predicate, sorted ascending. Empty for predicates
  /// the plan does not know (callers treat those as "route to community
  /// 0", see PartitioningHandler).
  const std::vector<int>& CommunitiesOf(
      const PredicateSignature& predicate) const;

  /// All predicates assigned to more than one community, in insertion
  /// order.
  std::vector<PredicateSignature> DuplicatedPredicates() const;

  /// All predicates known to the plan, in insertion order.
  const std::vector<PredicateSignature>& predicates() const {
    return predicates_;
  }

  /// Members of one community, in insertion order.
  std::vector<PredicateSignature> MembersOf(int community) const;

  /// Buckets community `community` is split into (>= 1).
  int BucketsOf(int community) const { return buckets_[community]; }
  void SetBuckets(int community, int buckets);

  /// The argument position whose value picks a predicate's bucket, or
  /// kReplicated (the default).
  int KeyPositionOf(const PredicateSignature& predicate) const;
  void SetKeyPosition(const PredicateSignature& predicate, int position);

  /// Human-readable dump, e.g. for the dependency_explorer example. Split
  /// communities also list their bucket count and key positions.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  int num_communities_ = 0;
  std::vector<PredicateSignature> predicates_;
  std::unordered_map<PredicateSignature, std::vector<int>,
                     PredicateSignatureHash>
      communities_of_;
  std::vector<int> buckets_;  // Indexed by community.
  std::unordered_map<PredicateSignature, int, PredicateSignatureHash>
      key_position_;
  static const std::vector<int> kEmpty;
};

}  // namespace streamasp

#endif  // STREAMASP_DEPGRAPH_PARTITIONING_PLAN_H_
