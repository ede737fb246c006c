#ifndef STREAMASP_STREAMRULE_PARTITIONING_HANDLER_H_
#define STREAMASP_STREAMRULE_PARTITIONING_HANDLER_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "asp/atom.h"
#include "depgraph/partitioning_plan.h"
#include "stream/triple.h"

namespace streamasp {

/// Algorithm 1 of the paper: splits an input window into sub-windows
/// following the partitioning plan computed at design time.
///
///   1. group(W) classifies the window's items by predicate;
///   2. each group is routed to every community its predicate maps to
///      (duplicated predicates are copied into several partitions);
///   3. the sub-windows are returned in community order.
///
/// Sharding is a second split level: with num_shards = N > 1 each
/// community is further split into N subject buckets, giving
/// max(communities, 1) × N partitions, where index c·N + b is community
/// c, bucket b. An item goes to bucket SubjectShardKey(item) % N of its
/// community; an item of a duplicated predicate (one the plan maps to
/// several communities) is copied to every bucket of each of its
/// communities, so joins against it never cross a bucket boundary.
/// Answers are bucket-count-invariant when the subject key respects the
/// joins among non-duplicated predicates (it does for subject-local
/// programs such as the paper's P and P′). N ≤ 1 is the plain
/// per-predicate-group routing above, with no per-item key computation.
///
/// Items whose predicate the plan does not know (e.g. the stream query's
/// filter let something unexpected through) are routed to community 0 (its
/// subject bucket) so no data is silently lost; the count of such strays
/// is reported.
class PartitioningHandler {
 public:
  /// The plan is copied; handlers are immutable afterwards and safe to
  /// share across threads. `num_shards` 0 and 1 both mean no buckets.
  explicit PartitioningHandler(PartitioningPlan plan, size_t num_shards = 1);

  /// Partitions a triple window into num_partitions() entries; entries
  /// may be empty. The routing is per item and pure, so partitioning a
  /// sliding window's expired/admitted delta yields exactly each
  /// partition's sub-stream delta. `count_strays` controls whether
  /// fallback-routed items bump the stray_items() diagnostic — callers
  /// re-partitioning auxiliary views of a window (e.g. its
  /// expired/admitted delta) pass false so each item is counted once.
  std::vector<std::vector<Triple>> Partition(
      const std::vector<Triple>& window, bool count_strays = true) const;

  /// Community-only routing for windows already converted to ASP facts:
  /// max(communities, 1) entries, never split into buckets, because an
  /// atom carries no triple subject to key on.
  std::vector<std::vector<Atom>> PartitionFacts(
      const std::vector<Atom>& window) const;

  const PartitioningPlan& plan() const { return plan_; }

  /// Buckets per community (>= 1).
  size_t num_shards() const { return num_shards_; }

  /// Entries Partition returns: max(communities, 1) × num_shards().
  size_t num_partitions() const { return num_partitions_; }

  /// Items routed to the fallback community because their predicate was
  /// not in the plan (cumulative across calls; informational only).
  uint64_t stray_items() const {
    return stray_items_.load(std::memory_order_relaxed);
  }

 private:
  PartitioningPlan plan_;
  size_t num_shards_;
  size_t num_partitions_;
  mutable std::atomic<uint64_t> stray_items_{0};
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_PARTITIONING_HANDLER_H_
