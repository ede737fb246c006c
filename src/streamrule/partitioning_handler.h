#ifndef STREAMASP_STREAMRULE_PARTITIONING_HANDLER_H_
#define STREAMASP_STREAMRULE_PARTITIONING_HANDLER_H_

#include <atomic>
#include <cstddef>
#include <vector>

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
/// Buckets are a second split level, decided by the plan (see
/// SplitIntoBuckets in depgraph/atom_level.h): community c occupies
/// plan.BucketsOf(c) consecutive partitions, in community order. Within
/// a split community an item of a keyed predicate goes to the bucket its
/// key argument hashes to, and an item of a replicated predicate is
/// copied to every bucket. An item's argument 0 is its subject and
/// argument 1 its object, as in the fact it converts to. A plan without
/// split communities is the plain per-group routing above, with no
/// per-item key computation.
///
/// Items whose predicate the plan does not know (e.g. the stream query's
/// filter let something unexpected through) are routed to community 0 —
/// by key if the plan keys their predicate, to every bucket otherwise —
/// so no data is silently lost; the count of such strays is reported.
class PartitioningHandler {
 public:
  /// The plan is copied; handlers are immutable afterwards and safe to
  /// share across threads.
  explicit PartitioningHandler(PartitioningPlan plan);

  /// Partitions a triple window into num_partitions() entries; entries
  /// may be empty. The routing is per item and pure, so partitioning a
  /// sliding window's expired/admitted delta yields exactly each
  /// partition's sub-stream delta. `count_strays` controls whether
  /// fallback-routed items bump the stray_items() diagnostic — callers
  /// re-partitioning auxiliary views of a window (e.g. its
  /// expired/admitted delta) pass false so each item is counted once.
  std::vector<std::vector<Triple>> Partition(
      const std::vector<Triple>& window, bool count_strays = true) const;

  const PartitioningPlan& plan() const { return plan_; }

  /// Entries Partition returns: the plan's summed bucket counts (one per
  /// community without a split), at least 1.
  size_t num_partitions() const { return first_partition_.back(); }

  /// Items routed to the fallback community because their predicate was
  /// not in the plan (cumulative across calls; informational only).
  uint64_t stray_items() const {
    return stray_items_.load(std::memory_order_relaxed);
  }

 private:
  PartitioningPlan plan_;
  /// Community c's partitions are [first_partition_[c],
  /// first_partition_[c + 1]); a plan without communities still has the
  /// strays' community 0, with one partition.
  std::vector<size_t> first_partition_;
  mutable std::atomic<uint64_t> stray_items_{0};
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_PARTITIONING_HANDLER_H_
