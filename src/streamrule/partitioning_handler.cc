#include "streamrule/partitioning_handler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "stream/shard_key.h"

namespace streamasp {

namespace {

/// group(W) of Algorithm 1: indexes of window items, grouped by predicate
/// signature in first-occurrence order.
template <typename Item, typename SignatureOf>
std::vector<std::pair<PredicateSignature, std::vector<size_t>>> GroupWindow(
    const std::vector<Item>& window, SignatureOf signature_of) {
  std::vector<std::pair<PredicateSignature, std::vector<size_t>>> groups;
  std::unordered_map<PredicateSignature, size_t, PredicateSignatureHash>
      group_of;
  for (size_t i = 0; i < window.size(); ++i) {
    const PredicateSignature sig = signature_of(window[i]);
    auto [it, inserted] = group_of.emplace(sig, groups.size());
    if (inserted) {
      groups.emplace_back(sig, std::vector<size_t>{});
    }
    groups[it->second].second.push_back(i);
  }
  return groups;
}

}  // namespace

PartitioningHandler::PartitioningHandler(PartitioningPlan plan,
                                         size_t num_shards)
    : plan_(std::move(plan)),
      num_shards_(std::max<size_t>(num_shards, 1)),
      num_partitions_(
          static_cast<size_t>(std::max(plan_.num_communities(), 1)) *
          num_shards_) {}

std::vector<std::vector<Triple>> PartitioningHandler::Partition(
    const std::vector<Triple>& window, bool count_strays) const {
  std::vector<std::vector<Triple>> partitions(num_partitions_);
  const auto groups = GroupWindow(window, [](const Triple& t) {
    return PredicateSignature{t.predicate,
                              t.object.has_value() ? 2u : 1u};
  });
  const size_t n = num_shards_;
  for (const auto& [signature, indexes] : groups) {
    const std::vector<int>& communities = plan_.CommunitiesOf(signature);
    if (communities.empty() && count_strays) {
      stray_items_.fetch_add(indexes.size(), std::memory_order_relaxed);
    }
    if (n == 1) {
      if (communities.empty()) {
        for (size_t i : indexes) partitions[0].push_back(window[i]);
      }
      for (int c : communities) {
        for (size_t i : indexes) partitions[c].push_back(window[i]);
      }
    } else if (communities.size() > 1) {
      // A duplicated predicate: every bucket of each of its communities.
      for (int c : communities) {
        for (size_t b = 0; b < n; ++b) {
          std::vector<Triple>& partition = partitions[c * n + b];
          for (size_t i : indexes) partition.push_back(window[i]);
        }
      }
    } else {
      // One community (strays: community 0), split by subject bucket.
      const size_t base = communities.empty() ? 0 : communities[0] * n;
      for (size_t i : indexes) {
        partitions[base + SubjectShardKey(window[i]) % n].push_back(
            window[i]);
      }
    }
  }
  return partitions;
}

std::vector<std::vector<Atom>> PartitioningHandler::PartitionFacts(
    const std::vector<Atom>& window) const {
  std::vector<std::vector<Atom>> partitions(
      std::max(plan_.num_communities(), 1));
  const auto groups =
      GroupWindow(window, [](const Atom& a) { return a.signature(); });
  for (const auto& [signature, indexes] : groups) {
    const std::vector<int>& communities = plan_.CommunitiesOf(signature);
    if (communities.empty()) {
      stray_items_.fetch_add(indexes.size(), std::memory_order_relaxed);
      for (size_t i : indexes) partitions[0].push_back(window[i]);
      continue;
    }
    for (int c : communities) {
      for (size_t i : indexes) partitions[c].push_back(window[i]);
    }
  }
  return partitions;
}

}  // namespace streamasp
