#include "streamrule/partitioning_handler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

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

/// The bucket key of a key argument: splitmix64's finalizer over its deep
/// hash, so that nearby hashes (small integers, consecutive symbol ids)
/// spread across buckets instead of striding through `% buckets` in
/// lockstep.
uint64_t MixKey(size_t term_hash) {
  uint64_t x = static_cast<uint64_t>(term_hash);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

PartitioningHandler::PartitioningHandler(PartitioningPlan plan)
    : plan_(std::move(plan)), first_partition_{0} {
  const int communities = std::max(plan_.num_communities(), 1);
  for (int c = 0; c < communities; ++c) {
    first_partition_.push_back(
        first_partition_.back() +
        (c < plan_.num_communities() ? plan_.BucketsOf(c) : 1));
  }
}

template <typename Item, typename SignatureOf, typename KeyHashOf>
std::vector<std::vector<Item>> PartitioningHandler::Route(
    const std::vector<Item>& window, SignatureOf signature_of,
    KeyHashOf key_hash_of, bool count_strays) const {
  static const std::vector<int> kStrayCommunities = {0};
  std::vector<std::vector<Item>> partitions(num_partitions());
  for (const auto& [signature, indexes] : GroupWindow(window, signature_of)) {
    const std::vector<int>* communities = &plan_.CommunitiesOf(signature);
    if (communities->empty()) {
      if (count_strays) {
        stray_items_.fetch_add(indexes.size(), std::memory_order_relaxed);
      }
      communities = &kStrayCommunities;
    }
    const int key = plan_.KeyPositionOf(signature);
    for (int c : *communities) {
      const size_t first = first_partition_[c];
      const size_t buckets = first_partition_[c + 1] - first;
      if (buckets == 1 || key == PartitioningPlan::kReplicated) {
        for (size_t b = first; b < first + buckets; ++b) {
          for (size_t i : indexes) partitions[b].push_back(window[i]);
        }
        continue;
      }
      for (size_t i : indexes) {
        partitions[first + MixKey(key_hash_of(window[i], key)) % buckets]
            .push_back(window[i]);
      }
    }
  }
  return partitions;
}

std::vector<std::vector<Triple>> PartitioningHandler::Partition(
    const std::vector<Triple>& window, bool count_strays) const {
  return Route(
      window,
      [](const Triple& t) {
        return PredicateSignature{t.predicate, t.object.has_value() ? 2u : 1u};
      },
      [](const Triple& t, int key) {
        return key == 0 ? t.subject.Hash() : t.object.Hash();
      },
      count_strays);
}

std::vector<std::vector<Atom>> PartitioningHandler::PartitionFacts(
    const std::vector<Atom>& window) const {
  return Route(
      window, [](const Atom& a) { return a.signature(); },
      [](const Atom& a, int key) { return a.args()[key].Hash(); },
      /*count_strays=*/true);
}

}  // namespace streamasp
