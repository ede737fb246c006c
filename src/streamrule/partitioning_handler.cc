#include "streamrule/partitioning_handler.h"

#include <algorithm>
#include <utility>

namespace streamasp {

namespace {

/// group(W) of Algorithm 1: the window's predicate signatures in
/// first-occurrence order, and each group's item indexes in window order,
/// sized once by a counting sort.
struct WindowGroups {
  std::vector<PredicateSignature> signatures;
  /// Group g's items are items[begin[g] .. begin[g + 1]).
  std::vector<uint32_t> begin;
  std::vector<uint32_t> items;
};

WindowGroups GroupWindow(const std::vector<Triple>& window) {
  // An item's group is found in a small open-addressing table of
  // signature keys, kept at most half full: the first probe almost always
  // hits, so the lookup is one predictable compare per item (a linear
  // scan of the signatures mispredicts on interleaved predicates).
  constexpr uint64_t kEmpty = ~uint64_t{0};
  const auto key_of = [](const PredicateSignature& sig) {
    return (uint64_t{sig.name} << 2) | sig.arity;
  };
  const auto slot_of = [](uint64_t key, size_t mask) {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  };
  std::vector<std::pair<uint64_t, uint32_t>> slots(16, {kEmpty, 0});
  WindowGroups groups;
  std::vector<uint32_t> group_of(window.size());
  std::vector<uint32_t> next;  // Group sizes, then fill cursors.
  for (size_t i = 0; i < window.size(); ++i) {
    const PredicateSignature sig{window[i].predicate,
                                 window[i].object.has_value() ? 2u : 1u};
    const uint64_t key = key_of(sig);
    size_t mask = slots.size() - 1;
    size_t s = slot_of(key, mask);
    while (slots[s].first != key && slots[s].first != kEmpty) {
      s = (s + 1) & mask;
    }
    if (slots[s].first == kEmpty) {
      const uint32_t g = static_cast<uint32_t>(groups.signatures.size());
      slots[s] = {key, g};
      groups.signatures.push_back(sig);
      next.push_back(0);
      if (2 * groups.signatures.size() > slots.size()) {
        slots.assign(2 * slots.size(), {kEmpty, 0});
        mask = slots.size() - 1;
        for (uint32_t k = 0; k < groups.signatures.size(); ++k) {
          const uint64_t old = key_of(groups.signatures[k]);
          size_t t = slot_of(old, mask);
          while (slots[t].first != kEmpty) t = (t + 1) & mask;
          slots[t] = {old, k};
        }
      }
      group_of[i] = g;
    } else {
      group_of[i] = slots[s].second;
    }
    ++next[group_of[i]];
  }
  groups.begin.assign(next.size() + 1, 0);
  for (size_t g = 0; g < next.size(); ++g) {
    groups.begin[g + 1] = groups.begin[g] + next[g];
    next[g] = groups.begin[g];
  }
  groups.items.resize(window.size());
  for (size_t i = 0; i < window.size(); ++i) {
    groups.items[next[group_of[i]]++] = static_cast<uint32_t>(i);
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

std::vector<std::vector<Triple>> PartitioningHandler::Partition(
    const std::vector<Triple>& window, bool count_strays) const {
  static const std::vector<int> kStrayCommunities = {0};
  const WindowGroups groups = GroupWindow(window);
  // Each group's communities and key position, looked up once.
  std::vector<std::pair<const std::vector<int>*, int>> routes;
  routes.reserve(groups.signatures.size());
  for (size_t g = 0; g < groups.signatures.size(); ++g) {
    const PredicateSignature& signature = groups.signatures[g];
    const std::vector<int>* communities = &plan_.CommunitiesOf(signature);
    if (communities->empty()) {
      if (count_strays) {
        stray_items_.fetch_add(groups.begin[g + 1] - groups.begin[g],
                               std::memory_order_relaxed);
      }
      communities = &kStrayCommunities;
    }
    routes.emplace_back(communities, plan_.KeyPositionOf(signature));
  }

  // Calls visit(partition, first, last) for every routed run of item
  // indexes, group by group in first-occurrence order and items in window
  // order. It runs twice: once to size every partition, once to fill it.
  const auto route = [&](auto&& visit) {
    for (size_t g = 0; g < routes.size(); ++g) {
      const auto [communities, key] = routes[g];
      const uint32_t* begin = groups.items.data() + groups.begin[g];
      const uint32_t* end = groups.items.data() + groups.begin[g + 1];
      for (int c : *communities) {
        const size_t first = first_partition_[c];
        const size_t buckets = first_partition_[c + 1] - first;
        if (buckets == 1 || key == PartitioningPlan::kReplicated) {
          for (size_t b = first; b < first + buckets; ++b) {
            visit(b, begin, end);
          }
          continue;
        }
        for (const uint32_t* i = begin; i != end; ++i) {
          const Triple& item = window[*i];
          const size_t hash =
              key == 0 ? item.subject.Hash() : item.object.Hash();
          visit(first + MixKey(hash) % buckets, i, i + 1);
        }
      }
    }
  };
  std::vector<size_t> sizes(num_partitions(), 0);
  route([&](size_t partition, const uint32_t* begin, const uint32_t* end) {
    sizes[partition] += end - begin;
  });
  std::vector<std::vector<Triple>> partitions(num_partitions());
  for (size_t p = 0; p < partitions.size(); ++p) {
    partitions[p].reserve(sizes[p]);
  }
  route([&](size_t partition, const uint32_t* begin, const uint32_t* end) {
    for (const uint32_t* i = begin; i != end; ++i) {
      partitions[partition].push_back(window[*i]);
    }
  });
  return partitions;
}

}  // namespace streamasp
