#include "depgraph/partitioning_plan.h"

#include <algorithm>
#include <cassert>

namespace streamasp {

const std::vector<int> PartitioningPlan::kEmpty = {};

void PartitioningPlan::Assign(const PredicateSignature& predicate,
                              int community) {
  assert(community >= 0 && community < num_communities_);
  auto it = communities_of_.find(predicate);
  if (it == communities_of_.end()) {
    predicates_.push_back(predicate);
    communities_of_.emplace(predicate, std::vector<int>{community});
    return;
  }
  std::vector<int>& communities = it->second;
  auto pos = std::lower_bound(communities.begin(), communities.end(),
                              community);
  if (pos == communities.end() || *pos != community) {
    communities.insert(pos, community);
  }
}

const std::vector<int>& PartitioningPlan::CommunitiesOf(
    const PredicateSignature& predicate) const {
  auto it = communities_of_.find(predicate);
  return it == communities_of_.end() ? kEmpty : it->second;
}

void PartitioningPlan::SetBuckets(int community, int buckets) {
  assert(community >= 0 && community < num_communities_ && buckets >= 1);
  buckets_[community] = buckets;
}

int PartitioningPlan::KeyPositionOf(const PredicateSignature& predicate) const {
  auto it = key_position_.find(predicate);
  return it == key_position_.end() ? kReplicated : it->second;
}

void PartitioningPlan::SetKeyPosition(const PredicateSignature& predicate,
                                      int position) {
  assert(position >= 0 && position < static_cast<int>(predicate.arity));
  key_position_[predicate] = position;
}

std::vector<PredicateSignature> PartitioningPlan::DuplicatedPredicates()
    const {
  std::vector<PredicateSignature> duplicated;
  for (const PredicateSignature& sig : predicates_) {
    if (CommunitiesOf(sig).size() > 1) duplicated.push_back(sig);
  }
  return duplicated;
}

std::vector<PredicateSignature> PartitioningPlan::MembersOf(
    int community) const {
  std::vector<PredicateSignature> members;
  for (const PredicateSignature& sig : predicates_) {
    const std::vector<int>& communities = CommunitiesOf(sig);
    if (std::binary_search(communities.begin(), communities.end(),
                           community)) {
      members.push_back(sig);
    }
  }
  return members;
}

std::string PartitioningPlan::ToString(const SymbolTable& symbols) const {
  std::string out =
      "partitioning plan (" + std::to_string(num_communities_) +
      " communities)\n";
  for (int c = 0; c < num_communities_; ++c) {
    const bool split = buckets_[c] > 1;
    out += "  community " + std::to_string(c);
    if (split) out += " (" + std::to_string(buckets_[c]) + " buckets)";
    out += ": {";
    bool first = true;
    for (const PredicateSignature& sig : MembersOf(c)) {
      if (!first) out += ", ";
      first = false;
      out += sig.ToString(symbols);
      if (split) {
        const int key = KeyPositionOf(sig);
        out += key == kReplicated ? "@replicated" : "@" + std::to_string(key);
      }
    }
    out += "}\n";
  }
  const std::vector<PredicateSignature> duplicated = DuplicatedPredicates();
  if (!duplicated.empty()) {
    out += "  duplicated: {";
    for (size_t i = 0; i < duplicated.size(); ++i) {
      if (i > 0) out += ", ";
      out += duplicated[i].ToString(symbols);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace streamasp
