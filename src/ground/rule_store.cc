#include "ground/rule_store.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace streamasp {

template <typename Lists, typename F>
void RuleStore::ForEachEntry(Lists& lists, const GroundRule& rule, F f) {
  uint32_t k = 0;
  for (GroundAtomId a : rule.positive_body) f(lists[a].positive, k++);
  for (GroundAtomId a : rule.negative_body) f(lists[a].negative, k++);
  for (GroundAtomId a : rule.head) f(lists[a].heads, k++);
}

void RuleStore::Count(const GroundRule& rule, bool add) {
  auto step = [add](size_t* counter) { add ? ++*counter : --*counter; };
  if (rule.head.empty()) step(&constraint_rules_);
  if (rule.head.size() > 1) step(&disjunctive_rules_);
  if (!rule.negative_body.empty()) step(&negative_body_rules_);
}

void RuleStore::Clear() {
  rules_.clear();
  back_.clear();
  alive_.clear();
  lists_.clear();
  dead_.clear();
  constraint_rules_ = 0;
  negative_body_rules_ = 0;
  disjunctive_rules_ = 0;
}

void RuleStore::EnsureAtoms(size_t num_atoms) {
  if (num_atoms > lists_.size()) lists_.resize(num_atoms);
}

void RuleStore::Hook(uint32_t slot) {
  const GroundRule& rule = rules_[slot];
  IdList& back = back_[slot];
  back.clear();
  back.reserve(rule.positive_body.size() + rule.negative_body.size() +
               rule.head.size());
  ForEachEntry(lists_, rule, [&](std::vector<uint32_t>& list, uint32_t) {
    back.push_back(static_cast<uint32_t>(list.size()));
    list.push_back(slot);
  });
  Count(rule, /*add=*/true);
}

void RuleStore::Build(std::vector<GroundRule> rules, size_t num_atoms) {
  Clear();
  EnsureAtoms(num_atoms);
  rules_ = std::move(rules);
  std::vector<uint32_t> pos_degree(num_atoms, 0);
  std::vector<uint32_t> neg_degree(num_atoms, 0);
  std::vector<uint32_t> head_degree(num_atoms, 0);
  for (const GroundRule& rule : rules_) {
    for (GroundAtomId a : rule.positive_body) ++pos_degree[a];
    for (GroundAtomId a : rule.negative_body) ++neg_degree[a];
    for (GroundAtomId a : rule.head) ++head_degree[a];
  }
  for (GroundAtomId a = 0; a < num_atoms; ++a) {
    lists_[a].positive.reserve(pos_degree[a]);
    lists_[a].negative.reserve(neg_degree[a]);
    lists_[a].heads.reserve(head_degree[a]);
  }
  back_.resize(rules_.size());
  alive_.assign(rules_.size(), 1);
  for (uint32_t slot = 0; slot < rules_.size(); ++slot) Hook(slot);
}

void RuleStore::Add(GroundRule rule) {
  const uint32_t slot = static_cast<uint32_t>(rules_.size());
  rules_.push_back(std::move(rule));
  back_.emplace_back();
  alive_.push_back(1);
  Hook(slot);
}

void RuleStore::Kill(uint32_t slot) {
  assert(alive_[slot]);
  alive_[slot] = 0;
  dead_.push_back(slot);
  const GroundRule& rule = rules_[slot];
  Count(rule, /*add=*/false);
  uint32_t k = 0;
  for (GroundAtomId a : rule.positive_body) {
    Unlink(&lists_[a].positive, back_[slot][k++], a, kPositive);
  }
  for (GroundAtomId a : rule.negative_body) {
    Unlink(&lists_[a].negative, back_[slot][k++], a, kNegative);
  }
  for (GroundAtomId a : rule.head) {
    Unlink(&lists_[a].heads, back_[slot][k++], a, kHead);
  }
}

void RuleStore::Unlink(std::vector<uint32_t>* list, uint32_t hole,
                       GroundAtomId atom, ListKind kind) {
  const uint32_t tail = static_cast<uint32_t>(list->size() - 1);
  if (hole != tail) {
    // The last entry fills the hole; its owner's back position (the one
    // for a literal on this list that pointed at the tail) follows it.
    // The owner may be the rule being killed, through a repeated literal
    // not yet unlinked.
    const uint32_t owner = (*list)[tail];
    (*list)[hole] = owner;
    const GroundRule& owner_rule = rules_[owner];
    const IdList& literals = kind == kPositive   ? owner_rule.positive_body
                             : kind == kNegative ? owner_rule.negative_body
                                                 : owner_rule.head;
    uint32_t k = kind == kPositive ? 0 : owner_rule.positive_body.size();
    if (kind == kHead) k += owner_rule.negative_body.size();
    IdList& owner_back = back_[owner];
    for (const GroundAtomId literal : literals) {
      if (literal == atom && owner_back[k] == tail) {
        owner_back[k] = hole;
        break;
      }
      ++k;
    }
  }
  list->pop_back();
}

void RuleStore::Compact(std::vector<RetractedSlot>* replay) {
  if (dead_.empty()) return;
  // Highest slot first, by a downward scan of the alive flags (cheaper
  // than sorting the kill batch): the rule pulled into each hole is then
  // always alive, so its entries are relabelled exactly once per move.
  const uint32_t lowest = *std::min_element(dead_.begin(), dead_.end());
  for (uint32_t slot = static_cast<uint32_t>(rules_.size()); slot-- > lowest;) {
    if (alive_[slot]) continue;
    const GroundRule& dead = rules_[slot];
    replay->push_back(RetractedSlot{
        slot, dead.head.empty() ? kInvalidGroundAtom : dead.head[0]});
    const uint32_t last = static_cast<uint32_t>(rules_.size() - 1);
    if (slot != last) {
      assert(alive_[last]);
      const IdList& back = back_[last];
      ForEachEntry(lists_, rules_[last],
                   [&](std::vector<uint32_t>& list, uint32_t k) {
        list[back[k]] = slot;
      });
      rules_[slot] = std::move(rules_[last]);
      back_[slot] = std::move(back_[last]);
      alive_[slot] = 1;
    }
    rules_.pop_back();
    back_.pop_back();
    alive_.pop_back();
  }
  dead_.clear();
}

Status RuleStore::CheckConsistency() const {
  if (!dead_.empty()) {
    return InternalError("rule store: killed slots await compaction");
  }
  // Lay every list out on one flat line (list a*3+kind starts at
  // check_offset_[a*3+kind]) and visit each live rule's entries through
  // their back positions: every visit must land on a distinct, in-range
  // position holding the rule's own slot, and the visits must cover the
  // line. Then each list is exactly the multiset of its rules' entries.
  check_offset_.assign(lists_.size() * 3 + 1, 0);
  for (GroundAtomId a = 0; a < lists_.size(); ++a) {
    const AtomLists& lists = lists_[a];
    const size_t base = size_t{a} * 3;
    check_offset_[base + 1] = check_offset_[base] + lists.positive.size();
    check_offset_[base + 2] = check_offset_[base + 1] + lists.negative.size();
    check_offset_[base + 3] = check_offset_[base + 2] + lists.heads.size();
  }
  check_seen_.assign(check_offset_.back(), 0);
  size_t visits = 0;
  size_t constraints = 0;
  size_t negatives = 0;
  size_t disjunctive = 0;
  for (uint32_t slot = 0; slot < rules_.size(); ++slot) {
    const GroundRule& rule = rules_[slot];
    auto fail = [slot](const char* what) {
      return InternalError("rule store slot " + std::to_string(slot) + what);
    };
    if (!alive_[slot]) return fail(" is dead");
    const IdList& back = back_[slot];
    if (back.size() != rule.positive_body.size() +
                           rule.negative_body.size() + rule.head.size()) {
      return fail(": back positions miscounted");
    }
    uint32_t k = 0;
    size_t kind = 0;
    for (const IdList* atoms :
         {&rule.positive_body, &rule.negative_body, &rule.head}) {
      for (GroundAtomId a : *atoms) {
        if (a >= lists_.size()) {
          return fail(" names an atom beyond the lists");
        }
        const size_t list = size_t{a} * 3 + kind;
        const size_t position = back[k++];
        const size_t flat = check_offset_[list] + position;
        if (flat >= check_offset_[list + 1] || check_seen_[flat] ||
            (kind == 0   ? lists_[a].positive
             : kind == 1 ? lists_[a].negative
                         : lists_[a].heads)[position] != slot) {
          return fail(": a back position misses its entry");
        }
        check_seen_[flat] = 1;
        ++visits;
      }
      ++kind;
    }
    constraints += rule.head.empty() ? 1 : 0;
    disjunctive += rule.head.size() > 1 ? 1 : 0;
    negatives += rule.negative_body.empty() ? 0 : 1;
  }
  if (visits != check_seen_.size()) {
    return InternalError("rule store: list entries owned by no rule");
  }
  if (constraints != constraint_rules_ ||
      negatives != negative_body_rules_ ||
      disjunctive != disjunctive_rules_) {
    return InternalError("rule store: rule counters out of sync");
  }
  return OkStatus();
}

}  // namespace streamasp
