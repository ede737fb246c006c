#include "depgraph/atom_level.h"

#include <set>
#include <unordered_map>
#include <vector>

namespace streamasp {

namespace {

/// Variables occurring at top level of an atom's arguments, by position.
/// Non-variable arguments yield kInvalidSymbol at their position.
std::vector<SymbolId> TopLevelVariables(const Atom& atom) {
  std::vector<SymbolId> vars(atom.args().size(), kInvalidSymbol);
  for (size_t i = 0; i < atom.args().size(); ++i) {
    if (atom.args()[i].is_variable()) {
      vars[i] = atom.args()[i].symbol();
    }
  }
  return vars;
}

/// First position of `var` among top-level arguments, or -1.
int PositionOf(const Atom& atom, SymbolId var) {
  for (size_t i = 0; i < atom.args().size(); ++i) {
    if (atom.args()[i].is_variable() && atom.args()[i].symbol() == var) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Body atoms (positive and negative) of a rule.
std::vector<const Atom*> BodyAtoms(const Rule& rule) {
  std::vector<const Atom*> atoms;
  for (const Literal& l : rule.body()) {
    if (l.is_atom()) atoms.push_back(&l.atom());
  }
  return atoms;
}

/// Variables occurring (top-level) in every body atom of the rule — the
/// anchor candidates.
std::vector<SymbolId> SharedBodyVariables(const Rule& rule) {
  const std::vector<const Atom*> atoms = BodyAtoms(rule);
  if (atoms.empty()) return {};
  std::set<SymbolId> shared;
  for (SymbolId v : TopLevelVariables(*atoms[0])) {
    if (v != kInvalidSymbol) shared.insert(v);
  }
  for (size_t i = 1; i < atoms.size() && !shared.empty(); ++i) {
    std::set<SymbolId> next;
    for (SymbolId v : TopLevelVariables(*atoms[i])) {
      if (v != kInvalidSymbol && shared.count(v)) next.insert(v);
    }
    shared = std::move(next);
  }
  return std::vector<SymbolId>(shared.begin(), shared.end());
}

}  // namespace

PartitioningPlan SplitIntoBuckets(const Program& program,
                                  PartitioningPlan plan, size_t max_buckets) {
  if (max_buckets <= 1) return plan;
  const std::vector<PredicateSignature> duplicated_list =
      plan.DuplicatedPredicates();
  const std::set<PredicateSignature> duplicated(duplicated_list.begin(),
                                                duplicated_list.end());

  // ---- Greedy proposal pass. -------------------------------------------
  // key_position holds the committed keys; a missing entry means
  // "undecided" during the passes and "replicated" afterwards.
  std::unordered_map<PredicateSignature, int, PredicateSignatureHash>
      key_position;
  auto propose = [&](const Atom& atom, SymbolId anchor) {
    const int position = PositionOf(atom, anchor);
    if (position >= 0 && !duplicated.count(atom.signature())) {
      key_position.emplace(atom.signature(), position);
    }
  };
  for (const Rule& rule : program.rules()) {
    const std::vector<SymbolId> anchors = SharedBodyVariables(rule);
    if (anchors.empty()) continue;
    for (const Atom* atom : BodyAtoms(rule)) propose(*atom, anchors.front());
    for (const Atom& head : rule.head()) propose(head, anchors.front());
  }

  // ---- Verification / demotion fixpoint. -------------------------------
  // Demoting a predicate to unkeyed only weakens constraints, so the loop
  // terminates after at most |keyed predicates| demotions.
  constexpr int kUnkeyed = PartitioningPlan::kReplicated;
  auto key_of = [&key_position](const PredicateSignature& sig) {
    auto it = key_position.find(sig);
    return it == key_position.end() ? kUnkeyed : it->second;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : program.rules()) {
      // Collect keyed body atoms and their key variables.
      std::vector<const Atom*> keyed;
      std::vector<SymbolId> key_vars;
      bool demoted_something = false;
      for (const Atom* atom : BodyAtoms(rule)) {
        const int position = key_of(atom->signature());
        if (position == kUnkeyed) continue;
        const Term& arg = atom->args()[position];
        if (!arg.is_variable()) {
          // A constant at the key position (e.g. car_speed(C, 0) keyed at
          // 1) cannot carry an anchor: demote.
          key_position.erase(atom->signature());
          demoted_something = true;
          continue;
        }
        keyed.push_back(atom);
        key_vars.push_back(arg.symbol());
      }
      if (demoted_something) changed = true;
      if (keyed.empty()) continue;  // Trivially local.
      // All keyed body atoms must share one anchor variable.
      const SymbolId anchor = key_vars.front();
      bool consistent = true;
      for (size_t i = 1; i < key_vars.size(); ++i) {
        if (key_vars[i] != anchor) {
          key_position.erase(keyed[i]->signature());
          consistent = false;
        }
      }
      if (!consistent) {
        changed = true;
        continue;
      }
      // Keyed heads must carry the anchor at their key position.
      for (const Atom& head : rule.head()) {
        const int position = key_of(head.signature());
        if (position == kUnkeyed) continue;
        const Term& arg = head.args()[position];
        if (!arg.is_variable() || arg.symbol() != anchor) {
          key_position.erase(head.signature());
          changed = true;
        }
      }
    }
  }

  // Demote keyed head predicates derived by rules without a positive
  // keyed body atom (facts included) when they feed later joins: such
  // atoms materialize wherever the rule fires, which need not be — or not
  // only be — their key bucket.
  {
    std::set<PredicateSignature> body_predicates;
    for (const Rule& rule : program.rules()) {
      for (const Atom* atom : BodyAtoms(rule)) {
        body_predicates.insert(atom->signature());
      }
    }
    bool demote_pass = true;
    while (demote_pass) {
      demote_pass = false;
      for (const Rule& rule : program.rules()) {
        bool pinned = false;
        for (const Literal& literal : rule.body()) {
          if (literal.is_positive_atom() &&
              key_of(literal.atom().signature()) != kUnkeyed) {
            pinned = true;
            break;
          }
        }
        if (pinned) continue;
        for (const Atom& head : rule.head()) {
          if (key_of(head.signature()) != kUnkeyed &&
              body_predicates.count(head.signature())) {
            key_position.erase(head.signature());
            demote_pass = true;
          }
        }
      }
    }
  }

  // ---- Availability analysis. ------------------------------------------
  // everywhere(q): every bucket of every community holds q's full
  // extension, and the same one. True for unkeyed *input* predicates (the
  // PartitioningHandler replicates them), for predicates given only by
  // program facts, and inductively for predicates whose every deriving
  // rule has an all-everywhere body, one head atom and no negated derived
  // atom: a disjunctive head or negation through derived atoms could let
  // each bucket pick a different answer set, and the combining handler's
  // cross product would then mix the picks.
  std::set<PredicateSignature> input_set(
      program.input_predicates().begin(), program.input_predicates().end());
  std::unordered_map<PredicateSignature, bool, PredicateSignatureHash>
      everywhere;
  for (const PredicateSignature& sig : input_set) {
    everywhere[sig] = key_of(sig) == kUnkeyed;
  }
  // Start optimistic for derived predicates, then strike out violations
  // to a greatest fixpoint.
  for (const Rule& rule : program.rules()) {
    for (const Atom& head : rule.head()) {
      if (!input_set.count(head.signature())) {
        everywhere.emplace(head.signature(), true);
      }
    }
  }
  auto is_everywhere = [&everywhere](const PredicateSignature& sig) {
    auto it = everywhere.find(sig);
    return it != everywhere.end() && it->second;
  };
  auto keeps_everywhere = [&](const Rule& rule) {
    if (rule.head().size() > 1) return false;
    for (const Literal& literal : rule.body()) {
      if (!literal.is_atom()) continue;
      const PredicateSignature sig = literal.atom().signature();
      if (!is_everywhere(sig)) return false;
      if (literal.is_negative_atom() && !input_set.count(sig)) return false;
    }
    return true;
  };
  bool availability_changed = true;
  while (availability_changed) {
    availability_changed = false;
    for (const Rule& rule : program.rules()) {
      if (keeps_everywhere(rule)) continue;
      // Input predicates too: one that rules also derive is held in full
      // only where those rules fire.
      for (const Atom& head : rule.head()) {
        auto it = everywhere.find(head.signature());
        if (it != everywhere.end() && it->second) {
          it->second = false;
          availability_changed = true;
        }
      }
    }
  }

  // ---- Locality check per rule; disable covering communities. ----------
  // feeders(q) = input predicates EP2-reaching q (inputs feed themselves).
  std::unordered_map<PredicateSignature, std::set<PredicateSignature>,
                     PredicateSignatureHash>
      feeders;
  for (const PredicateSignature& sig : input_set) feeders[sig].insert(sig);
  bool feeders_changed = true;
  while (feeders_changed) {
    feeders_changed = false;
    for (const Rule& rule : program.rules()) {
      std::set<PredicateSignature> body_feeders;
      for (const Atom* atom : BodyAtoms(rule)) {
        const auto it = feeders.find(atom->signature());
        if (it != feeders.end()) {
          body_feeders.insert(it->second.begin(), it->second.end());
        }
      }
      if (body_feeders.empty()) continue;
      for (const Atom& head : rule.head()) {
        std::set<PredicateSignature>& sink = feeders[head.signature()];
        const size_t before = sink.size();
        sink.insert(body_feeders.begin(), body_feeders.end());
        if (sink.size() != before) feeders_changed = true;
      }
    }
  }

  const int num_communities = plan.num_communities();
  std::vector<bool> enabled(num_communities, true);

  // An unkeyed input predicate the plan does not duplicate would have to
  // be copied into every bucket of its community, so splitting that
  // community only adds copies: keep it whole. (Duplicated predicates
  // are copied regardless, so they keep nothing whole.)
  for (const PredicateSignature& sig : plan.predicates()) {
    if (key_of(sig) != kUnkeyed || duplicated.count(sig)) continue;
    for (int c : plan.CommunitiesOf(sig)) enabled[c] = false;
  }

  // A rule fires in every bucket that holds its positive atoms. Keyed
  // positive atoms pin it to their anchor's bucket, which also holds every
  // atom keyed by that anchor, and atoms available everywhere are right in
  // any bucket. Any other atom is *floating*: it may be held in part. A
  // rule cannot be localized when it joins a floating atom with a keyed
  // one or with another floating atom, or when it negates an atom that is
  // floating or — with no positive keyed atom to pin the rule — keyed:
  // in the buckets that lack that atom, `not` would wrongly hold. The
  // communities responsible for covering such a rule must not be split.
  std::vector<std::set<PredicateSignature>> community_members(
      num_communities);
  for (const PredicateSignature& sig : plan.predicates()) {
    for (int c : plan.CommunitiesOf(sig)) {
      community_members[c].insert(sig);
    }
  }
  for (const Rule& rule : program.rules()) {
    size_t positive_keyed = 0;
    size_t positive_floating = 0;
    size_t negative_keyed = 0;
    size_t negative_floating = 0;
    for (const Literal& literal : rule.body()) {
      if (!literal.is_atom()) continue;
      const PredicateSignature sig = literal.atom().signature();
      const bool keyed = key_of(sig) != kUnkeyed;
      const bool floating = !keyed && !is_everywhere(sig);
      if (literal.is_positive_atom()) {
        positive_keyed += keyed;
        positive_floating += floating;
      } else {
        negative_keyed += keyed;
        negative_floating += floating;
      }
    }
    const bool locality_safe =
        negative_floating == 0 &&
        (positive_keyed > 0
             ? positive_floating == 0
             : positive_floating <= 1 && negative_keyed == 0);
    if (locality_safe) continue;
    for (int c = 0; c < num_communities; ++c) {
      bool covers = true;
      for (const Atom* atom : BodyAtoms(rule)) {
        const auto it = feeders.find(atom->signature());
        if (it == feeders.end()) continue;  // Fact-fed: everywhere.
        for (const PredicateSignature& feeder : it->second) {
          if (!community_members[c].count(feeder)) {
            covers = false;
            break;
          }
        }
        if (!covers) break;
      }
      if (covers) enabled[c] = false;
    }
  }
  for (int c = 0; c < num_communities; ++c) {
    if (enabled[c]) plan.SetBuckets(c, static_cast<int>(max_buckets));
  }
  for (const auto& [sig, position] : key_position) {
    plan.SetKeyPosition(sig, position);
  }
  return plan;
}

}  // namespace streamasp
