#include "solve/solver.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>
#include <vector>

#include "solve/propagation_core.h"

namespace streamasp {

namespace {

enum class Val : int8_t { kUnknown = 0, kTrue = 1, kFalse = 2 };

/// Normalizes `program` for the shared propagation core: disjunctive
/// heads are shifted (a|b :- B  =>  a :- B, not b.  b :- B, not a.),
/// which is complete for head-cycle-free programs; every candidate of a
/// shifted program is later checked for minimality against the original
/// program. Sets *has_disjunction when any rule was shifted.
std::vector<GroundRule> NormalizeRules(const GroundProgram& program,
                                       bool* has_disjunction) {
  std::vector<GroundRule> rules;
  rules.reserve(program.rules().size());
  *has_disjunction = false;
  for (const GroundRule& rule : program.rules()) {
    if (rule.head.size() <= 1) {
      rules.push_back(rule);
    } else {
      *has_disjunction = true;
      for (size_t i = 0; i < rule.head.size(); ++i) {
        GroundRule shifted;
        shifted.head.push_back(rule.head[i]);
        shifted.positive_body = rule.positive_body;
        shifted.negative_body = rule.negative_body;
        for (size_t j = 0; j < rule.head.size(); ++j) {
          if (j != i) shifted.negative_body.push_back(rule.head[j]);
        }
        rules.push_back(std::move(shifted));
      }
    }
  }
  return rules;
}

/// The cold solve's enumeration policy: no sign guidance, and candidate
/// models verify against the *original* program (shifted disjunctive
/// candidates must pass the exact minimality check; for normal programs
/// the check is optional verification per SolverOptions::verify_models).
struct ColdSolveClient {
  const GroundProgram& program;
  bool check_models;

  bool AcceptModel(const std::vector<GroundAtomId>& atoms) const {
    return !check_models || IsStableModel(program, atoms);
  }
  PropagationCore::Val FirstSign(GroundAtomId) const {
    return PropagationCore::Val::kTrue;
  }
};

/// Least model of the definite program given by `rules` (head + positive
/// body only; negative bodies must have been resolved by the caller).
/// Rules with head kNoHead are ignored. Only rules whose index satisfies
/// `enabled` participate.
std::vector<bool> LeastModel(const GroundProgram& program,
                             const std::vector<bool>& rule_enabled) {
  const size_t num_atoms = program.num_atoms();
  const auto& rules = program.rules();
  std::vector<bool> truth(num_atoms, false);
  std::vector<uint32_t> missing(rules.size(), 0);
  std::vector<std::vector<uint32_t>> pos_occ(num_atoms);
  std::deque<GroundAtomId> queue;

  for (uint32_t r = 0; r < rules.size(); ++r) {
    if (!rule_enabled[r] || rules[r].head.size() != 1) continue;
    missing[r] = static_cast<uint32_t>(rules[r].positive_body.size());
    for (GroundAtomId a : rules[r].positive_body) {
      pos_occ[a].push_back(r);
    }
    if (missing[r] == 0 && !truth[rules[r].head[0]]) {
      truth[rules[r].head[0]] = true;
      queue.push_back(rules[r].head[0]);
    }
  }
  while (!queue.empty()) {
    const GroundAtomId a = queue.front();
    queue.pop_front();
    for (uint32_t r : pos_occ[a]) {
      if (--missing[r] == 0) {
        const GroundAtomId h = rules[r].head[0];
        if (!truth[h]) {
          truth[h] = true;
          queue.push_back(h);
        }
      }
    }
  }
  return truth;
}

/// Searches for a model M' of the (disjunctive, definite) reduct that is a
/// proper subset of `model`. Atoms outside `model` are fixed false.
/// Exponential in |model| in the worst case; only reached for disjunctive
/// programs.
class ProperSubmodelSearch {
 public:
  ProperSubmodelSearch(const GroundProgram& program,
                       const std::vector<bool>& rule_enabled,
                       const std::vector<GroundAtomId>& model)
      : program_(program), rule_enabled_(rule_enabled), model_(model) {}

  bool Exists() {
    // Assignment over the atoms of `model` only (indexes into model_).
    assignment_.assign(model_.size(), Val::kUnknown);
    index_of_.assign(program_.num_atoms(), -1);
    for (size_t i = 0; i < model_.size(); ++i) {
      index_of_[model_[i]] = static_cast<int32_t>(i);
    }
    return Rec(0);
  }

 private:
  bool SatisfiesAllRulesIfComplete() {
    // All atoms decided; check every enabled reduct rule: positive body
    // within M' implies some head atom in M'.
    for (uint32_t r = 0; r < program_.rules().size(); ++r) {
      if (!rule_enabled_[r]) continue;
      const GroundRule& rule = program_.rules()[r];
      bool body_holds = true;
      for (GroundAtomId a : rule.positive_body) {
        const int32_t i = index_of_[a];
        if (i < 0 || assignment_[i] != Val::kTrue) {
          body_holds = false;
          break;
        }
      }
      if (!body_holds) continue;
      bool head_holds = false;
      for (GroundAtomId h : rule.head) {
        const int32_t i = index_of_[h];
        if (i >= 0 && assignment_[i] == Val::kTrue) {
          head_holds = true;
          break;
        }
      }
      if (!head_holds) return false;  // Constraint or unsatisfied head.
    }
    return true;
  }

  bool Rec(size_t next) {
    if (next == model_.size()) {
      bool proper = false;
      for (Val v : assignment_) {
        if (v == Val::kFalse) {
          proper = true;
          break;
        }
      }
      return proper && SatisfiesAllRulesIfComplete();
    }
    // Prefer false — we are hunting for a smaller model.
    assignment_[next] = Val::kFalse;
    if (Rec(next + 1)) return true;
    assignment_[next] = Val::kTrue;
    if (Rec(next + 1)) return true;
    assignment_[next] = Val::kUnknown;
    return false;
  }

  const GroundProgram& program_;
  const std::vector<bool>& rule_enabled_;
  const std::vector<GroundAtomId>& model_;
  std::vector<Val> assignment_;
  std::vector<int32_t> index_of_;
};

}  // namespace

bool AnswerSet::Contains(GroundAtomId id) const {
  return std::binary_search(atoms.begin(), atoms.end(), id);
}

bool IsStableModel(const GroundProgram& program,
                   const std::vector<GroundAtomId>& model) {
  assert(std::is_sorted(model.begin(), model.end()));
  const size_t num_atoms = program.num_atoms();
  std::vector<bool> in_model(num_atoms, false);
  for (GroundAtomId a : model) {
    if (a >= num_atoms) return false;
    in_model[a] = true;
  }

  // 1. M must satisfy every rule of the original program.
  const auto& rules = program.rules();
  std::vector<bool> rule_in_reduct(rules.size(), false);
  bool disjunctive_reduct = false;
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const GroundRule& rule = rules[r];
    bool neg_blocked = false;
    for (GroundAtomId a : rule.negative_body) {
      if (in_model[a]) {
        neg_blocked = true;
        break;
      }
    }
    bool pos_holds = true;
    for (GroundAtomId a : rule.positive_body) {
      if (!in_model[a]) {
        pos_holds = false;
        break;
      }
    }
    if (!neg_blocked) {
      rule_in_reduct[r] = true;
      if (rule.head.size() > 1) disjunctive_reduct = true;
    }
    const bool body_true = pos_holds && !neg_blocked;
    if (body_true) {
      bool head_true = false;
      for (GroundAtomId h : rule.head) {
        if (in_model[h]) {
          head_true = true;
          break;
        }
      }
      if (!head_true) return false;  // Unsatisfied rule or constraint.
    }
  }

  // 2. M must be a minimal model of the reduct.
  if (!disjunctive_reduct) {
    const std::vector<bool> least = LeastModel(program, rule_in_reduct);
    for (GroundAtomId a = 0; a < num_atoms; ++a) {
      if (least[a] != in_model[a]) return false;
    }
    return true;
  }
  ProperSubmodelSearch search(program, rule_in_reduct, model);
  return !search.Exists();
}

StatusOr<std::vector<AnswerSet>> Solver::Solve(
    const GroundProgram& program) const {
  if (program.decided()) {
    // The grounder decided every instance: the facts are the one model.
    AnswerSet model;
    model.atoms.reserve(program.rules().size());
    for (const GroundRule& rule : program.rules()) {
      if (!rule.is_fact()) {
        return InternalError("ground program marked decided has a non-fact "
                             "rule");
      }
      model.atoms.push_back(rule.head.front());
    }
    std::sort(model.atoms.begin(), model.atoms.end());
    if (options_.verify_models && !IsStableModel(program, model.atoms)) {
      return InternalError(
          "the model of a decided ground program failed the stable-model "
          "check");
    }
    std::vector<AnswerSet> models;
    models.push_back(std::move(model));
    return models;
  }

  bool has_disjunction = false;
  RuleStore store;
  store.Build(NormalizeRules(program, &has_disjunction), program.num_atoms());
  PropagationCore core;
  core.Reset(&store);

  ColdSolveClient client{program,
                         has_disjunction || options_.verify_models};
  std::vector<AnswerSet> models;
  STREAMASP_RETURN_IF_ERROR(core.Enumerate(options_, client, &models));
  return models;
}

}  // namespace streamasp
