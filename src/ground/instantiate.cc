#include "ground/instantiate.h"

#include <algorithm>
#include <cassert>

#include "graph/components.h"
#include "graph/graph.h"

namespace streamasp {
namespace ground_internal {

namespace {

/// The packed word of every ground, defined argument of `pattern` (none
/// for the arguments SubstitutePacked must resolve per instance).
std::vector<PackedTerm> GroundWords(const Atom& pattern) {
  std::vector<PackedTerm> words(pattern.arity());
  for (uint32_t i = 0; i < pattern.arity(); ++i) {
    const Term& arg = pattern.args()[i];
    if (arg.IsGround() && !ContainsUnfoldedArithmetic(arg)) {
      words[i] = PackedTerm(arg);
    }
  }
  return words;
}

/// Fills the precomputed per-pattern ground words of a compiled rule.
void PrecomputeGroundWords(CompiledRule* rule) {
  rule->head_words.clear();
  for (const Atom& head : rule->heads) {
    rule->head_words.push_back(GroundWords(head));
  }
  rule->negative_words.clear();
  for (const Atom& negative : rule->negatives) {
    rule->negative_words.push_back(GroundWords(negative));
  }
}

}  // namespace

bool MatchTerm(const Term& pattern, const Term& ground, Binding* binding) {
  switch (pattern.kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
      return pattern == ground;
    case TermKind::kArithmetic: {
      // Matching cannot invert arithmetic: the expression must already be
      // fully bound, in which case it folds to an integer and compares.
      const Term folded = SubstituteTerm(pattern, *binding);
      return folded.is_integer() && folded == ground;
    }
    case TermKind::kVariable: {
      if (const Term* bound = binding->Get(pattern.symbol())) {
        return *bound == ground;
      }
      binding->Push(pattern.symbol(), ground);
      return true;
    }
    case TermKind::kFunction: {
      if (!ground.is_function() || ground.symbol() != pattern.symbol() ||
          ground.args().size() != pattern.args().size()) {
        return false;
      }
      for (size_t i = 0; i < pattern.args().size(); ++i) {
        if (!MatchTerm(pattern.args()[i], ground.args()[i], binding)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool MatchPackedTerm(const Term& pattern, PackedTerm ground,
                     Binding* binding) {
  switch (pattern.kind()) {
    case TermKind::kInteger:
      // Inline packing of the pattern constant, then one word compare
      // (out-of-range integers escape to the same canonical arena id the
      // ground word would carry, so equality still holds word-wise).
      return PackedTerm::Integer(pattern.integer_value()) == ground;
    case TermKind::kSymbol:
      return PackedTerm::Symbol(pattern.symbol()) == ground;
    case TermKind::kVariable: {
      const PackedTerm bound = binding->GetPacked(pattern.symbol());
      if (bound.has_value()) return bound == ground;
      binding->Push(pattern.symbol(), ground);
      return true;
    }
    case TermKind::kArithmetic: {
      const Term folded = SubstituteTerm(pattern, *binding);
      return folded.is_integer() && PackedTerm(folded) == ground;
    }
    case TermKind::kFunction: {
      // Compound pattern: only a compound ground value can match; unpack
      // it once and fall back to the recursive matcher.
      if (!ground.is_escape()) return false;
      const Term ground_term =
          PackedTermArena::Global().TermOf(ground.escape_id());
      return MatchTerm(pattern, ground_term, binding);
    }
  }
  return false;
}

Term SubstituteTerm(const Term& term, const Binding& binding) {
  switch (term.kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
      return term;
    case TermKind::kVariable: {
      const Term* bound = binding.Get(term.symbol());
      return bound != nullptr ? *bound : term;
    }
    case TermKind::kFunction: {
      std::vector<Term> args;
      args.reserve(term.args().size());
      for (const Term& arg : term.args()) {
        args.push_back(SubstituteTerm(arg, binding));
      }
      return Term::Function(term.symbol(), std::move(args));
    }
    case TermKind::kArithmetic:
      // Term::Arithmetic constant-folds once both operands are ground
      // integers; otherwise the (partially substituted) expression
      // remains, signalling an undefined or still-open computation.
      return Term::Arithmetic(term.arith_op(),
                              SubstituteTerm(term.args()[0], binding),
                              SubstituteTerm(term.args()[1], binding));
  }
  return term;
}

bool ContainsUnfoldedArithmetic(const Term& term) {
  if (term.is_arithmetic()) return true;
  if (term.is_function()) {
    for (const Term& arg : term.args()) {
      if (ContainsUnfoldedArithmetic(arg)) return true;
    }
  }
  return false;
}

bool SubstitutePacked(const Atom& pattern,
                      const std::vector<PackedTerm>& ground_words,
                      const Binding& binding, PackedTerm* out) {
  for (uint32_t i = 0; i < pattern.arity(); ++i) {
    if (ground_words[i].has_value()) {
      out[i] = ground_words[i];  // Ground constant: precomputed word.
      continue;
    }
    const Term& arg = pattern.args()[i];
    if (arg.is_variable()) {
      // Safety guarantees head/negative variables are bound by the
      // positive body, so the lookup hits; an unbound variable (only
      // possible on unsafe input the engines reject earlier) stays put.
      const PackedTerm bound = binding.GetPacked(arg.symbol());
      assert(bound.has_value() && "safety guarantees bound instances");
      if (!bound.has_value()) {
        out[i] = PackedTerm::Variable(arg.symbol());
      } else if (bound.is_escape() &&
                 ContainsUnfoldedArithmetic(bound.ToTerm())) {
        return false;  // Bound to an undefined expression (a raw fact's).
      } else {
        out[i] = bound;
      }
      continue;
    }
    // Compound or undefined arithmetic argument: substitute as a Term.
    const Term substituted = SubstituteTerm(arg, binding);
    if (ContainsUnfoldedArithmetic(substituted)) return false;
    out[i] = PackedTerm(substituted);
  }
  return true;
}

bool ResolveComparisons(const CompiledRule& rule, Binding* binding,
                        std::vector<bool>* comparison_done,
                        std::vector<size_t>* newly_done) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t c = 0; c < rule.comparisons.size(); ++c) {
      if ((*comparison_done)[c]) continue;
      const Literal& cmp = rule.comparisons[c];
      const Term lhs = SubstituteTerm(cmp.lhs(), *binding);
      const Term rhs = SubstituteTerm(cmp.rhs(), *binding);
      if (lhs.IsGround() && rhs.IsGround()) {
        // SubstituteTerm already folded foldable arithmetic; what remains
        // is undefined (symbolic operand, division by zero) => false.
        if (ContainsUnfoldedArithmetic(lhs) ||
            ContainsUnfoldedArithmetic(rhs)) {
          return false;
        }
        if (!EvaluateComparison(cmp.op(), lhs, rhs)) return false;
        (*comparison_done)[c] = true;
        newly_done->push_back(c);
        progress = true;
        continue;
      }
      if (cmp.op() != ComparisonOp::kEqual) continue;
      // Assignment form: a bare unbound variable against a ground value.
      const bool lhs_assignable = lhs.is_variable() && rhs.IsGround() &&
                                  !ContainsUnfoldedArithmetic(rhs);
      const bool rhs_assignable = rhs.is_variable() && lhs.IsGround() &&
                                  !ContainsUnfoldedArithmetic(lhs);
      if (lhs_assignable || rhs_assignable) {
        const Term& variable = lhs_assignable ? lhs : rhs;
        const Term& value = lhs_assignable ? rhs : lhs;
        binding->Push(variable.symbol(), value);
        (*comparison_done)[c] = true;
        newly_done->push_back(c);
        progress = true;
      }
    }
  }
  return true;
}

void SimplifyGroundRules(size_t num_atoms, const std::vector<bool>& derivable,
                         std::vector<GroundRule>* rules_io) {
  constexpr uint32_t kNotFact = static_cast<uint32_t>(-1);
  std::vector<GroundRule>& rules = *rules_io;
  // Per atom: the fact rule that made it definitely true, or kNotFact.
  std::vector<uint32_t> fact_rule(num_atoms, kNotFact);
  auto definitely_true = [&](GroundAtomId id) {
    return fact_rule[id] != kNotFact;
  };
  std::vector<bool> removed(rules.size(), false);

  // Pass 0: erase negative literals over atoms that no rule can derive —
  // `not a` with underivable `a` always holds.
  for (GroundRule& rule : rules) {
    auto& neg = rule.negative_body;
    neg.erase(std::remove_if(neg.begin(), neg.end(),
                             [&](GroundAtomId id) {
                               return id >= derivable.size() || !derivable[id];
                             }),
              neg.end());
  }

  // Fixpoint: propagate definite facts through positive bodies.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t r = 0; r < rules.size(); ++r) {
      if (removed[r]) continue;
      GroundRule& rule = rules[r];

      // A definitely-true head atom satisfies the rule outright.
      bool satisfied = false;
      for (GroundAtomId h : rule.head) {
        if (definitely_true(h)) {
          satisfied = true;
          break;
        }
      }
      // So does a definitely-true negative-body atom falsifying the body.
      if (!satisfied) {
        for (GroundAtomId n : rule.negative_body) {
          if (definitely_true(n)) {
            satisfied = true;
            break;
          }
        }
      }
      if (satisfied) {
        removed[r] = true;
        changed = true;
        continue;
      }

      auto& pos = rule.positive_body;
      const size_t before = pos.size();
      pos.erase(std::remove_if(pos.begin(), pos.end(), definitely_true),
                pos.end());
      if (pos.size() != before) changed = true;

      if (rule.is_fact() && !definitely_true(rule.head.front())) {
        fact_rule[rule.head.front()] = static_cast<uint32_t>(r);
        removed[r] = true;  // Moved to the fact block, below.
        changed = true;
      }
    }
  }

  // The facts lead, one per definitely-true atom in atom order (each is
  // the rule that established it, now exactly {a.}), then the surviving
  // rules in their original order.
  std::vector<GroundRule> output;
  output.reserve(rules.size());
  for (GroundAtomId a = 0; a < num_atoms; ++a) {
    if (definitely_true(a)) output.push_back(std::move(rules[fact_rule[a]]));
  }
  for (size_t r = 0; r < rules.size(); ++r) {
    if (!removed[r]) output.push_back(std::move(rules[r]));
  }
  rules = std::move(output);
}

void FinishOutput(bool simplify, size_t num_atoms,
                  const std::vector<bool>& derivable,
                  std::vector<GroundRule>* rules, GroundingStats* stats) {
  stats->num_rules_raw = rules->size();
  if (simplify) SimplifyGroundRules(num_atoms, derivable, rules);
  stats->num_rules = rules->size();
  stats->num_atoms = num_atoms;
  for (const GroundRule& rule : *rules) {
    if (rule.is_fact()) ++stats->num_facts;
    if (rule.is_constraint()) ++stats->num_constraints;
  }
}

Status CheckRuleLimit(size_t emitted, size_t max_ground_rules) {
  if (emitted < max_ground_rules) return OkStatus();
  return ResourceExhaustedError(
      "ground rule limit exceeded (" + std::to_string(max_ground_rules) +
      "); the program may not be finitely groundable");
}

int InstantiationCore::PredIndex(const PredicateSignature& sig) {
  auto it = pred_index_.find(sig);
  if (it != pred_index_.end()) return it->second;
  const int index = static_cast<int>(pred_signatures_.size());
  pred_index_.emplace(sig, index);
  pred_signatures_.push_back(sig);
  if (prepared_) pred_component_.push_back(-1);
  extensions_.resize(pred_signatures_.size());
  return index;
}

int InstantiationCore::FactPredIndex(SymbolId predicate, uint32_t arity) {
  const PredicateSignature sig{predicate, arity};
  for (const auto& [seen, index] : fact_preds_) {
    if (seen == sig) return index;
  }
  const int index = PredIndex(sig);
  if (fact_preds_.size() < kFactPredicates) {
    fact_preds_.emplace_back(sig, index);
  }
  return index;
}

Status InstantiationCore::Prepare() {
  STREAMASP_RETURN_IF_ERROR(program_->Validate());

  // Register every predicate so indexes are stable.
  for (const Rule& rule : program_->rules()) {
    for (const Atom& a : rule.head()) PredIndex(a.signature());
    for (const Literal& l : rule.body()) {
      if (l.is_atom()) PredIndex(l.atom().signature());
    }
  }

  Digraph dependencies(static_cast<NodeId>(pred_signatures_.size()));
  for (const Rule& rule : program_->rules()) {
    for (const Atom& head : rule.head()) {
      const int head_pred = PredIndex(head.signature());
      for (const Literal& l : rule.body()) {
        if (!l.is_atom()) continue;
        dependencies.AddEdge(
            static_cast<NodeId>(PredIndex(l.atom().signature())),
            static_cast<NodeId>(head_pred));
      }
    }
    // Disjunctive head predicates must be instantiated together: a rule
    // deriving one of them can retroactively feed rules over another.
    for (size_t i = 0; i + 1 < rule.head().size(); ++i) {
      for (size_t j = i + 1; j < rule.head().size(); ++j) {
        const NodeId a =
            static_cast<NodeId>(PredIndex(rule.head()[i].signature()));
        const NodeId b =
            static_cast<NodeId>(PredIndex(rule.head()[j].signature()));
        dependencies.AddEdge(a, b);
        dependencies.AddEdge(b, a);
      }
    }
  }
  const ComponentAssignment components =
      StronglyConnectedComponents(dependencies);
  num_components_ = components.num_components;
  pred_component_ = components.component_of;
  component_preds_.assign(num_components_ + 1, {});
  for (size_t p = 0; p < pred_component_.size(); ++p) {
    component_preds_[pred_component_[p]].push_back(static_cast<int>(p));
  }

  component_rules_.assign(num_components_ + 1, {});
  compiled_.reserve(program_->rules().size());
  uint32_t max_arity = 0;
  for (const Rule& rule : program_->rules()) {
    if (rule.body().empty()) continue;  // Facts are seeded separately.
    CompiledRule cr;
    for (const Atom& head : rule.head()) {
      cr.heads.push_back(head);
      cr.head_preds.push_back(PredIndex(head.signature()));
    }
    for (const Literal& l : rule.body()) {
      switch (l.kind()) {
        case Literal::Kind::kPositiveAtom:
          cr.positive.push_back(l.atom());
          cr.positive_preds.push_back(PredIndex(l.atom().signature()));
          break;
        case Literal::Kind::kNegativeAtom:
          cr.negatives.push_back(l.atom());
          cr.negative_preds.push_back(PredIndex(l.atom().signature()));
          break;
        case Literal::Kind::kComparison:
          cr.comparisons.push_back(l);
          break;
      }
    }
    PrecomputeGroundWords(&cr);
    for (const Atom& atom : cr.heads) {
      max_arity = std::max(max_arity, atom.arity());
    }
    for (const Atom& atom : cr.negatives) {
      max_arity = std::max(max_arity, atom.arity());
    }
    if (cr.heads.empty()) {
      // Constraints run in the last pseudo-component, over final
      // extensions.
      cr.component = num_components_;
    } else {
      // All head predicates share a component (mutual edges); schedule
      // the rule there.
      cr.component = pred_component_[cr.head_preds.front()];
      for (size_t i = 0; i < cr.positive.size(); ++i) {
        if (pred_component_[cr.positive_preds[i]] == cr.component) {
          cr.recursive = true;
          cr.same_component_positions.push_back(i);
        }
      }
    }
    compiled_.push_back(std::move(cr));
  }
  instance_args_.assign(max_arity, PackedTerm());
  // Pointers into compiled_ are stable from here on.
  for (CompiledRule& cr : compiled_) {
    component_rules_[cr.component].push_back(&cr);
  }
  prepared_ = true;
  return OkStatus();
}

void InstantiationCore::Reset() {
  derivable_.clear();
  certain_.clear();
  undecided_ = false;
  extensions_.assign(pred_signatures_.size(), PredicateExtension{});
}

std::pair<size_t, size_t> InstantiationCore::LiteralRange(
    const CompiledRule& rule, size_t position, int component,
    size_t delta_position, bool round1) const {
  const int pred = rule.positive_preds[position];
  const PredicateExtension& ext = extensions_[pred];
  if (pred_component_[pred] == component) {
    // Semi-naive decomposition: literals before the delta position see
    // the old window, the delta position sees only the delta, later ones
    // see old+delta.
    if (position < delta_position) return {0, ext.delta_begin};
    if (position == delta_position) return {ext.delta_begin, ext.delta_end};
    return {0, ext.delta_end};
  }
  // External predicate (earlier component or fact-only): its delta is this
  // window's admissions, consumed in round 1 only.
  if (!round1) return {0, ext.atoms.size()};
  if (position < delta_position) return {0, ext.window_start};
  if (position == delta_position) return {ext.window_start, ext.atoms.size()};
  return {0, ext.atoms.size()};
}

}  // namespace ground_internal
}  // namespace streamasp
