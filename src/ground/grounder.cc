#include "ground/grounder.h"

#include <utility>
#include <vector>

#include "ground/instantiate.h"

namespace streamasp {

namespace {

/// Retention policy of the one-shot grounding: nothing outlives the call,
/// so no per-atom bookkeeping is kept, rules are appended to the output
/// under the max_ground_rules valve, and negative literals over final
/// predicates are resolved eagerly.
class OneShotClient {
 public:
  static constexpr bool kResolveFinalNegatives = true;

  OneShotClient(size_t max_ground_rules, std::vector<GroundRule>* rules)
      : max_ground_rules_(max_ground_rules), rules_(rules) {}

  void GrowAtoms(size_t) {}
  void OnDerive(GroundAtomId, int, uint32_t) {}

  Status Emit(GroundRule rule) {
    STREAMASP_RETURN_IF_ERROR(
        ground_internal::CheckRuleLimit(rules_->size(), max_ground_rules_));
    rules_->push_back(std::move(rule));
    return OkStatus();
  }

 private:
  size_t max_ground_rules_;
  std::vector<GroundRule>* rules_;
};

}  // namespace

StatusOr<GroundProgram> Grounder::Ground(const Program& program,
                                         GroundingStats* stats) const {
  return Ground(program, {}, stats);
}

StatusOr<GroundProgram> Grounder::Ground(const Program& program,
                                         const std::vector<Atom>& input_facts,
                                         GroundingStats* stats) const {
  GroundProgram ground;
  std::vector<GroundRule>& rules = ground.mutable_rules();
  // Every input fact is an atom and a fact rule: size both tables for the
  // window up front, so the first pass of interning never regrows them.
  ground.mutable_atoms().Reserve(input_facts.size());
  rules.reserve(input_facts.size());
  ground_internal::InstantiationCore core(&program, &ground.mutable_atoms());
  OneShotClient client(options_.max_ground_rules, &rules);
  STREAMASP_RETURN_IF_ERROR(core.Prepare());
  STREAMASP_RETURN_IF_ERROR(core.SeedProgramFacts(client));
  for (const Atom& fact : input_facts) {
    STREAMASP_ASSIGN_OR_RETURN(const GroundAtomId id,
                               core.AddInputFact(fact, client));
    STREAMASP_RETURN_IF_ERROR(client.Emit(GroundRule{{id}, {}, {}}));
  }
  // A fresh core's admission windows all start at 0, so this one
  // evaluation is the whole bottom-up instantiation.
  STREAMASP_RETURN_IF_ERROR(core.Evaluate(/*full=*/true, client));

  GroundingStats local;
  ground_internal::FinishOutput(options_.simplify, ground.num_atoms(),
                                core.derivable(), &rules, &local);
  local.atom_table_bytes = ground.atoms().ApproxBytes();
  if (stats != nullptr) *stats = local;
  return ground;
}

}  // namespace streamasp
