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

/// The one body of every Ground overload, over input facts of either
/// form (Atom or PackedFact).
template <typename Fact>
StatusOr<GroundProgram> GroundFacts(const Program& program,
                                    const std::vector<Fact>& input_facts,
                                    const GroundingOptions& options,
                                    GroundingStats* stats) {
  GroundProgram ground;
  std::vector<GroundRule>& rules = ground.mutable_rules();
  // Every input fact is an atom and a fact rule: size both tables for the
  // window up front, so the first pass of interning never regrows them.
  ground.mutable_atoms().Reserve(input_facts.size());
  rules.reserve(input_facts.size());
  ground_internal::InstantiationCore core(&program, &ground.mutable_atoms());
  OneShotClient client(options.max_ground_rules, &rules);
  STREAMASP_RETURN_IF_ERROR(core.Prepare());
  // Deciding instances is simplification done while grounding.
  if (options.simplify) core.DecideInstances();
  STREAMASP_RETURN_IF_ERROR(core.SeedProgramFacts(client));
  for (const Fact& fact : input_facts) {
    STREAMASP_RETURN_IF_ERROR(core.SeedInputFact(fact, client));
  }
  // A fresh core's admission windows all start at 0, so this one
  // evaluation is the whole bottom-up instantiation.
  STREAMASP_RETURN_IF_ERROR(core.Evaluate(/*full=*/true, client));

  // A decided output is already its simplest form: one fact per atom.
  const bool decided = core.decided();
  ground.set_decided(decided);
  GroundingStats local;
  ground_internal::FinishOutput(options.simplify && !decided,
                                ground.num_atoms(), core.derivable(), &rules,
                                &local);
  local.decided_groundings = decided ? 1 : 0;
  local.atom_table_bytes = ground.atoms().ApproxBytes();
  if (stats != nullptr) *stats = local;
  return ground;
}

}  // namespace

StatusOr<GroundProgram> Grounder::Ground(const Program& program,
                                         GroundingStats* stats) const {
  return GroundFacts(program, std::vector<Atom>(), options_, stats);
}

StatusOr<GroundProgram> Grounder::Ground(const Program& program,
                                         const std::vector<Atom>& input_facts,
                                         GroundingStats* stats) const {
  return GroundFacts(program, input_facts, options_, stats);
}

StatusOr<GroundProgram> Grounder::Ground(
    const Program& program, const std::vector<PackedFact>& input_facts,
    GroundingStats* stats) const {
  return GroundFacts(program, input_facts, options_, stats);
}

}  // namespace streamasp
