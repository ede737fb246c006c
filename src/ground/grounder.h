#ifndef STREAMASP_GROUND_GROUNDER_H_
#define STREAMASP_GROUND_GROUNDER_H_

#include <cstdint>
#include <vector>

#include "asp/packed_term.h"
#include "asp/program.h"
#include "ground/ground_program.h"
#include "util/status.h"

namespace streamasp {

/// Tuning knobs for grounding.
struct GroundingOptions {
  /// Apply equivalence-preserving simplification after instantiation:
  /// definite facts are removed from positive bodies, rules with a
  /// definitely-true negative-body atom (or a definitely-true head atom)
  /// are dropped, and negative literals on underivable atoms are erased.
  /// Stable models are preserved exactly; the solver just gets a (often
  /// dramatically) smaller program. Mirrors what Clingo's grounder does.
  /// The one-shot Grounder also decides instances while grounding (see
  /// Grounder): a program whose every instance was decided is emitted as
  /// its facts and skips the simplification pass.
  bool simplify = true;

  /// Safety valve on the number of ground rule instantiations; grounding
  /// fails with kResourceExhausted beyond this. Programs with function
  /// symbols can otherwise diverge.
  size_t max_ground_rules = 50'000'000;
};

/// Counters describing one grounding run (also used by benchmarks).
/// Returned by value per call — Grounder and IncrementalGrounder keep no
/// shared mutable stats state, so concurrent Ground calls cannot race.
struct GroundingStats {
  size_t num_atoms = 0;          ///< Interned ground atoms.
  size_t num_rules = 0;          ///< Emitted ground rules after simplify.
  size_t num_rules_raw = 0;      ///< Emitted ground rules before simplify.
  size_t num_facts = 0;          ///< Rules that are definite facts.
  size_t num_constraints = 0;    ///< Ground integrity constraints.

  // --- incremental reuse counters (all zero for a batch Grounder run; see
  // ground/incremental_grounder.h) ---
  size_t rules_retained = 0;   ///< Cached ground rules carried over.
  size_t rules_retracted = 0;  ///< Cached rules dropped with expired facts.
  size_t rules_new = 0;        ///< Rules instantiated from admitted facts.
  size_t incremental_windows = 0;   ///< Calls that reused the cache.
  size_t incremental_fallbacks = 0; ///< Calls that reground from scratch.

  /// One-shot groundings whose every instance was decided, so that the
  /// output is the program's one answer set as facts (see Grounder).
  size_t decided_groundings = 0;

  /// Approximate bytes retained by the run's AtomTable (atom payloads,
  /// packed-argument mirror, intern index) — the grounding side of the
  /// pipeline's bytes-per-triple counter. Per-partition tables are
  /// disjoint, so Accumulate sums.
  size_t atom_table_bytes = 0;

  /// Field-wise accumulation (max-free: every counter is additive), used
  /// when aggregating per-partition stats into a per-window total.
  void Accumulate(const GroundingStats& other) {
    num_atoms += other.num_atoms;
    num_rules += other.num_rules;
    num_rules_raw += other.num_rules_raw;
    num_facts += other.num_facts;
    num_constraints += other.num_constraints;
    rules_retained += other.rules_retained;
    rules_retracted += other.rules_retracted;
    rules_new += other.rules_new;
    incremental_windows += other.incremental_windows;
    incremental_fallbacks += other.incremental_fallbacks;
    decided_groundings += other.decided_groundings;
    atom_table_bytes += other.atom_table_bytes;
  }
};

/// Bottom-up instantiator: turns a (safe) non-ground program plus input
/// facts into an equivalent GroundProgram.
///
/// Ground is the one-shot client of the instantiation core shared with
/// IncrementalGrounder (ground/instantiate.h), which follows
/// Calimeri/Perri/Ricca's dependency-driven scheme (the same family
/// Clingo and DLV use):
///   1. build the predicate dependency graph (body -> head; mutual edges
///      between disjunctive head predicates),
///   2. condense it into strongly connected components, topologically
///      ordered,
///   3. instantiate each component bottom-up with semi-naive evaluation,
///      so recursive rules only re-fire on newly derived atoms,
///   4. optionally simplify (see GroundingOptions::simplify).
///
/// The one-shot client retains nothing between calls: its rules go
/// straight to the returned program and it keeps no per-atom support
/// bookkeeping. Negative literals whose predicate is fully evaluated
/// (earlier component) are resolved eagerly: underivable atoms delete the
/// literal. Negation within a component (unstratified programs) is left
/// to the solver, which is what makes the pipeline complete for arbitrary
/// normal programs rather than just stratified ones.
///
/// With GroundingOptions::simplify set, the one-shot client also decides
/// what the final extensions settle. Input facts and single-head program
/// facts are *certain* (true in every answer set). A non-recursive,
/// single-head instance whose matched atoms are all certain and whose
/// negative literals all resolve away is *decided*: its head becomes
/// certain and it is emitted once, as a fact. An instance with a negative
/// literal over a final component whose atom is certain is dropped, and
/// its head is not derived. Every other instance is emitted as is and
/// leaves the output undecided. A decided output is the program's one
/// answer set as facts: the GroundProgram is marked decided, skips the
/// simplification pass, and Solver returns its facts as the model.
/// Recursive components are never decided.
class Grounder {
 public:
  explicit Grounder(GroundingOptions options = {}) : options_(options) {}

  /// Grounds `program` (whose rules may include facts). When `stats` is
  /// non-null it receives this call's counters — per-call snapshot
  /// semantics, so concurrent Ground calls on one Grounder never race.
  StatusOr<GroundProgram> Ground(const Program& program,
                                 GroundingStats* stats = nullptr) const;

  /// Grounds `program` extended with `input_facts` (the reasoner's window
  /// contents). The facts must be ground atoms.
  StatusOr<GroundProgram> Ground(const Program& program,
                                 const std::vector<Atom>& input_facts,
                                 GroundingStats* stats = nullptr) const;

  /// As above for packed input facts (the reasoner's cold path): each is
  /// interned from its words. Builds the same program as the Atom
  /// overload on the same facts.
  StatusOr<GroundProgram> Ground(const Program& program,
                                 const std::vector<PackedFact>& input_facts,
                                 GroundingStats* stats = nullptr) const;

 private:
  GroundingOptions options_;
};

}  // namespace streamasp

#endif  // STREAMASP_GROUND_GROUNDER_H_
