#ifndef STREAMASP_STREAM_FORMAT_H_
#define STREAMASP_STREAM_FORMAT_H_

#include <unordered_map>
#include <vector>

#include "asp/atom.h"
#include "asp/packed_term.h"
#include "stream/triple.h"
#include "util/status.h"

namespace streamasp {

/// Translates between the stream processor's RDF triples and the solver's
/// ASP ground facts (the "Data Format Processor" boxes of the StreamRule
/// architecture, Figure 1).
///
/// The paper stresses that this translation time is part of reasoner
/// latency ("performance of the reasoning subprocess should be measured by
/// not only the processing time of the solver but also the time required
/// for data transformation"); the reasoners therefore run conversion
/// inside their timed sections.
///
/// The processor needs a schema — the arity of each input predicate — to
/// know whether a triple <s, p, o> maps to p(s, o) or p(s) (object-less
/// item). Arities beyond 2 are rejected: an RDF triple cannot carry them.
class DataFormatProcessor {
 public:
  /// Declares `predicate` with the given arity (1 or 2). Re-declaring with
  /// a different arity fails.
  Status DeclarePredicate(SymbolId predicate, uint32_t arity);

  /// Declares all of a program's input predicates.
  Status DeclareInputPredicates(
      const std::vector<PredicateSignature>& signatures);

  /// Translates a window's triples, in order, to packed ground facts:
  /// predicate(subject) or predicate(subject, object) by the declared
  /// arity. Fails on an undeclared predicate or an arity mismatch
  /// (missing/superfluous object).
  StatusOr<std::vector<PackedFact>> ToPackedFacts(
      const std::vector<Triple>& items) const;

  /// Reverse direction: renders an arity-1 or arity-2 ground atom as a
  /// triple (used when streaming answers onward). Fails for other arities
  /// or non-ground atoms.
  StatusOr<Triple> ToTriple(const Atom& atom) const;

 private:
  std::unordered_map<SymbolId, uint32_t> arity_of_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAM_FORMAT_H_
