#include "stream/format.h"

namespace streamasp {

Status DataFormatProcessor::DeclarePredicate(SymbolId predicate,
                                             uint32_t arity) {
  if (arity < 1 || arity > 2) {
    return InvalidArgumentError(
        "RDF triples carry at most a subject and an object; predicate "
        "arity must be 1 or 2, got " +
        std::to_string(arity));
  }
  auto [it, inserted] = arity_of_.emplace(predicate, arity);
  if (!inserted && it->second != arity) {
    return InvalidArgumentError(
        "predicate re-declared with different arity (" +
        std::to_string(it->second) + " vs " + std::to_string(arity) + ")");
  }
  return OkStatus();
}

Status DataFormatProcessor::DeclareInputPredicates(
    const std::vector<PredicateSignature>& signatures) {
  for (const PredicateSignature& sig : signatures) {
    STREAMASP_RETURN_IF_ERROR(DeclarePredicate(sig.name, sig.arity));
  }
  return OkStatus();
}

StatusOr<std::vector<PackedFact>> DataFormatProcessor::ToPackedFacts(
    const std::vector<Triple>& items) const {
  std::vector<PackedFact> facts;
  facts.reserve(items.size());
  for (const Triple& triple : items) {
    auto it = arity_of_.find(triple.predicate);
    if (it == arity_of_.end()) {
      return InvalidArgumentError("undeclared stream predicate id " +
                                  std::to_string(triple.predicate));
    }
    const uint32_t arity = it->second;
    if (arity == 1 && triple.object.has_value()) {
      return InvalidArgumentError("unary predicate received an object");
    }
    if (arity == 2 && !triple.object.has_value()) {
      return InvalidArgumentError("binary predicate missing an object");
    }
    facts.push_back(
        PackedFact{triple.predicate, arity, {triple.subject, triple.object}});
  }
  return facts;
}

StatusOr<Triple> DataFormatProcessor::ToTriple(const Atom& atom) const {
  if (!atom.IsGround()) {
    return InvalidArgumentError("cannot stream a non-ground atom");
  }
  if (atom.arity() == 1) {
    return Triple{atom.args()[0], atom.predicate(), std::nullopt};
  }
  if (atom.arity() == 2) {
    return Triple{atom.args()[0], atom.predicate(), atom.args()[1]};
  }
  return InvalidArgumentError(
      "only arity-1/2 atoms can be rendered as triples, got arity " +
      std::to_string(atom.arity()));
}

}  // namespace streamasp
