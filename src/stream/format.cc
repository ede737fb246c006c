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

StatusOr<uint32_t> DataFormatProcessor::CheckTriple(
    const Triple& triple) const {
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
  return arity;
}

StatusOr<Atom> DataFormatProcessor::ToFact(const Triple& triple) const {
  STREAMASP_ASSIGN_OR_RETURN(const uint32_t arity, CheckTriple(triple));
  if (arity == 1) return Atom(triple.predicate, {triple.subject.ToTerm()});
  return Atom(triple.predicate,
              {triple.subject.ToTerm(), triple.object.ToTerm()});
}

StatusOr<std::vector<Atom>> DataFormatProcessor::ToFacts(
    const std::vector<Triple>& items) const {
  std::vector<Atom> facts;
  facts.reserve(items.size());
  for (const Triple& t : items) {
    STREAMASP_ASSIGN_OR_RETURN(Atom fact, ToFact(t));
    facts.push_back(std::move(fact));
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
