#include "asp/atom.h"

namespace streamasp {

std::string PredicateSignature::ToString(const SymbolTable& symbols) const {
  return symbols.NameOf(name) + "/" + std::to_string(arity);
}

bool Atom::IsGround() const {
  for (const Term& t : args_) {
    if (!t.IsGround()) return false;
  }
  return true;
}

void Atom::CollectVariables(std::vector<SymbolId>* out) const {
  for (const Term& t : args_) {
    t.CollectVariables(out);
  }
}

std::string Atom::ToString(const SymbolTable& symbols) const {
  std::string out = symbols.NameOf(predicate_);
  if (!args_.empty()) {
    out += '(';
    for (size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ',';
      out += args_[i].ToString(symbols);
    }
    out += ')';
  }
  return out;
}

}  // namespace streamasp
