#ifndef STREAMASP_ASP_ATOM_H_
#define STREAMASP_ASP_ATOM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asp/symbol_table.h"
#include "asp/term.h"

namespace streamasp {

/// A predicate signature: name plus arity. Two predicates with the same
/// name but different arities are distinct, as in standard ASP systems.
struct PredicateSignature {
  SymbolId name = kInvalidSymbol;
  uint32_t arity = 0;

  friend bool operator==(const PredicateSignature& a,
                         const PredicateSignature& b) {
    return a.name == b.name && a.arity == b.arity;
  }
  friend bool operator!=(const PredicateSignature& a,
                         const PredicateSignature& b) {
    return !(a == b);
  }
  friend bool operator<(const PredicateSignature& a,
                        const PredicateSignature& b) {
    return a.name != b.name ? a.name < b.name : a.arity < b.arity;
  }

  /// Renders "name/arity".
  std::string ToString(const SymbolTable& symbols) const;
};

struct PredicateSignatureHash {
  size_t operator()(const PredicateSignature& s) const {
    return HashCombine(std::hash<uint32_t>()(s.name),
                       std::hash<uint32_t>()(s.arity));
  }
};

/// An ASP atom: predicate applied to a (possibly empty) list of terms,
/// e.g. traffic_jam(X) or average_speed(newcastle, 10).
class Atom {
 public:
  Atom() = default;

  /// Constructs predicate(args...).
  Atom(SymbolId predicate, std::vector<Term> args)
      : predicate_(predicate), args_(std::move(args)) {}

  SymbolId predicate() const { return predicate_; }
  const std::vector<Term>& args() const { return args_; }
  uint32_t arity() const { return static_cast<uint32_t>(args_.size()); }

  /// This atom's name/arity signature.
  PredicateSignature signature() const {
    return PredicateSignature{predicate_, arity()};
  }

  /// True iff no argument contains a variable.
  bool IsGround() const;

  /// Appends all variable ids in argument order (with duplicates).
  void CollectVariables(std::vector<SymbolId>* out) const;

  /// Renders the atom in ASP syntax, e.g. "p(a,3)" or "q" for arity 0.
  std::string ToString(const SymbolTable& symbols) const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate_ == b.predicate_ && a.args_ == b.args_;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b) {
    if (a.predicate_ != b.predicate_) return a.predicate_ < b.predicate_;
    return a.args_ < b.args_;
  }

 private:
  SymbolId predicate_ = kInvalidSymbol;
  std::vector<Term> args_;
};

}  // namespace streamasp

#endif  // STREAMASP_ASP_ATOM_H_
