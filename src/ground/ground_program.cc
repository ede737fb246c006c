#include "ground/ground_program.h"

#include <algorithm>
#include <cassert>

namespace streamasp {

namespace {

/// Runs `body(args)` over `atom`'s arguments packed into words, on the
/// stack for the common small arities.
template <typename Body>
auto WithPackedArgs(const Atom& atom, Body&& body) {
  constexpr uint32_t kStackArity = 8;
  PackedTerm stack[kStackArity];
  std::vector<PackedTerm> heap;
  PackedTerm* args = stack;
  if (atom.arity() > kStackArity) {
    heap.resize(atom.arity());
    args = heap.data();
  }
  for (uint32_t i = 0; i < atom.arity(); ++i) {
    args[i] = PackedTerm(atom.args()[i]);
  }
  return body(static_cast<const PackedTerm*>(args));
}

}  // namespace

uint64_t AtomTable::Hash(SymbolId predicate, const PackedTerm* args,
                         uint32_t arity) {
  uint64_t h = PackedBitsHash()(predicate);
  for (uint32_t i = 0; i < arity; ++i) {
    h = HashCombine(h, PackedBitsHash()(args[i].bits()));
  }
  return h;
}

bool AtomTable::Equals(GroundAtomId id, SymbolId predicate,
                       const PackedTerm* args, uint32_t arity) const {
  if (predicates_[id] != predicate || PackedArity(id) != arity) return false;
  const PackedTerm* stored = PackedArgs(id);
  for (uint32_t i = 0; i < arity; ++i) {
    if (stored[i] != args[i]) return false;
  }
  return true;
}

size_t AtomTable::Probe(uint64_t hash, SymbolId predicate,
                        const PackedTerm* args, uint32_t arity) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash);
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.id == kInvalidGroundAtom) return s;
    if (slot.hash == tag && Equals(slot.id, predicate, args, arity)) return s;
  }
}

void AtomTable::Rehash(size_t slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(slots, Slot{kInvalidGroundAtom, 0});
  const size_t mask = slots - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidGroundAtom) continue;
    size_t s = slot.hash & mask;
    while (slots_[s].id != kInvalidGroundAtom) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

GroundAtomId AtomTable::Intern(SymbolId predicate, const PackedTerm* args,
                               uint32_t arity) {
  // Keep the index at most half full (16 slots minimum).
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const uint64_t hash = Hash(predicate, args, arity);
  Slot& slot = slots_[Probe(hash, predicate, args, arity)];
  if (slot.id != kInvalidGroundAtom) return slot.id;
  const GroundAtomId id = static_cast<GroundAtomId>(size());
  slot = Slot{id, static_cast<uint32_t>(hash)};
  predicates_.push_back(predicate);
  packed_args_.insert(packed_args_.end(), args, args + arity);
  arg_offsets_.push_back(static_cast<uint32_t>(packed_args_.size()));
  return id;
}

GroundAtomId AtomTable::Intern(const Atom& atom) {
  return WithPackedArgs(atom, [&](const PackedTerm* args) {
    return Intern(atom.predicate(), args, atom.arity());
  });
}

GroundAtomId AtomTable::Lookup(SymbolId predicate, const PackedTerm* args,
                               uint32_t arity) const {
  if (slots_.empty()) return kInvalidGroundAtom;
  return slots_[Probe(Hash(predicate, args, arity), predicate, args, arity)]
      .id;
}

GroundAtomId AtomTable::Lookup(const Atom& atom) const {
  return WithPackedArgs(atom, [&](const PackedTerm* args) {
    return Lookup(atom.predicate(), args, atom.arity());
  });
}

Atom AtomTable::GetAtom(GroundAtomId id) const {
  assert(id < size());
  std::vector<Term> args;
  args.reserve(PackedArity(id));
  const PackedTerm* packed = PackedArgs(id);
  for (uint32_t i = 0; i < PackedArity(id); ++i) {
    args.push_back(packed[i].ToTerm());
  }
  return Atom(predicates_[id], std::move(args));
}

void AtomTable::Reserve(size_t atoms) {
  predicates_.reserve(atoms);
  arg_offsets_.reserve(atoms + 1);
  packed_args_.reserve(atoms * 2);  // Stream predicates are arity <= 2.
  size_t slots = 16;
  while (slots < 2 * atoms) slots *= 2;
  if (slots > slots_.size()) Rehash(slots);
}

size_t AtomTable::ApproxBytes() const {
  return predicates_.capacity() * sizeof(SymbolId) +
         arg_offsets_.capacity() * sizeof(uint32_t) +
         packed_args_.capacity() * sizeof(PackedTerm) +
         slots_.capacity() * sizeof(Slot);
}

std::string GroundProgram::ToString(const SymbolTable& symbols) const {
  std::string out;
  for (const GroundRule& rule : rules_) {
    for (size_t i = 0; i < rule.head.size(); ++i) {
      if (i > 0) out += " | ";
      out += atoms_.GetAtom(rule.head[i]).ToString(symbols);
    }
    const bool has_body =
        !rule.positive_body.empty() || !rule.negative_body.empty();
    if (has_body || rule.head.empty()) {
      if (!rule.head.empty()) out += " ";
      out += ":- ";
      bool first = true;
      for (GroundAtomId id : rule.positive_body) {
        if (!first) out += ", ";
        first = false;
        out += atoms_.GetAtom(id).ToString(symbols);
      }
      for (GroundAtomId id : rule.negative_body) {
        if (!first) out += ", ";
        first = false;
        out += "not " + atoms_.GetAtom(id).ToString(symbols);
      }
    }
    out += ".\n";
  }
  return out;
}

}  // namespace streamasp
