#include "asp/symbol_table.h"

#include <cassert>
#include <functional>
#include <mutex>

namespace streamasp {

namespace {

size_t HashName(std::string_view name) {
  return std::hash<std::string_view>()(name);
}

uint32_t HashHigh(size_t hash) {
  return static_cast<uint32_t>(static_cast<uint64_t>(hash) >> 32);
}

}  // namespace

SymbolId SymbolTable::Find(std::string_view name, size_t hash) const {
  if (slots_.empty()) return kInvalidSymbol;
  const size_t mask = slots_.size() - 1;
  const uint32_t high = HashHigh(hash);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidSymbol) return kInvalidSymbol;
    if (slot.hash_high == high && names_[slot.id] == name) return slot.id;
  }
}

SymbolId SymbolTable::Intern(std::string_view name) {
  const size_t hash = HashName(name);
  {
    std::shared_lock<std::shared_mutex> read_lock(mutex_);
    const SymbolId id = Find(name, hash);
    if (id != kInvalidSymbol) return id;
  }
  std::unique_lock<std::shared_mutex> write_lock(mutex_);
  return InternLocked(name, hash);
}

void SymbolTable::InternBatch(const std::vector<std::string_view>& names,
                              std::vector<SymbolId>* ids) {
  ids->resize(names.size());
  bool missed = false;
  {
    std::shared_lock<std::shared_mutex> read_lock(mutex_);
    for (size_t i = 0; i < names.size(); ++i) {
      (*ids)[i] = Find(names[i], HashName(names[i]));
      missed |= (*ids)[i] == kInvalidSymbol;
    }
  }
  if (!missed) return;
  // New names take ids in order of first occurrence, as sequential Intern
  // calls would give them; a later repeat finds the id just assigned.
  std::unique_lock<std::shared_mutex> write_lock(mutex_);
  for (size_t i = 0; i < names.size(); ++i) {
    if ((*ids)[i] == kInvalidSymbol) {
      (*ids)[i] = InternLocked(names[i], HashName(names[i]));
    }
  }
}

SymbolId SymbolTable::InternLocked(std::string_view name, size_t hash) {
  // Re-check: another thread may have interned since the read lock.
  const SymbolId found = Find(name, hash);
  if (found != kInvalidSymbol) return found;
  if (2 * (names_.size() + 1) > slots_.size()) Grow();
  const SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].id != kInvalidSymbol) i = (i + 1) & mask;
  slots_[i] = Slot{id, HashHigh(hash)};
  return id;
}

void SymbolTable::Grow() {
  std::vector<Slot> grown(slots_.empty() ? 16 : 2 * slots_.size());
  const size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.id == kInvalidSymbol) continue;
    size_t i = HashName(names_[slot.id]) & mask;
    while (grown[i].id != kInvalidSymbol) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_ = std::move(grown);
}

SymbolId SymbolTable::Lookup(std::string_view name) const {
  const size_t hash = HashName(name);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return Find(name, hash);
}

const std::string& SymbolTable::NameOf(SymbolId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  assert(id < names_.size());
  return names_[id];
}

size_t SymbolTable::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return names_.size();
}

}  // namespace streamasp
