#ifndef STREAMASP_ASP_SYMBOL_TABLE_H_
#define STREAMASP_ASP_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace streamasp {

/// Dense identifier of an interned string (predicate name, constant, or
/// variable name). Ids are stable for the lifetime of the SymbolTable.
using SymbolId = uint32_t;

/// Sentinel for "no symbol".
inline constexpr SymbolId kInvalidSymbol = static_cast<SymbolId>(-1);

/// Interns strings to dense ids so the grounder and solver can compare and
/// hash terms as integers.
///
/// Thread safety: Intern/InternBatch/Lookup/NameOf may be called
/// concurrently; the parallel reasoner shares one table across worker
/// threads so that answer sets from different partitions are directly
/// comparable by id. A shared_mutex keeps reads (the common case once the
/// workload's symbols exist) cheap.
class SymbolTable {
 public:
  SymbolTable() = default;

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id for `name`, interning it on first use.
  SymbolId Intern(std::string_view name);

  /// Interns `names` in order, storing `(*ids)[i]` for `names[i]`: the ids
  /// that one Intern call per name, in sequence, would return (a name new
  /// to the table takes the next id at its first occurrence). Takes the
  /// read lock once, and the write lock once more only when some name is
  /// new; the session server interns a whole push this way.
  void InternBatch(const std::vector<std::string_view>& names,
                   std::vector<SymbolId>* ids);

  /// Returns the id for `name` or kInvalidSymbol if never interned.
  SymbolId Lookup(std::string_view name) const;

  /// Returns the string for an id. The reference is stable (storage is a
  /// deque; entries are never removed). Requires a valid id.
  const std::string& NameOf(SymbolId id) const;

  /// Number of interned symbols.
  size_t size() const;

 private:
  /// One slot of the index: a symbol id (kInvalidSymbol = empty) and the
  /// high half of its name's hash, compared before the name itself.
  struct Slot {
    SymbolId id = kInvalidSymbol;
    uint32_t hash_high = 0;
  };

  /// The id of `name`, or kInvalidSymbol; under either lock.
  SymbolId Find(std::string_view name, size_t hash) const;
  /// Intern under the write lock.
  SymbolId InternLocked(std::string_view name, size_t hash);
  /// Doubles the index (at least 16 slots) and re-places every id.
  void Grow();

  mutable std::shared_mutex mutex_;
  std::deque<std::string> names_;
  /// Open-addressing index over names_: a power-of-two number of slots,
  /// at most half full, probed linearly from the hash's low bits.
  std::vector<Slot> slots_;
};

/// Shared-ownership handle used throughout the library: programs, windows,
/// and reasoners all reference one table.
using SymbolTablePtr = std::shared_ptr<SymbolTable>;

/// Convenience factory.
inline SymbolTablePtr MakeSymbolTable() {
  return std::make_shared<SymbolTable>();
}

}  // namespace streamasp

#endif  // STREAMASP_ASP_SYMBOL_TABLE_H_
