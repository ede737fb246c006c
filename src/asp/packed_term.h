#ifndef STREAMASP_ASP_PACKED_TERM_H_
#define STREAMASP_ASP_PACKED_TERM_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "asp/symbol_table.h"
#include "asp/term.h"

namespace streamasp {

/// A ground-or-variable ASP term packed into one tagged 64-bit word — the
/// unit of the compact data plane. Integers, symbolic constants, and
/// variables are encoded inline; compound (function/arithmetic) terms and
/// integers outside the 61-bit inline range escape to an id in the global
/// hash-consing PackedTermArena. Because the arena interns canonically,
/// *word equality is deep Term equality* for every pair of PackedTerms in
/// the process, which is what lets window buffers, join indexes, and atom
/// interning compare and hash single words instead of walking Term trees.
///
/// Layout (bits 63..61 = tag, bits 60..0 = payload):
///
///   tag 0 kNone      payload 0        — absent value (optional-style)
///   tag 1 kInt       signed 61-bit    — integers in [-2^60, 2^60)
///   tag 2 kSymbol    SymbolId         — symbolic constant
///   tag 3 kVariable  SymbolId         — variable
///   tag 4 kEscape    arena id         — compound term or out-of-range int
///
/// The all-zero word is "no value", so PackedTerm doubles as an optional:
/// it exposes has_value()/operator*/operator-> and converts implicitly
/// from Term and std::nullopt, keeping `Triple{subj, pred, std::nullopt}`
/// call sites source-compatible.
///
/// Hash() reproduces Term::Hash() bit-for-bit (the arena caches the deep
/// hash per escaped id), so bucket routing and any hash-dependent
/// iteration order remain byte-identical to the unpacked representation.
class PackedTerm {
 public:
  enum Tag : uint64_t {
    kNone = 0,
    kInt = 1,
    kSymbol = 2,
    kVariable = 3,
    kEscape = 4,
  };

  static constexpr int kTagShift = 61;
  static constexpr uint64_t kPayloadMask = (uint64_t{1} << kTagShift) - 1;
  /// Inline integer range: signed 61-bit two's complement.
  static constexpr int64_t kMinInlineInt = -(int64_t{1} << 60);
  static constexpr int64_t kMaxInlineInt = (int64_t{1} << 60) - 1;

  constexpr PackedTerm() : bits_(0) {}
  constexpr PackedTerm(std::nullopt_t) : bits_(0) {}  // NOLINT(runtime/explicit)
  /// Packs a Term (interning into the global arena on the escape path).
  PackedTerm(const Term& term);  // NOLINT(runtime/explicit)
  PackedTerm(const std::optional<Term>& term)  // NOLINT(runtime/explicit)
      : PackedTerm() {
    if (term) *this = PackedTerm(*term);
  }

  static PackedTerm Integer(int64_t value);
  static PackedTerm Symbol(SymbolId id) {
    return FromBits((uint64_t{kSymbol} << kTagShift) | id);
  }
  static PackedTerm Variable(SymbolId id) {
    return FromBits((uint64_t{kVariable} << kTagShift) | id);
  }
  static constexpr PackedTerm FromBits(uint64_t bits) {
    PackedTerm t;
    t.bits_ = bits;
    return t;
  }

  Tag tag() const { return static_cast<Tag>(bits_ >> kTagShift); }
  uint64_t bits() const { return bits_; }

  // Optional-style surface (mirrors the std::optional<Term> this replaced
  // in Triple::object).
  bool has_value() const { return bits_ != 0; }
  explicit operator bool() const { return has_value(); }
  const PackedTerm& operator*() const { return *this; }
  const PackedTerm* operator->() const { return this; }

  bool is_none() const { return bits_ == 0; }
  /// True for inline integers and escaped out-of-range integers.
  bool is_integer() const;
  bool is_symbol() const { return tag() == kSymbol; }
  bool is_variable() const { return tag() == kVariable; }
  /// True for escaped compound (function) terms.
  bool is_function() const;
  bool is_escape() const { return tag() == kEscape; }

  /// Integer payload (inline or escaped). Requires is_integer().
  int64_t integer_value() const;

  /// Symbol id of an inline constant or variable. Requires is_symbol() or
  /// is_variable().
  SymbolId symbol() const { return static_cast<SymbolId>(bits_ & kPayloadMask); }

  /// Arena id of an escaped term. Requires is_escape().
  uint32_t escape_id() const { return static_cast<uint32_t>(bits_ & kPayloadMask); }

  /// Unpacks to the equivalent Term. Requires has_value().
  Term ToTerm() const;
  std::optional<Term> ToOptionalTerm() const {
    if (!has_value()) return std::nullopt;
    return ToTerm();
  }

  /// Deep hash, bit-identical to ToTerm().Hash() (cached per arena id on
  /// the escape path, pure bit arithmetic inline).
  size_t Hash() const;

  std::string ToString(const SymbolTable& symbols) const;

  friend bool operator==(const PackedTerm& a, const PackedTerm& b) {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(const PackedTerm& a, const PackedTerm& b) {
    return a.bits_ != b.bits_;
  }

 private:
  uint64_t bits_;
};

static_assert(sizeof(PackedTerm) == 8, "PackedTerm must stay one word");

/// Process-global hash-consing arena for terms that do not fit inline in a
/// PackedTerm. Interning is canonical (deep-equal terms share one id), so
/// packed-word equality remains deep equality across every component that
/// packs terms — windowers, grounder indexes — without
/// coordinating arena handles. Append-only; ids are dense and stable for
/// the process lifetime. Thread-safe (the escape path is rare: stream
/// workloads are integer/symbol dominated, so the lock is off the hot
/// path).
class PackedTermArena {
 public:
  static PackedTermArena& Global();

  /// Interns `term` (deep copy on first sight) and returns its id. The
  /// deep hash is computed once and cached for PackedTerm::Hash().
  uint32_t Intern(const Term& term);

  /// The canonical Term for an id (reference stable: deque storage).
  Term TermOf(uint32_t id) const;
  size_t HashOf(uint32_t id) const;
  TermKind KindOf(uint32_t id) const;
  int64_t IntegerOf(uint32_t id) const;

  size_t size() const;
  /// Approximate retained bytes (terms + cached hashes + index).
  size_t ApproxBytes() const;

 private:
  PackedTermArena() = default;

  mutable std::shared_mutex mutex_;
  std::deque<Term> terms_;
  std::deque<size_t> hashes_;
  std::unordered_map<Term, uint32_t, TermHash> index_;
};

/// Hash functor mixing a packed word for unordered containers keyed by
/// raw packed bits. splitmix64 finalizer: packed words differ in few bits
/// (consecutive ints/symbols), so identity hashing would cluster buckets.
struct PackedBitsHash {
  size_t operator()(uint64_t bits) const {
    uint64_t x = bits + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

}  // namespace streamasp

#endif  // STREAMASP_ASP_PACKED_TERM_H_
