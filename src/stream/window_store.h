#ifndef STREAMASP_STREAM_WINDOW_STORE_H_
#define STREAMASP_STREAM_WINDOW_STORE_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "stream/triple.h"

namespace streamasp {

/// Columnar ring buffer backing a windower's retained window:
/// subject/predicate/object live in three dense structure-of-arrays
/// columns of fixed-width slots, with an optional timestamp column for the
/// time windower. Eviction pops the logical front by bumping a
/// head offset; storage is compacted in one memmove whenever dead slots
/// outnumber live ones, so Append/PopFront stay amortized O(1) with no
/// per-item allocation (the columns are trivially copyable slots, never
/// node-based deque chunks).
///
/// This replaces the previous std::deque<Triple> retained buffers; with
/// PackedTerm slots a retained triple costs 20 bytes of column storage
/// (8 + 4 + 8) versus ~80 bytes per deque-of-Triple node payload in the
/// unpacked representation.
class WindowStore {
 public:
  struct Options {
    bool with_timestamps = false;
  };

  WindowStore() = default;
  explicit WindowStore(Options options) : options_(options) {}

  size_t size() const { return subjects_.size() - head_; }
  bool empty() const { return size() == 0; }

  void Append(const Triple& t, int64_t timestamp_ms = 0) {
    subjects_.push_back(t.subject);
    predicates_.push_back(t.predicate);
    objects_.push_back(t.object);
    if (options_.with_timestamps) timestamps_.push_back(timestamp_ms);
  }

  /// The item at logical position i (0 == oldest retained).
  Triple At(size_t i) const {
    size_t slot = head_ + i;
    return Triple{subjects_[slot], predicates_[slot], objects_[slot]};
  }
  Triple Front() const { return At(0); }
  int64_t TimestampAt(size_t i) const { return timestamps_[head_ + i]; }

  void PopFront() {
    ++head_;
    MaybeCompact();
  }

  void Clear() {
    head_ = 0;
    subjects_.clear();
    predicates_.clear();
    objects_.clear();
    timestamps_.clear();
  }

  /// Appends the retained items, oldest first, to *out.
  void CopyTo(std::vector<Triple>* out) const {
    out->reserve(out->size() + size());
    for (size_t i = head_; i < subjects_.size(); ++i) {
      out->push_back(Triple{subjects_[i], predicates_[i], objects_[i]});
    }
  }

  /// Bytes of column storage currently reserved (capacity, not size): the
  /// store's contribution to the bytes-per-triple counter.
  size_t bytes() const {
    return subjects_.capacity() * sizeof(PackedTerm) +
           predicates_.capacity() * sizeof(SymbolId) +
           objects_.capacity() * sizeof(PackedTerm) +
           timestamps_.capacity() * sizeof(int64_t);
  }

 private:
  void MaybeCompact() {
    // Compact when dead slots outnumber live ones (amortized O(1): each
    // surviving slot moves at most once per halving of the dead prefix).
    if (head_ < 64 || head_ < size()) return;
    subjects_.erase(subjects_.begin(), subjects_.begin() + head_);
    predicates_.erase(predicates_.begin(), predicates_.begin() + head_);
    objects_.erase(objects_.begin(), objects_.begin() + head_);
    if (options_.with_timestamps) {
      timestamps_.erase(timestamps_.begin(), timestamps_.begin() + head_);
    }
    head_ = 0;
  }

  Options options_;
  size_t head_ = 0;
  std::vector<PackedTerm> subjects_;
  std::vector<SymbolId> predicates_;
  std::vector<PackedTerm> objects_;
  std::vector<int64_t> timestamps_;
};

static_assert(std::is_trivially_copyable<Triple>::value,
              "the columnar window store assumes POD triples");

}  // namespace streamasp

#endif  // STREAMASP_STREAM_WINDOW_STORE_H_
