#ifndef STREAMASP_STREAM_WINDOW_STORE_H_
#define STREAMASP_STREAM_WINDOW_STORE_H_

#include <type_traits>
#include <vector>

#include "stream/triple.h"

namespace streamasp {

/// Columnar ring buffer backing the sliding query processor's retained
/// window: subject/predicate/object live in three dense
/// structure-of-arrays columns of fixed-width slots. Eviction pops the
/// logical front by bumping a head offset; storage is compacted in one
/// memmove whenever dead slots outnumber live ones, so Append/PopFront
/// stay amortized O(1) with no per-item allocation (the columns are
/// trivially copyable slots, never node-based deque chunks).
///
/// This replaces the previous std::deque<Triple> retained buffers; with
/// PackedTerm slots a retained triple costs 20 bytes of column storage
/// (8 + 4 + 8) versus ~80 bytes per deque-of-Triple node payload in the
/// unpacked representation.
class WindowStore {
 public:
  size_t size() const { return subjects_.size() - head_; }
  bool empty() const { return size() == 0; }

  void Append(const Triple& t) {
    subjects_.push_back(t.subject);
    predicates_.push_back(t.predicate);
    objects_.push_back(t.object);
  }

  /// The item at logical position i (0 == oldest retained).
  Triple At(size_t i) const {
    size_t slot = head_ + i;
    return Triple{subjects_[slot], predicates_[slot], objects_[slot]};
  }
  Triple Front() const { return At(0); }

  void PopFront() {
    ++head_;
    MaybeCompact();
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
           objects_.capacity() * sizeof(PackedTerm);
  }

 private:
  void MaybeCompact() {
    // Compact when dead slots outnumber live ones (amortized O(1): each
    // surviving slot moves at most once per halving of the dead prefix).
    if (head_ < 64 || head_ < size()) return;
    subjects_.erase(subjects_.begin(), subjects_.begin() + head_);
    predicates_.erase(predicates_.begin(), predicates_.begin() + head_);
    objects_.erase(objects_.begin(), objects_.begin() + head_);
    head_ = 0;
  }

  size_t head_ = 0;
  std::vector<PackedTerm> subjects_;
  std::vector<SymbolId> predicates_;
  std::vector<PackedTerm> objects_;
};

static_assert(std::is_trivially_copyable<Triple>::value,
              "the columnar window store assumes POD triples");

}  // namespace streamasp

#endif  // STREAMASP_STREAM_WINDOW_STORE_H_
