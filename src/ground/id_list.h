#ifndef STREAMASP_GROUND_ID_LIST_H_
#define STREAMASP_GROUND_ID_LIST_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>

namespace streamasp {

/// Dense id of a ground atom within one grounding.
using GroundAtomId = uint32_t;

/// A list of 32-bit ids (atom ids in rule heads and bodies, list
/// positions in the incremental grounder's body-reference index) the
/// size of a std::vector (24 bytes) that keeps up to kInlineCapacity ids
/// in place and spills only longer lists to the heap. Rule heads and
/// bodies are almost always that short, so a window's rules cost no
/// per-rule allocation. The surface is the subset of std::vector the
/// grounders and solvers use; iterators are plain pointers, invalidated
/// by any growth.
class IdList {
 public:
  static constexpr uint32_t kInlineCapacity = 4;

  using value_type = uint32_t;
  using iterator = uint32_t*;
  using const_iterator = const uint32_t*;

  IdList() = default;
  IdList(std::initializer_list<uint32_t> ids) {
    assign(ids.begin(), ids.end());
  }
  IdList(const IdList& other) { assign(other.begin(), other.end()); }
  IdList(IdList&& other) noexcept { Steal(&other); }
  IdList& operator=(const IdList& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  IdList& operator=(IdList&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(&other);
    }
    return *this;
  }
  ~IdList() { Release(); }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t capacity() const { return capacity_; }
  /// True once the list has spilled to a heap block.
  bool on_heap() const { return capacity_ > kInlineCapacity; }

  uint32_t* data() { return on_heap() ? heap_ : inline_; }
  const uint32_t* data() const { return on_heap() ? heap_ : inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  uint32_t& operator[](size_t i) {
    assert(i < size_);
    return data()[i];
  }
  uint32_t operator[](size_t i) const {
    assert(i < size_);
    return data()[i];
  }
  uint32_t front() const { return (*this)[0]; }
  uint32_t back() const { return (*this)[size_ - 1]; }

  void push_back(uint32_t id) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    data()[size_++] = id;
  }
  void pop_back() {
    assert(size_ > 0);
    --size_;
  }
  void clear() { size_ = 0; }

  void reserve(size_t capacity) {
    if (capacity > capacity_) Grow(static_cast<uint32_t>(capacity));
  }

  template <typename It>
  void assign(It first, It last) {
    const size_t count = static_cast<size_t>(std::distance(first, last));
    size_ = 0;
    reserve(count);
    std::copy(first, last, data());
    size_ = static_cast<uint32_t>(count);
  }

  /// Erases [first, last) and returns the position after the erased
  /// range, as std::vector::erase does (used with std::remove_if).
  iterator erase(const_iterator first, const_iterator last) {
    uint32_t* base = data();
    uint32_t* out = base + (first - base);
    const uint32_t* tail = base + (last - base);
    std::copy(tail, static_cast<const uint32_t*>(end()), out);
    size_ -= static_cast<uint32_t>(last - first);
    return out;
  }

  friend bool operator==(const IdList& a, const IdList& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const IdList& a, const IdList& b) {
    return !(a == b);
  }

 private:
  void Grow(uint32_t capacity) {
    uint32_t* block = new uint32_t[capacity];
    std::memcpy(block, data(), size_ * sizeof(uint32_t));
    Release();
    heap_ = block;
    capacity_ = capacity;
  }
  void Release() {
    if (on_heap()) delete[] heap_;
    capacity_ = kInlineCapacity;
  }
  /// Takes `other`'s contents (its heap block, if any) and leaves it
  /// empty and inline. Requires this list to hold no heap block.
  void Steal(IdList* other) {
    size_ = other->size_;
    capacity_ = other->capacity_;
    if (other->on_heap()) {
      heap_ = other->heap_;
    } else {
      std::memcpy(inline_, other->inline_, size_ * sizeof(uint32_t));
    }
    other->size_ = 0;
    other->capacity_ = kInlineCapacity;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  union {
    uint32_t inline_[kInlineCapacity];
    uint32_t* heap_;
  };
};

static_assert(sizeof(IdList) == 24,
              "IdList must stay the size of a std::vector");

}  // namespace streamasp

#endif  // STREAMASP_GROUND_ID_LIST_H_
