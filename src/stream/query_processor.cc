#include "stream/query_processor.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace streamasp {

StreamQueryProcessor::StreamQueryProcessor(size_t window_size, size_t slide,
                                           WindowCallback callback)
    : window_size_(window_size == 0 ? 1 : window_size),
      slide_(slide == 0 ? window_size_ : std::min(slide, window_size_)),
      callback_(std::move(callback)) {
  assert(callback_ != nullptr);
  if (!sliding()) pending_.reserve(window_size_);
}

namespace {

/// A direct-mapped table of `size` (a power of two) empty slots: slot i
/// holds i ^ 1, whose low bits never name slot i, so no id matches it.
std::vector<SymbolId> EmptySlots(size_t size) {
  std::vector<SymbolId> slots(size);
  for (size_t i = 0; i < size; ++i) slots[i] = static_cast<SymbolId>(i ^ 1);
  return slots;
}

}  // namespace

void StreamQueryProcessor::RegisterPredicate(SymbolId predicate) {
  if (Selects(predicate)) return;
  std::vector<SymbolId> registered = {predicate};
  const size_t mask = selected_.size() - 1;
  for (size_t i = 0; i < selected_.size(); ++i) {
    if ((selected_[i] & mask) == i) registered.push_back(selected_[i]);
  }
  // Double until every registered id has a slot of its own; distinct ids
  // differ below bit log2(max id + 1), so this ends by then.
  for (size_t size = selected_.size();; size *= 2) {
    std::vector<SymbolId> slots = EmptySlots(size);
    bool placed = true;
    for (const SymbolId id : registered) {
      SymbolId& slot = slots[id & (size - 1)];
      if ((slot & (size - 1)) == (id & (size - 1))) {
        placed = false;
        break;
      }
      slot = id;
    }
    if (placed) {
      selected_ = std::move(slots);
      return;
    }
  }
}

void StreamQueryProcessor::Push(const Triple& triple) {
  if (!Selects(triple.predicate)) {
    ++dropped_;
    return;
  }
  if (!sliding()) {
    pending_.push_back(triple);
    if (pending_.size() >= window_size_) Flush();
    return;
  }
  buffer_.Append(triple);
  pending_admitted_.push_back(triple);
  if (buffer_.size() > window_size_) {
    pending_expired_.push_back(buffer_.Front());
    buffer_.PopFront();
  }
  ++arrivals_since_emit_;
  // First window fires when the buffer first fills; afterwards every
  // `slide_` arrivals.
  if ((!emitted_once_ && buffer_.size() == window_size_) ||
      (emitted_once_ && arrivals_since_emit_ >= slide_)) {
    EmitSliding();
  }
}

void StreamQueryProcessor::PushBatch(const std::vector<Triple>& triples) {
  for (const Triple& t : triples) Push(t);
}

void StreamQueryProcessor::FoldShedDelta(TripleWindow* shed) {
  if (!shed->has_delta) return;
  // Synchronous sheds only: the window being folded must be this
  // processor's most recent emission, or the accumulators would net
  // changes out of order (see header).
  assert(shed->sequence + 1 == next_sequence_);
  assert(delta_base_ == shed->sequence);
  pending_expired_.insert(pending_expired_.end(),
                          std::make_move_iterator(shed->expired.begin()),
                          std::make_move_iterator(shed->expired.end()));
  pending_admitted_.insert(pending_admitted_.end(),
                           std::make_move_iterator(shed->admitted.begin()),
                           std::make_move_iterator(shed->admitted.end()));
  shed->expired.clear();
  shed->admitted.clear();
  delta_base_ = shed->delta_base;
}

void StreamQueryProcessor::Flush() {
  if (sliding()) {
    if (buffer_.empty()) return;
    if (emitted_once_ && arrivals_since_emit_ == 0) return;  // Nothing new.
    EmitSliding();
    return;
  }
  if (pending_.empty()) return;
  TripleWindow window;
  window.sequence = next_sequence_++;
  window.items = std::move(pending_);
  pending_.clear();
  pending_.reserve(window_size_);
  callback_(std::move(window));
}

void StreamQueryProcessor::EmitSliding() {
  TripleWindow window;
  window.sequence = next_sequence_++;
  buffer_.CopyTo(&window.items);
  window.has_delta = true;
  window.delta_base = delta_base_;
  window.expired = std::move(pending_expired_);
  window.admitted = std::move(pending_admitted_);
  pending_expired_.clear();
  pending_admitted_.clear();
  delta_base_ = window.sequence;
  arrivals_since_emit_ = 0;
  emitted_once_ = true;
  callback_(std::move(window));
}

}  // namespace streamasp
