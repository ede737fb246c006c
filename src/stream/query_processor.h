#ifndef STREAMASP_STREAM_QUERY_PROCESSOR_H_
#define STREAMASP_STREAM_QUERY_PROCESSOR_H_

#include <functional>
#include <unordered_set>
#include <vector>

#include "asp/symbol_table.h"
#include "stream/triple.h"
#include "stream/window_store.h"

namespace streamasp {

/// Minimal stand-in for the CQELS-style stream query processor at the
/// front of the StreamRule pipeline (Figure 1): it filters the raw triple
/// stream down to the predicates the registered query cares about and
/// groups the survivors into tuple-based windows, which it hands to the
/// reasoning layer via a callback.
///
/// The paper treats this tier as a black box whose output is the filtered
/// window; faithful filtering + windowing is all the downstream
/// experiments require (see ARCHITECTURE.md, "Substitutions and known
/// limits").
class StreamQueryProcessor {
 public:
  /// Receives each completed window by value: the processor hands off its
  /// buffer, so the callback may move the window onward (e.g. into the
  /// async pipeline's work queue) without copying. Lambdas taking
  /// `const TripleWindow&` still bind.
  using WindowCallback = std::function<void(TripleWindow)>;

  /// `window_size` is the tuple-based window length; `callback` receives
  /// every completed window. Tumbling windows: each surviving item appears
  /// in exactly one window.
  StreamQueryProcessor(size_t window_size, WindowCallback callback);

  /// Sliding variant: emits the most recent `window_size` surviving items
  /// every `slide` arrivals (first emission once the window fills).
  /// Requires 1 <= slide <= window_size; slide == window_size (or the
  /// two-argument constructor) keeps tumbling behaviour. Sliding windows
  /// carry expired/admitted deltas (TripleWindow::has_delta), which the
  /// incremental grounding layer consumes.
  StreamQueryProcessor(size_t window_size, size_t slide,
                       WindowCallback callback);

  /// Registers a predicate the continuous query selects. Items with
  /// unregistered predicates are dropped. No registration = drop all.
  void RegisterPredicate(SymbolId predicate);

  /// Feeds one raw stream item; may trigger the callback when the current
  /// window fills up.
  void Push(const Triple& triple);

  /// Feeds a batch of items.
  void PushBatch(const std::vector<Triple>& triples);

  /// Emits the current partial window (tumbling) or the current buffer
  /// contents if anything arrived since the last emission (sliding),
  /// regardless of size — e.g. at end of stream.
  void Flush();

  /// Load-shedding support: hands a just-emitted delta-carrying window's
  /// delta back so the NEXT emission nets the change across the gap and
  /// the delivered stream's delta chain stays exact. The shed window's
  /// expired/admitted move into the delta accumulators and its delta_base
  /// becomes the accumulators' base, so the next emission carries
  /// (shed delta ∘ next delta).
  ///
  /// Precondition: `shed` must be the most recent emission of this
  /// processor (shed.sequence == the last emitted sequence) — i.e. the
  /// caller sheds synchronously from inside the window callback, as the
  /// pipeline's kReject/admission-control path does. Asynchronous
  /// evictions (kDropOldest) must NOT fold: their gap is mid-stream, so
  /// the delta chain simply breaks and incremental consumers detect the
  /// delta_base mismatch and snapshot-diff. No-op for windows without a
  /// delta.
  void FoldShedDelta(TripleWindow* shed);

  /// Items dropped by the filter so far.
  uint64_t dropped_count() const { return dropped_; }

  /// Windows emitted so far.
  uint64_t emitted_windows() const { return next_sequence_; }

  /// Column-storage bytes of the retained sliding buffer and the tumbling
  /// window under construction (the query processor's contribution to the
  /// bytes-per-triple counter).
  size_t retained_bytes() const {
    return buffer_.bytes() + pending_.capacity() * sizeof(Triple);
  }

 private:
  bool sliding() const { return slide_ < window_size_; }
  void EmitSliding();

  size_t window_size_;
  size_t slide_ = 0;  ///< == window_size_ for tumbling.
  WindowCallback callback_;
  std::unordered_set<SymbolId> selected_;
  /// Tumbling state: the window under construction.
  std::vector<Triple> pending_;
  /// Sliding state: last window_size_ survivors (columnar) + delta
  /// accumulators.
  WindowStore buffer_;
  std::vector<Triple> pending_expired_;
  std::vector<Triple> pending_admitted_;
  /// Emitted sequence the delta accumulators are relative to (becomes the
  /// next emission's TripleWindow::delta_base).
  uint64_t delta_base_ = TripleWindow::kNoDeltaBase;
  size_t arrivals_since_emit_ = 0;
  bool emitted_once_ = false;
  uint64_t next_sequence_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAM_QUERY_PROCESSOR_H_
