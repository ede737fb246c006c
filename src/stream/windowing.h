#ifndef STREAMASP_STREAM_WINDOWING_H_
#define STREAMASP_STREAM_WINDOWING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "stream/triple.h"
#include "stream/window_store.h"

namespace streamasp {

/// A stream item paired with its (application) timestamp in milliseconds.
struct TimestampedTriple {
  Triple triple;
  int64_t timestamp_ms = 0;
};

/// Sliding tuple-based window: keeps the most recent `size` items and
/// emits a window every `slide` arrivals. slide == size gives the paper's
/// tumbling behaviour (each item processed exactly once); slide < size
/// re-processes overlapping suffixes, the usual CQELS/C-SPARQL semantics.
///
/// Every emitted window carries its delta against the previously emitted
/// window (TripleWindow::expired/admitted): the items evicted from and
/// pushed into the buffer since the last emission. slide == size makes the
/// delta a full replacement (expired == previous window, admitted == the
/// new one), which downstream grounding caches treat as a full
/// invalidation.
class SlidingCountWindower {
 public:
  using WindowCallback = std::function<void(const TripleWindow&)>;

  /// Requires size >= 1 and 1 <= slide <= size.
  SlidingCountWindower(size_t size, size_t slide, WindowCallback callback);

  /// Feeds one item; may emit a window.
  void Push(const Triple& triple);

  /// Emits the current partial content (if any) as a final window.
  void Flush();

  uint64_t emitted_windows() const { return next_sequence_; }

  /// Column-storage bytes of the retained buffer (bytes-per-triple stat).
  size_t retained_bytes() const { return buffer_.bytes(); }

 private:
  void Emit();

  size_t size_;
  size_t slide_;
  WindowCallback callback_;
  WindowStore buffer_;  ///< Columnar retained window (compact data plane).
  std::vector<Triple> pending_expired_;   ///< Evicted since last emission.
  std::vector<Triple> pending_admitted_;  ///< Arrived since last emission.
  size_t arrivals_since_emit_ = 0;
  bool emitted_once_ = false;
  uint64_t next_sequence_ = 0;
};

/// Sliding time-based window: emits, every `slide_ms` of event time, the
/// items whose timestamps fall in the last `size_ms` milliseconds.
/// Timestamps must be non-decreasing (event time); out-of-order items are
/// clamped forward to the latest seen timestamp.
///
/// Emitted windows carry expired/admitted deltas relative to the
/// previously *emitted* window (boundaries skipped for being empty fold
/// their evictions into the next emission). An item that arrives and ages
/// out between two emissions appears in both sets; the multiset invariant
/// previous - expired + admitted == items still holds.
class SlidingTimeWindower {
 public:
  using WindowCallback = std::function<void(const TripleWindow&)>;

  /// Requires size_ms >= 1 and 1 <= slide_ms.
  SlidingTimeWindower(int64_t size_ms, int64_t slide_ms,
                      WindowCallback callback);

  void Push(const Triple& triple, int64_t timestamp_ms);

  /// Emits whatever the current window holds.
  void Flush();

  uint64_t emitted_windows() const { return next_sequence_; }

  /// Column-storage bytes of the retained buffer (bytes-per-triple stat).
  size_t retained_bytes() const { return buffer_.bytes(); }

 private:
  void EvictOlderThan(int64_t cutoff_ms);
  void Emit();

  int64_t size_ms_;
  int64_t slide_ms_;
  WindowCallback callback_;
  WindowStore buffer_{WindowStore::Options{/*with_timestamps=*/true}};
  std::vector<Triple> pending_expired_;
  std::vector<Triple> pending_admitted_;
  int64_t latest_ms_ = 0;
  int64_t next_emit_ms_ = 0;
  bool saw_any_ = false;
  uint64_t next_sequence_ = 0;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAM_WINDOWING_H_
