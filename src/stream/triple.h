#ifndef STREAMASP_STREAM_TRIPLE_H_
#define STREAMASP_STREAM_TRIPLE_H_

#include <optional>
#include <string>
#include <vector>

#include "asp/packed_term.h"
#include "asp/symbol_table.h"
#include "asp/term.h"

namespace streamasp {

/// One RDF-style data item <s, p, o> as delivered by the stream query
/// processor. The predicate is an interned symbol; subject and object are
/// packed ground terms (symbols or integers inline; rare compound values
/// escape to the global arena). Items for unary predicates (e.g.
/// traffic_light(newcastle)) carry no object — an absent object is the
/// all-zero PackedTerm, so the struct is a trivially copyable 24-byte
/// record and window buffers can hold it columnar without per-item heap
/// traffic.
struct Triple {
  PackedTerm subject;
  SymbolId predicate = kInvalidSymbol;
  PackedTerm object;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.predicate == b.predicate && a.subject == b.subject &&
           a.object == b.object;
  }

  /// Renders "<s, p, o>" (or "<s, p>" without an object).
  std::string ToString(const SymbolTable& symbols) const;
};

/// A tuple-based window: the unit of work the reasoner processes per
/// computation (paper §I). Windows carry a sequence number so downstream
/// components can correlate answers with inputs.
///
/// Sliding windows additionally carry the delta against the previous
/// window of the same stream: as multisets,
///   previous.items - expired + admitted == items.
/// The first window's delta is relative to the empty window (admitted ==
/// items). An item may appear in both sets (equal payloads, or a shed
/// window's delta folded into the next) — consumers must net the counts.
/// Tumbling windows leave has_delta false, and an incremental consumer
/// regrounds them.
///
/// Under load shedding the delta is not necessarily relative to
/// `sequence - 1`: every shed window's delta is folded into the window
/// after it (FoldDelta), so the delivered stream's delta chain stays
/// unbroken. `delta_base` names the window the delta is relative to
/// (kNoDeltaBase for the first emission, whose delta is relative to the
/// empty window).
struct TripleWindow {
  /// delta_base value of a window whose delta has no predecessor.
  static constexpr uint64_t kNoDeltaBase = ~uint64_t{0};

  uint64_t sequence = 0;
  std::vector<Triple> items;

  bool has_delta = false;
  uint64_t delta_base = kNoDeltaBase;  ///< Window the delta is relative to.
  std::vector<Triple> expired;   ///< Left the window since the previous one.
  std::vector<Triple> admitted;  ///< Entered the window since the previous.

  size_t size() const { return items.size(); }
  bool empty() const { return items.empty(); }
};

/// Folds the delta of `shed`, a window that will not be reasoned, into
/// `next`, the window after it in the same stream: `next`'s delta becomes
/// relative to `shed`'s base, listing `shed`'s expiries and admissions
/// before its own, and `shed` keeps none. Both the query processor's
/// synchronous sheds and the work queue's kDropOldest evictions fold
/// through here. The composed delta is dropped (has_delta false, so the
/// consumer regrounds `next`) when `shed` has none or it would list more
/// than twice `next`'s items: a run of sheds cannot grow it without bound,
/// and a longer delta costs more to replay than the window does to ground.
/// No-op on tumbling windows, which carry no delta.
void FoldDelta(TripleWindow* shed, TripleWindow* next);

}  // namespace streamasp

#endif  // STREAMASP_STREAM_TRIPLE_H_
