#ifndef STREAMASP_STREAMRULE_EMISSION_H_
#define STREAMASP_STREAMRULE_EMISSION_H_

#include <cstdint>
#include <functional>

#include "util/status.h"

namespace streamasp {

struct TripleWindow;
struct ParallelReasonerResult;

/// One delivery of an engine's ordered emission stream. Every window an
/// engine emits — reasoned, failed, or shed — surfaces as exactly one
/// EmissionEvent, delivered from one thread at a time in strictly
/// increasing sequence order across all three kinds: ordered consumers
/// (the session server) track one stream.
struct EmissionEvent {
  enum class Kind : uint8_t {
    kResult,  ///< Window reasoned successfully; `result` is set.
    kError,   ///< Reasoning failed; `status` set.
    kShed,    ///< Tombstone: the window was shed unreasoned, items intact.
  };

  Kind kind = Kind::kResult;

  /// The emitted window's sequence (== window->sequence): strictly
  /// increasing over successive events, with no gaps under a lossless
  /// configuration — kError and kShed events consume their slot.
  uint64_t sequence = 0;

  /// The emitted window. Owned by the delivering thread and discarded
  /// right after the handler returns, so handlers may steal its contents.
  /// Never null during delivery.
  TripleWindow* window = nullptr;

  /// kResult only: the reasoning result.
  const ParallelReasonerResult* result = nullptr;

  /// kError only: why the window produced no answers.
  Status status = OkStatus();
};

/// The one emission surface of every engine: runs on the caller thread
/// (sync) or on whichever pool thread (or shedding caller) holds the
/// delivery baton (async) — never concurrently with itself — and must not
/// call back into Push/Flush on the emitting engine.
using EmissionHandler = std::function<void(EmissionEvent&)>;

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_EMISSION_H_
