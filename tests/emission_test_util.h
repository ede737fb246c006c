#ifndef STREAMASP_TESTS_EMISSION_TEST_UTIL_H_
#define STREAMASP_TESTS_EMISSION_TEST_UTIL_H_

#include <functional>
#include <utility>

#include "stream/triple.h"
#include "streamrule/emission.h"
#include "streamrule/parallel_reasoner.h"
#include "util/status.h"

namespace streamasp {

/// Routes an engine's ordered EmissionEvent stream to per-kind lambdas,
/// so tests can assert on results, errors and tombstones separately. A
/// null lambda ignores its kind.
inline EmissionHandler ByKind(
    std::function<void(TripleWindow&, const ParallelReasonerResult&)>
        on_result,
    std::function<void(TripleWindow&, const Status&)> on_error = nullptr,
    std::function<void(TripleWindow&)> on_shed = nullptr) {
  return [on_result = std::move(on_result), on_error = std::move(on_error),
          on_shed = std::move(on_shed)](EmissionEvent& event) {
    switch (event.kind) {
      case EmissionEvent::Kind::kResult:
        if (on_result != nullptr) on_result(*event.window, *event.result);
        break;
      case EmissionEvent::Kind::kError:
        if (on_error != nullptr) on_error(*event.window, event.status);
        break;
      case EmissionEvent::Kind::kShed:
        if (on_shed != nullptr) on_shed(*event.window);
        break;
    }
  };
}

}  // namespace streamasp

#endif  // STREAMASP_TESTS_EMISSION_TEST_UTIL_H_
