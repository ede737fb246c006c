#include "stream/triple.h"

namespace streamasp {

std::string Triple::ToString(const SymbolTable& symbols) const {
  std::string out = "<" + subject.ToString(symbols) + ", " +
                    symbols.NameOf(predicate);
  if (object.has_value()) {
    out += ", " + object->ToString(symbols);
  }
  out += ">";
  return out;
}

namespace {

/// `*front` followed by `*back`, left in `*back`; `*front` ends empty.
void Prepend(std::vector<Triple>* front, std::vector<Triple>* back) {
  front->insert(front->end(), back->begin(), back->end());
  back->swap(*front);
  front->clear();
}

}  // namespace

void FoldDelta(TripleWindow* shed, TripleWindow* next) {
  const size_t items = shed->expired.size() + shed->admitted.size() +
                       next->expired.size() + next->admitted.size();
  if (!shed->has_delta || !next->has_delta ||
      items > 2 * next->items.size()) {
    next->has_delta = false;
    next->delta_base = TripleWindow::kNoDeltaBase;
    next->expired.clear();
    next->admitted.clear();
  } else {
    next->delta_base = shed->delta_base;
    Prepend(&shed->expired, &next->expired);
    Prepend(&shed->admitted, &next->admitted);
  }
  shed->expired.clear();
  shed->admitted.clear();
}

}  // namespace streamasp
