#include "stream/generator.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

namespace streamasp {

SyntheticStreamGenerator::SyntheticStreamGenerator(
    std::vector<StreamPredicate> schema, GeneratorOptions options)
    : schema_(std::move(schema)), options_(options), rng_(options.seed) {
  assert(!schema_.empty());
  double total = 0.0;
  cumulative_weight_.reserve(schema_.size());
  for (const StreamPredicate& shape : schema_) {
    assert(shape.weight > 0.0);
    total += shape.weight;
    cumulative_weight_.push_back(total);
  }
}

const StreamPredicate& SyntheticStreamGenerator::RandomPredicate() {
  const double draw = rng_.NextDouble() * cumulative_weight_.back();
  const auto it = std::lower_bound(cumulative_weight_.begin(),
                                   cumulative_weight_.end(), draw);
  const size_t index = static_cast<size_t>(
      std::min<std::ptrdiff_t>(it - cumulative_weight_.begin(),
                               static_cast<std::ptrdiff_t>(schema_.size()) - 1));
  return schema_[index];
}

Term SyntheticStreamGenerator::RandomSubject(size_t window_size) {
  if (options_.profile == GeneratorProfile::kPaperUniform) {
    return Term::Integer(
        static_cast<int64_t>(rng_.NextBounded(std::max<size_t>(window_size, 1))));
  }
  const size_t pool =
      std::max<size_t>(1, window_size / options_.location_divisor);
  return Term::Integer(static_cast<int64_t>(rng_.NextBounded(pool)));
}

Term SyntheticStreamGenerator::RandomObject(size_t window_size) {
  if (options_.profile == GeneratorProfile::kPaperUniform) {
    return Term::Integer(
        static_cast<int64_t>(rng_.NextBounded(std::max<size_t>(window_size, 1))));
  }
  return Term::Integer(static_cast<int64_t>(
      rng_.NextBounded(static_cast<uint64_t>(options_.value_range))));
}

std::vector<Triple> SyntheticStreamGenerator::GenerateWindow(
    size_t window_size) {
  std::vector<Triple> items;
  items.reserve(window_size);
  for (size_t i = 0; i < window_size; ++i) {
    const StreamPredicate& shape = RandomPredicate();
    Triple triple;
    triple.predicate = shape.predicate;
    triple.subject = RandomSubject(window_size);
    if (shape.has_object) {
      triple.object =
          shape.object_pool.empty()
              ? RandomObject(window_size)
              : shape.object_pool[rng_.NextBounded(shape.object_pool.size())];
    }
    items.push_back(std::move(triple));
  }
  return items;
}

TripleWindow SyntheticStreamGenerator::GenerateTripleWindow(
    size_t window_size) {
  TripleWindow window;
  window.sequence = next_sequence_++;
  window.items = GenerateWindow(window_size);
  return window;
}

BurstyStreamGenerator::BurstyStreamGenerator(
    std::vector<StreamPredicate> schema, GeneratorOptions options,
    BurstOptions burst)
    : base_(std::move(schema), options),
      burst_(burst),
      // Decorrelate the overlay draws from the base generator so adding
      // the overlay never perturbs the base item sequence.
      overlay_rng_(options.seed ^ 0x9e3779b97f4a7c15ULL) {
  if (burst_.period == 0) burst_.period = 1;
  if (burst_.hot_subjects == 0) burst_.hot_subjects = 1;
  burst_.burst_fraction = std::min(std::max(burst_.burst_fraction, 0.0), 1.0);
  if (burst_.burst_intensity < 1.0) burst_.burst_intensity = 1.0;
}

bool BurstyStreamGenerator::InBurst(uint64_t position) const {
  if (burst_.shape == BurstShape::kSustained) return true;
  const uint64_t phase = position % burst_.period;
  return static_cast<double>(phase) <
         burst_.burst_fraction * static_cast<double>(burst_.period);
}

double BurstyStreamGenerator::IntensityAt(uint64_t position) const {
  return InBurst(position) ? burst_.burst_intensity : 1.0;
}

std::vector<Triple> BurstyStreamGenerator::Generate(size_t count) {
  std::vector<Triple> items = base_.GenerateWindow(count);
  const bool storm = burst_.shape == BurstShape::kHotKeyStorm;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t position = position_ + i;
    if (storm && InBurst(position) &&
        overlay_rng_.NextDouble() < burst_.hot_fraction) {
      // Collapse the subject onto the hot pool. Hot keys live outside the
      // base subject range so the storm is visible as distinct entities
      // (and hashes them onto a fixed small set of subject buckets).
      items[i].subject = Term::Integer(static_cast<int64_t>(
          (1u << 20) + overlay_rng_.NextBounded(burst_.hot_subjects)));
    }
  }
  position_ += count;
  return items;
}

}  // namespace streamasp
