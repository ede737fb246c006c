#ifndef STREAMASP_STREAM_GENERATOR_H_
#define STREAMASP_STREAM_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "asp/symbol_table.h"
#include "stream/triple.h"
#include "util/rng.h"

namespace streamasp {

/// How subject/object values are drawn.
enum class GeneratorProfile {
  /// The paper's literal setup (§IV "Input window"): subjects and objects
  /// are uniform integers in [0, n) where n is the window size. Faithful,
  /// but with realistic rule thresholds almost no rule ever fires, so
  /// derived atoms are rare.
  kPaperUniform,

  /// Subjects (entities/locations) are drawn from a small pool
  /// (n / location_divisor) and objects from [0, value_range), so that
  /// joins and threshold comparisons fire at a healthy rate. Used by the
  /// accuracy figures; documented as a substitution in ARCHITECTURE.md
  /// ("Substitutions and known limits").
  kEventRich,
};

/// Configuration of the synthetic stream.
struct GeneratorOptions {
  uint64_t seed = 42;
  GeneratorProfile profile = GeneratorProfile::kEventRich;

  /// kEventRich: pool size of subjects is max(1, window_size / this).
  size_t location_divisor = 50;

  /// kEventRich: objects are uniform in [0, value_range).
  int64_t value_range = 100;
};

/// Shape of one stream predicate the generator can emit.
struct StreamPredicate {
  SymbolId predicate = kInvalidSymbol;
  bool has_object = false;  ///< true => arity 2 (subject + object).

  /// When non-empty, objects are drawn uniformly from this pool instead of
  /// the numeric range — e.g. car_in_smoke's {high, low} status values.
  std::vector<Term> object_pool;

  /// Relative frequency of this predicate in the stream (must be > 0).
  /// The paper's P' experiment has duplicated car_number instances at 25%
  /// of the window, which the figure benches reproduce by weighting it.
  double weight = 1.0;
};

/// Deterministic synthetic RDF stream over a fixed predicate schema,
/// following the paper's workload: every item's predicate is drawn from
/// inpre(P), values are integers bounded by the window size (or by the
/// event-rich pools).
class SyntheticStreamGenerator {
 public:
  SyntheticStreamGenerator(std::vector<StreamPredicate> schema,
                           GeneratorOptions options);

  /// Generates `window_size` triples. Deterministic in (seed, call
  /// sequence); successive calls continue the stream.
  std::vector<Triple> GenerateWindow(size_t window_size);

  /// Generates a window wrapped with the next sequence number.
  TripleWindow GenerateTripleWindow(size_t window_size);

 private:
  Term RandomSubject(size_t window_size);
  Term RandomObject(size_t window_size);
  const StreamPredicate& RandomPredicate();

  std::vector<StreamPredicate> schema_;
  std::vector<double> cumulative_weight_;
  GeneratorOptions options_;
  Rng rng_;
  uint64_t next_sequence_ = 0;
};

/// Adversarial load shapes for the overload tests and the burst-overload
/// bench legs: how the stream's arrival rate and key skew vary over time.
enum class BurstShape {
  /// Periodic flash-crowd spikes: inside each spike the intended arrival
  /// rate jumps to burst_intensity× the base rate (content stays the base
  /// distribution). Models breaking-news / incident traffic.
  kFlashCrowd,
  /// Periodic hot-key storms: spikes additionally collapse subjects onto
  /// a tiny hot pool, so subject-keyed bucketed consumers see one or two
  /// buckets
  /// absorb the whole spike. Models a single hot entity going viral.
  kHotKeyStorm,
  /// Sustained overload: every position is "in burst" at burst_intensity,
  /// no recovery valleys. Models steady-state over-admission.
  kSustained,
};

constexpr const char* BurstShapeName(BurstShape shape) {
  switch (shape) {
    case BurstShape::kFlashCrowd:
      return "flash-crowd";
    case BurstShape::kHotKeyStorm:
      return "hot-key-storm";
    case BurstShape::kSustained:
      return "sustained";
  }
  return "unknown";
}

/// Configuration of the adversarial load shape.
struct BurstOptions {
  BurstShape shape = BurstShape::kFlashCrowd;

  /// Items per burst cycle (spike + recovery valley).
  size_t period = 8192;

  /// Fraction of each period spent inside the spike, in (0, 1].
  double burst_fraction = 0.25;

  /// Intended arrival-rate multiplier inside a spike (IntensityAt); the
  /// generator itself is pull-based, so producers apply this as a pacing
  /// hint — push IntensityAt(p)× the sustainable base rate at position p.
  double burst_intensity = 4.0;

  /// kHotKeyStorm: size of the hot subject pool a spike collapses onto.
  size_t hot_subjects = 4;

  /// kHotKeyStorm: probability an in-spike item draws its subject from
  /// the hot pool instead of the base distribution.
  double hot_fraction = 0.9;
};

/// Deterministic bursty/adversarial stream: base items come from a
/// SyntheticStreamGenerator, and a position-driven overlay applies the
/// BurstShape — rate spikes are exposed as pacing hints (IntensityAt) and
/// hot-key storms rewrite in-spike subjects onto the hot pool. Determinism
/// is in (seed, call sequence), like the base generator, and the overlay
/// is a pure function of the item's global position, so two runs with the
/// same seed and chunking see byte-identical streams.
class BurstyStreamGenerator {
 public:
  BurstyStreamGenerator(std::vector<StreamPredicate> schema,
                        GeneratorOptions options, BurstOptions burst);

  /// Generates the next `count` items of the stream (positions continue
  /// across calls).
  std::vector<Triple> Generate(size_t count);

  /// True when global position `position` falls inside a spike.
  bool InBurst(uint64_t position) const;

  /// Intended arrival-rate multiplier at `position` (>= 1.0); producers
  /// multiply their base push rate by this to realize the load shape.
  double IntensityAt(uint64_t position) const;

  /// Global position of the next item Generate will produce.
  uint64_t position() const { return position_; }

  const BurstOptions& burst_options() const { return burst_; }

 private:
  SyntheticStreamGenerator base_;
  BurstOptions burst_;
  Rng overlay_rng_;
  uint64_t position_ = 0;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAM_GENERATOR_H_
