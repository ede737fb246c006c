// Shared JSON emission for the engine benches: one run record schema,
// keyed off the unified EngineStats snapshot, emitted identically by
// bench/async_pipeline and bench/sharded_pipeline. Every field is always
// present (zero when not applicable to the run's shape) so the schema is
// uniform across benches and runs; tools/check_bench_regression.py
// enforces the field list against the "schema" block in
// bench/baseline.json and fails on unknown or missing fields. The field
// semantics are documented in docs/benchmarks.md.
#ifndef STREAMASP_BENCH_BENCH_JSON_H_
#define STREAMASP_BENCH_BENCH_JSON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "streamrule/engine.h"

namespace streamasp {
namespace bench {

/// One bench run: identity/shape fields set by the bench leg, the rest
/// filled from the engine's EngineStats snapshot.
struct BenchRun {
  // --- run identity (set by the bench) ---
  std::string mode;
  std::string workload = "traffic_pprime";
  size_t shards = 0;        ///< Bucket bound (num_shards); 0 unsharded.
  size_t inflight = 0;      ///< 0 for sync runs.
  size_t workers = 0;
  size_t window_slide = 0;  ///< 0 for tumbling runs.
  bool reuse = false;
  bool reuse_solving = false;

  // --- wall-clock measurements (set by the bench) ---
  double wall_ms = 0;
  double triples_per_sec = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  double p99_emit_latency_ms = 0;  ///< Window close -> ordered delivery.
  long long unaccounted_windows = 0;

  // --- engine counters (FillFromEngineStats) ---
  uint64_t windows = 0;  ///< Delivered windows.
  uint64_t answers = 0;
  size_t max_queue_depth = 0;
  size_t max_reorder_depth = 0;
  uint64_t incremental_windows = 0;
  uint64_t grounding_fallbacks = 0;
  uint64_t grounding_rules_retained = 0;
  uint64_t grounding_rules_retracted = 0;
  uint64_t grounding_rules_new = 0;
  uint64_t incremental_solve_windows = 0;
  uint64_t solve_rebuilds = 0;
  uint64_t solver_rules_retained = 0;
  uint64_t solver_rules_retracted = 0;
  uint64_t solver_rules_new = 0;
  uint64_t warm_start_hits = 0;
  uint64_t atoms_touched = 0;
  uint64_t assignments_reused = 0;
  uint64_t fixpoint_maintained_windows = 0;
  /// atoms_touched / (atoms_touched + assignments_reused): the fraction
  /// of per-window solve state actually recomputed. Machine-independent
  /// for a fixed workload, so bench/baseline.json puts a ceiling on it —
  /// the delta-sized-solve claim is this ratio staying ≪ 1 on
  /// high-overlap sliding legs. 0 when no solving happened.
  double atoms_touched_ratio = 0;
  double ground_ms_total = 0;
  double solve_ms_total = 0;
  double reason_ms_total = 0;
  size_t window_store_bytes = 0;
  size_t atom_table_bytes = 0;
  double bytes_per_triple = 0;
  double completeness = 1.0;
  uint64_t shed_windows = 0;
};

/// The `p`-quantile (0 <= p <= 1) of `values`, interpolated linearly
/// between the two nearest ranks; 0 for no samples. Shared by every bench
/// that reports latency percentiles so their gates read the same figure.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Fills the engine-derived half of a run from the unified snapshot:
/// stream-level completeness and whole shed windows included.
inline void FillFromEngineStats(const EngineStats& stats, BenchRun* run) {
  run->windows = stats.delivered_windows;
  run->answers = stats.delivered_answers;
  run->max_queue_depth = stats.reasoning.max_queue_depth;
  run->max_reorder_depth = stats.reasoning.max_reorder_depth;
  run->incremental_windows = stats.reasoning.incremental_windows;
  run->grounding_fallbacks = stats.reasoning.grounding_fallbacks;
  run->grounding_rules_retained = stats.reasoning.grounding_rules_retained;
  run->grounding_rules_retracted = stats.reasoning.grounding_rules_retracted;
  run->grounding_rules_new = stats.reasoning.grounding_rules_new;
  run->incremental_solve_windows = stats.reasoning.incremental_solve_windows;
  run->solve_rebuilds = stats.reasoning.solve_rebuilds;
  run->solver_rules_retained = stats.reasoning.solver_rules_retained;
  run->solver_rules_retracted = stats.reasoning.solver_rules_retracted;
  run->solver_rules_new = stats.reasoning.solver_rules_new;
  run->warm_start_hits = stats.reasoning.warm_start_hits;
  run->atoms_touched = stats.reasoning.atoms_touched;
  run->assignments_reused = stats.reasoning.assignments_reused;
  run->fixpoint_maintained_windows =
      stats.reasoning.fixpoint_maintained_windows;
  const double touched_total = static_cast<double>(
      stats.reasoning.atoms_touched + stats.reasoning.assignments_reused);
  run->atoms_touched_ratio =
      touched_total > 0
          ? static_cast<double>(stats.reasoning.atoms_touched) / touched_total
          : 0.0;
  run->ground_ms_total = stats.reasoning.total_ground_ms;
  run->solve_ms_total = stats.reasoning.total_solve_ms;
  run->reason_ms_total =
      stats.reasoning.total_ground_ms + stats.reasoning.total_solve_ms;
  run->window_store_bytes = stats.reasoning.window_store_bytes;
  run->atom_table_bytes = stats.reasoning.atom_table_bytes;
  run->bytes_per_triple = stats.bytes_per_triple();
  run->completeness = stats.completeness();
  run->shed_windows = stats.shed_windows();
}

/// Prints the whole bench document: header + every run, one JSON object
/// per run line, uniform field order. The field list here, the BenchRun
/// struct, and bench/baseline.json's "schema" block must stay in sync —
/// the regression checker cross-validates the latter two.
inline void PrintBenchJson(const char* bench_name, const char* workload,
                           size_t items, size_t window_size,
                           unsigned hardware_concurrency,
                           const std::vector<BenchRun>& runs) {
  std::printf("{\n");
  std::printf("  \"bench\": \"%s\",\n", bench_name);
  std::printf("  \"workload\": \"%s\",\n", workload);
  std::printf("  \"items\": %zu,\n", items);
  std::printf("  \"window_size\": %zu,\n", window_size);
  std::printf("  \"hardware_concurrency\": %u,\n", hardware_concurrency);
  std::printf("  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const BenchRun& run = runs[i];
    std::printf(
        "    {\"mode\": \"%s\", \"workload\": \"%s\", \"shards\": %zu, "
        "\"inflight\": %zu, \"workers\": %zu, \"window_slide\": %zu, "
        "\"reuse\": %s, \"reuse_solving\": %s, "
        "\"wall_ms\": %.2f, \"triples_per_sec\": %.1f, "
        "\"p50_latency_ms\": %.3f, \"p99_latency_ms\": %.3f, "
        "\"windows\": %llu, \"answers\": %llu, "
        "\"max_queue_depth\": %zu, \"max_reorder_depth\": %zu, "
        "\"incremental_windows\": %llu, \"grounding_fallbacks\": %llu, "
        "\"grounding_rules_retained\": %llu, "
        "\"grounding_rules_retracted\": %llu, "
        "\"grounding_rules_new\": %llu, "
        "\"incremental_solve_windows\": %llu, \"solve_rebuilds\": %llu, "
        "\"solver_rules_retained\": %llu, \"solver_rules_retracted\": %llu, "
        "\"solver_rules_new\": %llu, \"warm_start_hits\": %llu, "
        "\"atoms_touched\": %llu, \"assignments_reused\": %llu, "
        "\"fixpoint_maintained_windows\": %llu, "
        "\"atoms_touched_ratio\": %.4f, "
        "\"ground_ms_total\": %.2f, \"solve_ms_total\": %.2f, "
        "\"reason_ms_total\": %.2f, "
        "\"window_store_bytes\": %zu, \"atom_table_bytes\": %zu, "
        "\"bytes_per_triple\": %.1f, "
        "\"completeness\": %.4f, \"shed_windows\": %llu, "
        "\"p99_emit_latency_ms\": %.3f, \"unaccounted_windows\": %lld}%s\n",
        run.mode.c_str(), run.workload.c_str(), run.shards, run.inflight,
        run.workers, run.window_slide, run.reuse ? "true" : "false",
        run.reuse_solving ? "true" : "false", run.wall_ms,
        run.triples_per_sec, run.p50_latency_ms, run.p99_latency_ms,
        static_cast<unsigned long long>(run.windows),
        static_cast<unsigned long long>(run.answers),
        run.max_queue_depth, run.max_reorder_depth,
        static_cast<unsigned long long>(run.incremental_windows),
        static_cast<unsigned long long>(run.grounding_fallbacks),
        static_cast<unsigned long long>(run.grounding_rules_retained),
        static_cast<unsigned long long>(run.grounding_rules_retracted),
        static_cast<unsigned long long>(run.grounding_rules_new),
        static_cast<unsigned long long>(run.incremental_solve_windows),
        static_cast<unsigned long long>(run.solve_rebuilds),
        static_cast<unsigned long long>(run.solver_rules_retained),
        static_cast<unsigned long long>(run.solver_rules_retracted),
        static_cast<unsigned long long>(run.solver_rules_new),
        static_cast<unsigned long long>(run.warm_start_hits),
        static_cast<unsigned long long>(run.atoms_touched),
        static_cast<unsigned long long>(run.assignments_reused),
        static_cast<unsigned long long>(run.fixpoint_maintained_windows),
        run.atoms_touched_ratio,
        run.ground_ms_total, run.solve_ms_total, run.reason_ms_total,
        run.window_store_bytes, run.atom_table_bytes, run.bytes_per_triple,
        run.completeness, static_cast<unsigned long long>(run.shed_windows),
        run.p99_emit_latency_ms, run.unaccounted_windows,
        i + 1 < runs.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
}

}  // namespace bench
}  // namespace streamasp

#endif  // STREAMASP_BENCH_BENCH_JSON_H_
