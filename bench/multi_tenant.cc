// Multi-tenant fairness bench for the shared reasoner pool: one steady
// tenant (DRR weight 4) measured self-clocked against three saturating
// tenants (weight 1 each) on a deliberately small 2-thread pool.
//
// Legs:
//   * solo-steady      — the steady tenant alone on the shared pool: the
//                        uncontended latency reference.
//   * shared-steady    — the same tenant, same pool, while three greedy
//                        tenants keep their lanes permanently backlogged.
//                        The isolation claim is its p99 emit latency
//                        staying within a small factor of solo-steady.
//   * shared-greedy    — one of the saturating tenants (representative):
//                        lossless under kBlock admission, so its
//                        completeness floor is 1.0 even while saturated.
//   * dedicated-steady — the same contention shape with every engine on
//                        its own one-thread private pool (no shared
//                        pool): the O(sessions)-thread baseline the
//                        shared pool replaces.
//
// Pacing is self-clocked, not timed. The steady tenant pushes one window
// and flushes (a delivery barrier) per round, so each round's emit
// latency — window close to ordered delivery — is set by how long the
// pool makes the window wait behind other tenants, not by host speed.
// The greedy pushers run under blocking backpressure against their own
// bounded window queues: each pusher parks inside PushBatch whenever its
// lane is full, so the lane backlog is pinned at queue capacity (maximal
// DRR pressure) without burning host CPU that would perturb the steady
// tenant's measurement on small CI machines. The solo/shared p99 ratio in
// bench/baseline.json is therefore machine-independent: weight 4 of 7
// and a per-lane inflight cap of 1 bound how many greedy windows a
// steady window can wait behind, on any host.
//
// Every leg reports the shared BenchRun schema (bench/bench_json.h);
// human-readable notes go to stderr.
//
// Usage: multi_tenant [items] [window_size]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace streamasp;
using bench::BenchRun;
using bench::Percentile;
using Clock = std::chrono::steady_clock;

constexpr size_t kPoolThreads = 2;
constexpr size_t kGreedyTenants = 3;
constexpr size_t kSteadyWeight = 4;
constexpr size_t kGreedyWeight = 1;
constexpr const char* kWorkload = "traffic_pprime_multi_tenant";

/// Pre-generates `count` exact windows of the traffic stream so window
/// boundaries land on PushBatch boundaries (every push closes exactly one
/// window — what makes the close-time stamps and the per-engine pushed
/// window counts exact).
std::vector<std::vector<Triple>> MakeWindows(const SymbolTablePtr& symbols,
                                             size_t count, size_t window_size,
                                             uint32_t seed) {
  GeneratorOptions options;
  options.seed = seed;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols), options);
  std::vector<std::vector<Triple>> windows;
  windows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    windows.push_back(generator.GenerateWindow(window_size));
  }
  return windows;
}

EngineConfig SteadyConfig(std::shared_ptr<SharedReasonerPool> pool,
                          size_t window_size) {
  EngineConfig config;
  config.pipeline.window_size = window_size;
  config.pipeline.async = true;
  config.pipeline.max_inflight_windows = 4;
  if (pool != nullptr) {
    config.pipeline.shared_pool = std::move(pool);
    config.pipeline.pool_weight = kSteadyWeight;
    config.pipeline.pool_max_inflight = 2;
  } else {
    config.pipeline.num_reason_workers = 1;
  }
  return config;
}

EngineConfig GreedyConfig(std::shared_ptr<SharedReasonerPool> pool,
                          size_t window_size) {
  EngineConfig config;
  config.pipeline.window_size = window_size;
  config.pipeline.async = true;
  // A deep-but-bounded window queue: the pusher parks against it under
  // kBlock backpressure, which is what pins the lane backlog at capacity.
  config.pipeline.max_inflight_windows = 8;
  if (pool != nullptr) {
    config.pipeline.shared_pool = std::move(pool);
    config.pipeline.pool_weight = kGreedyWeight;
    config.pipeline.pool_max_inflight = 1;
  } else {
    config.pipeline.num_reason_workers = 1;
  }
  return config;
}

/// One saturating tenant: an engine plus a pusher thread that cycles a
/// small set of pre-generated windows back-to-back until stopped. Under
/// blocking backpressure the pusher spends its life parked in PushBatch,
/// so the lane stays maximally backlogged at near-zero host CPU cost.
struct GreedyTenant {
  std::unique_ptr<StreamEngine> engine;
  std::thread pusher;
  std::vector<std::vector<Triple>> windows;
  std::atomic<uint64_t> pushed_windows{0};
};

/// The steady tenant's self-clocked measurement loop: one window + flush
/// barrier per round, emit latency stamped at window close. Returns the
/// filled run record (identity fields `mode`/`workers` set by the caller's
/// leg wrapper).
BenchRun RunSteady(const Program& program,
                   const std::vector<std::vector<Triple>>& windows,
                   const EngineConfig& config) {
  std::vector<Clock::time_point> close_times(windows.size());
  std::vector<double> latencies;
  std::vector<double> emit_latencies;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &program, config, [&](EmissionEvent& event) {
        if (event.kind != EmissionEvent::Kind::kResult) return;
        latencies.push_back(event.result->latency_ms);
        if (event.sequence < close_times.size()) {
          emit_latencies.push_back(std::chrono::duration<double, std::milli>(
                                       Clock::now() -
                                       close_times[event.sequence])
                                       .count());
        }
      });
  if (!engine.ok()) {
    std::fprintf(stderr, "steady engine: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }

  WallTimer wall;
  for (size_t k = 0; k < windows.size(); ++k) {
    // Stamp before the push: the window closes inside PushBatch.
    close_times[k] = Clock::now();
    (*engine)->PushBatch(windows[k]);
    (*engine)->Flush();
  }
  const double wall_ms = wall.ElapsedMillis();

  const EngineStats stats = (*engine)->stats();
  BenchRun run;
  run.workload = kWorkload;
  run.inflight = config.pipeline.max_inflight_windows;
  run.wall_ms = wall_ms;
  const size_t items = windows.size() * (windows.empty() ? 0 : windows[0].size());
  run.triples_per_sec =
      wall_ms > 0 ? static_cast<double>(items) / (wall_ms / 1000.0) : 0;
  run.p50_latency_ms = Percentile(latencies, 0.50);
  run.p99_latency_ms = Percentile(latencies, 0.99);
  bench::FillFromEngineStats(stats, &run);
  run.p99_emit_latency_ms = Percentile(emit_latencies, 0.99);
  run.unaccounted_windows = static_cast<long long>(windows.size()) -
                            static_cast<long long>(stats.accounted_windows());
  return run;
}

void StartGreedyTenants(const Program& program, const SymbolTablePtr& symbols,
                        std::shared_ptr<SharedReasonerPool> pool,
                        size_t window_size, std::atomic<bool>* stop,
                        std::vector<std::unique_ptr<GreedyTenant>>* tenants) {
  for (size_t i = 0; i < kGreedyTenants; ++i) {
    auto tenant = std::make_unique<GreedyTenant>();
    tenant->windows = MakeWindows(symbols, 8, window_size,
                                  /*seed=*/static_cast<uint32_t>(4000 + i));
    StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
        &program, GreedyConfig(pool, window_size), [](EmissionEvent&) {});
    if (!engine.ok()) {
      std::fprintf(stderr, "greedy engine: %s\n",
                   engine.status().ToString().c_str());
      std::exit(1);
    }
    tenant->engine = std::move(*engine);
    GreedyTenant* raw = tenant.get();
    tenant->pusher = std::thread([raw, stop] {
      size_t next = 0;
      while (!stop->load(std::memory_order_relaxed)) {
        raw->engine->PushBatch(raw->windows[next % raw->windows.size()]);
        raw->pushed_windows.fetch_add(1, std::memory_order_relaxed);
        ++next;
      }
    });
    tenants->push_back(std::move(tenant));
  }
}

/// Stops the pushers, drains every greedy engine, and returns the
/// representative (first) tenant's run record.
BenchRun SettleGreedyTenants(
    std::atomic<bool>* stop,
    std::vector<std::unique_ptr<GreedyTenant>>* tenants) {
  stop->store(true, std::memory_order_relaxed);
  for (auto& tenant : *tenants) tenant->pusher.join();
  for (auto& tenant : *tenants) tenant->engine->Flush();

  GreedyTenant& sample = *(*tenants)[0];
  const EngineStats stats = sample.engine->stats();
  const uint64_t pushed =
      sample.pushed_windows.load(std::memory_order_relaxed);
  BenchRun run;
  run.workload = kWorkload;
  run.inflight = 8;
  // wall_ms/throughput/latency percentiles stay 0: the leg is open-ended
  // (it runs exactly as long as the steady measurement), so only the
  // accounting fields are meaningful.
  bench::FillFromEngineStats(stats, &run);
  run.unaccounted_windows = static_cast<long long>(pushed) -
                            static_cast<long long>(stats.accounted_windows());
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t items = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60000;
  const size_t window_size =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2000;
  const size_t rounds = std::max<size_t>(20, items / window_size);

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  const std::vector<std::vector<Triple>> steady_windows =
      MakeWindows(symbols, rounds, window_size, /*seed=*/2017);

  std::fprintf(stderr,
               "multi_tenant bench: %zu rounds x window %zu, pool %zu "
               "threads, %zu greedy tenants, %u cores\n",
               rounds, window_size, kPoolThreads, kGreedyTenants,
               std::thread::hardware_concurrency());

  std::vector<BenchRun> runs;

  // Warm-up (allocator/page-fault costs), then the solo reference leg.
  {
    auto pool = std::make_shared<SharedReasonerPool>(kPoolThreads);
    RunSteady(*program, steady_windows, SteadyConfig(pool, window_size));
  }
  {
    auto pool = std::make_shared<SharedReasonerPool>(kPoolThreads);
    BenchRun solo =
        RunSteady(*program, steady_windows, SteadyConfig(pool, window_size));
    solo.mode = "solo-steady";
    solo.workers = kPoolThreads;
    runs.push_back(std::move(solo));
  }

  // Contended leg: greedy lanes saturate first, then the steady tenant
  // runs its self-clocked loop against them.
  {
    auto pool = std::make_shared<SharedReasonerPool>(kPoolThreads);
    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<GreedyTenant>> tenants;
    StartGreedyTenants(*program, symbols, pool, window_size, &stop,
                       &tenants);
    BenchRun steady =
        RunSteady(*program, steady_windows, SteadyConfig(pool, window_size));
    steady.mode = "shared-steady";
    steady.workers = kPoolThreads;
    BenchRun greedy = SettleGreedyTenants(&stop, &tenants);
    greedy.mode = "shared-greedy";
    greedy.workers = kPoolThreads;
    runs.push_back(std::move(steady));
    runs.push_back(std::move(greedy));
    tenants.clear();  // Engines drain their lanes before the pool dies.
  }

  // Per-tenant-threads baseline: same contention shape, every engine on
  // its own one-thread private pool (the O(sessions) budget the shared
  // pool replaces).
  {
    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<GreedyTenant>> tenants;
    StartGreedyTenants(*program, symbols, /*pool=*/nullptr, window_size,
                       &stop, &tenants);
    BenchRun steady = RunSteady(*program, steady_windows,
                                SteadyConfig(nullptr, window_size));
    steady.mode = "dedicated-steady";
    steady.workers = 1 + kGreedyTenants;  // One reasoning thread each.
    SettleGreedyTenants(&stop, &tenants);
    runs.push_back(std::move(steady));
    tenants.clear();
  }

  bench::PrintBenchJson("multi_tenant", kWorkload, rounds * window_size,
                        window_size, std::thread::hardware_concurrency(),
                        runs);
  return 0;
}
