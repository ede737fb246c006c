// Micro-benchmarks for the compact data plane, self-timed (no external
// bench framework, so this target always builds): PackedTerm pack/unpack
// throughput, columnar WindowStore append/evict vs a deque baseline, the
// packed-word join probe vs a deep-Term probe, and wire ingest (the
// session server's push parsing next to the per-line parser) — the
// primitives whose costs the pipeline-level benches can only observe in
// aggregate. wire_ingest is gated: the bench exits 1 when the push path
// loses its lead over the per-line path.
// Emits one machine-readable JSON document on stdout (schema in
// docs/benchmarks.md); human-readable notes go to stderr.
//
// Usage: micro_dataplane [scale]
//   scale multiplies every loop count (default 1); CI runs scale 1.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <new>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asp/packed_term.h"
#include "asp/symbol_table.h"
#include "asp/term.h"
#include "server/wire.h"
#include "stream/generator.h"
#include "stream/triple.h"
#include "stream/window_store.h"
#include "streamrule/traffic_workload.h"
#include "util/timer.h"

// Heap allocations since the counter was last reset: a counting global
// operator new, read by the wire_ingest probe. The bench runs on one
// thread, so a plain counter keeps the count from taxing what it counts.
size_t g_allocations = 0;

void* operator new(size_t size) {
  ++g_allocations;
  void* memory = std::malloc(size == 0 ? 1 : size);
  if (memory == nullptr) throw std::bad_alloc();
  return memory;
}

void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, size_t) noexcept { std::free(memory); }

namespace {

using namespace streamasp;

/// Deterministic splitmix64 stream: the benches need varied but
/// reproducible values, never wall-clock entropy.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

double NsPerOp(double wall_ms, size_t ops) {
  return ops == 0 ? 0.0 : wall_ms * 1e6 / static_cast<double>(ops);
}

struct ProbeResult {
  std::string json;  // One already-formatted JSON object line.
};

/// Pack/unpack round trips over a mixed term population: ~45% inline
/// integers, ~45% symbols, ~10% compound terms (the arena escape path,
/// hash-consed so repeated packs of an equal term hit the intern map).
ProbeResult BenchPackUnpack(const SymbolTablePtr& symbols, size_t scale) {
  const size_t n = 200000 * scale;
  const SymbolId functor = symbols->Intern("f");
  std::vector<Term> terms;
  terms.reserve(n);
  Rng rng(2017);
  size_t escapes = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = rng.Next();
    switch (r % 10) {
      case 0: {
        // Compound: f(k) over a small k universe so interning mixes cold
        // and hot arena hits like grounding workloads do.
        terms.push_back(Term::Function(
            functor, {Term::Integer(static_cast<int64_t>(r >> 4 & 1023))}));
        ++escapes;
        break;
      }
      default:
        if (r % 2 == 0) {
          // Signed inline range, including negatives.
          terms.push_back(Term::Integer(static_cast<int64_t>(r >> 8) -
                                        (1LL << 55)));
        } else {
          terms.push_back(
              Term::Symbol(static_cast<SymbolId>(r >> 8 & 0xffff)));
        }
        break;
    }
  }

  WallTimer pack_timer;
  std::vector<PackedTerm> packed;
  packed.reserve(n);
  for (const Term& t : terms) packed.emplace_back(t);
  const double pack_ms = pack_timer.ElapsedMillis();

  uint64_t sink = 0;
  WallTimer unpack_timer;
  for (const PackedTerm& p : packed) {
    sink += p.ToTerm().Hash();
  }
  const double unpack_ms = unpack_timer.ElapsedMillis();

  std::fprintf(stderr, "pack_unpack: %zu terms, sink %llu\n", n,
               static_cast<unsigned long long>(sink));
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"probe\": \"pack_unpack\", \"items\": %zu, "
      "\"escape_fraction\": %.3f, \"pack_ns_per_op\": %.2f, "
      "\"unpack_ns_per_op\": %.2f, \"arena_terms\": %zu}",
      n, static_cast<double>(escapes) / static_cast<double>(n),
      NsPerOp(pack_ms, n), NsPerOp(unpack_ms, n),
      PackedTermArena::Global().size());
  return ProbeResult{buf};
}

/// What the pre-packing data plane retained per window item: a triple of
/// full Term objects behind optionals (each Term carrying kind, payload,
/// and an args vector even when empty).
struct DeepTriple {
  std::optional<Term> subject;
  SymbolId predicate = kInvalidSymbol;
  std::optional<Term> object;
};

/// Sliding append/evict through the windower retention pattern (append
/// at the tail, evict the head once the window is full):
/// the columnar WindowStore over packed triples vs a deque of the old
/// deep-Term triples, plus each representation's retained bytes per
/// window item.
ProbeResult BenchColumnarWindow(const SymbolTablePtr& symbols, size_t scale) {
  const size_t n = 400000 * scale;
  const size_t window = 20000;
  const SymbolId pred = symbols->Intern("link");
  std::vector<uint64_t> raw;
  raw.reserve(n);
  Rng rng(4242);
  for (size_t i = 0; i < n; ++i) raw.push_back(rng.Next());

  WallTimer store_timer;
  WindowStore store;
  uint64_t store_sink = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = raw[i];
    store.Append(
        Triple{PackedTerm::Symbol(static_cast<SymbolId>(r & 0xffff)), pred,
               PackedTerm::Integer(static_cast<int64_t>(r >> 16 & 0xffff))});
    if (store.size() > window) {
      store_sink += store.Front().predicate;
      store.PopFront();
    }
  }
  const double store_ms = store_timer.ElapsedMillis();
  const size_t store_bytes = store.bytes();

  WallTimer deque_timer;
  std::deque<DeepTriple> baseline;
  uint64_t deque_sink = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = raw[i];
    baseline.push_back(DeepTriple{
        Term::Symbol(static_cast<SymbolId>(r & 0xffff)), pred,
        Term::Integer(static_cast<int64_t>(r >> 16 & 0xffff))});
    if (baseline.size() > window) {
      deque_sink += baseline.front().predicate;
      baseline.pop_front();
    }
  }
  const double deque_ms = deque_timer.ElapsedMillis();
  // Element footprint only; the deep plane's per-Term heap blocks and the
  // deque's block bookkeeping are not counted, so this under-counts the
  // baseline (favours it).
  const size_t deque_bytes = baseline.size() * sizeof(DeepTriple);

  std::fprintf(stderr, "columnar_window: sinks %llu/%llu\n",
               static_cast<unsigned long long>(store_sink),
               static_cast<unsigned long long>(deque_sink));
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"probe\": \"columnar_window\", \"items\": %zu, "
      "\"window\": %zu, \"store_ns_per_op\": %.2f, "
      "\"deep_deque_ns_per_op\": %.2f, \"store_bytes_per_triple\": %.1f, "
      "\"deep_bytes_per_triple\": %.1f}",
      n, window, NsPerOp(store_ms, n), NsPerOp(deque_ms, n),
      static_cast<double>(store_bytes) / static_cast<double>(window),
      static_cast<double>(deque_bytes) / static_cast<double>(window));
  return ProbeResult{buf};
}

struct DeepTermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

/// The grounder's join-index probe in isolation: hash a key and walk a
/// candidate bucket. Packed plane: the key is one 64-bit word, hashed by
/// splitmix and compared word-wise. Deep baseline: the same values as
/// Terms, hashed structurally and compared via deep equality — what the
/// PositionIndex did before the packed conversion.
ProbeResult BenchJoinProbe(const SymbolTablePtr& symbols, size_t scale) {
  const size_t keys = 1 << 15;
  const size_t probes = 2000000 * scale;
  const SymbolId functor = symbols->Intern("edge");

  std::unordered_map<uint64_t, uint32_t, PackedBitsHash> packed_index;
  std::unordered_map<Term, uint32_t, DeepTermHash> deep_index;
  packed_index.reserve(keys);
  deep_index.reserve(keys);
  std::vector<PackedTerm> packed_keys;
  std::vector<Term> deep_keys;
  packed_keys.reserve(keys);
  deep_keys.reserve(keys);
  Rng rng(7);
  for (size_t i = 0; i < keys; ++i) {
    const uint64_t r = rng.Next();
    // Half plain integers, half compound edge(a, b) keys: structural
    // hashing walks the compound args on every deep probe, while the
    // packed side probes the hash-consed word either way.
    const Term term =
        (i & 1) == 0
            ? Term::Integer(static_cast<int64_t>(r >> 16) - (1LL << 46))
            : Term::Function(functor,
                             {Term::Integer(static_cast<int64_t>(r & 0xffff)),
                              Term::Integer(static_cast<int64_t>(
                                  r >> 16 & 0xffff))});
    deep_keys.push_back(term);
    packed_keys.emplace_back(term);
    deep_index.emplace(term, static_cast<uint32_t>(i));
    packed_index.emplace(packed_keys.back().bits(),
                         static_cast<uint32_t>(i));
  }

  uint64_t packed_sink = 0;
  WallTimer packed_timer;
  for (size_t i = 0; i < probes; ++i) {
    const auto it = packed_index.find(packed_keys[i & (keys - 1)].bits());
    if (it != packed_index.end()) packed_sink += it->second;
  }
  const double packed_ms = packed_timer.ElapsedMillis();

  uint64_t deep_sink = 0;
  WallTimer deep_timer;
  for (size_t i = 0; i < probes; ++i) {
    const auto it = deep_index.find(deep_keys[i & (keys - 1)]);
    if (it != deep_index.end()) deep_sink += it->second;
  }
  const double deep_ms = deep_timer.ElapsedMillis();

  if (packed_sink != deep_sink) {
    std::fprintf(stderr, "join_probe: SINK MISMATCH %llu vs %llu\n",
                 static_cast<unsigned long long>(packed_sink),
                 static_cast<unsigned long long>(deep_sink));
    std::exit(1);
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"probe\": \"join_probe\", \"keys\": %zu, \"probes\": %zu, "
      "\"packed_ns_per_probe\": %.2f, \"deep_ns_per_probe\": %.2f, "
      "\"packed_speedup\": %.2f}",
      keys, probes, NsPerOp(packed_ms, probes), NsPerOp(deep_ms, probes),
      packed_ms > 0 ? deep_ms / packed_ms : 0.0);
  return ProbeResult{buf};
}

/// Wire ingest on the paper's workload: one 5000-line P' push payload
/// against a warm session symbol table (a live session has interned the
/// stream's vocabulary after its first window), through both parsers of
/// the one push grammar, alternating pass by pass:
///   * the push path — what the broker runs on the event-loop thread:
///     ParseRequestHead, then ParsePushBody's one scan and one batched
///     intern;
///   * the per-line path — ParseRequest's line strings, then
///     ParseTripleLine per line (perfbench's traced replay still times
///     this one).
/// Reports ns per triple and heap allocations per push for each, and the
/// payload's wire bytes per triple. Fails (exit 1) unless the push path
/// is at least kMinWireSpeedup times faster than the per-line path.
ProbeResult BenchWireIngest(size_t scale) {
  constexpr size_t kTriples = 5000;
  // Fourteen Release runs on a shared 4-vCPU host read a per-line / push
  // ratio of 1.67-1.91 (the allocation counts never varied); the bound
  // keeps a wide margin below that so only a real regression trips it.
  constexpr double kMinWireSpeedup = 1.3;
  const size_t repeats = 200 * scale;
  SymbolTablePtr stream_symbols = MakeSymbolTable();
  GeneratorOptions options;
  options.seed = 2017;
  SyntheticStreamGenerator generator(MakeTrafficSchema(*stream_symbols),
                                     options);
  std::string payload = "push s1";
  for (const Triple& triple : generator.GenerateWindow(kTriples)) {
    payload.push_back('\n');
    payload += stream_symbols->NameOf(triple.predicate);
    payload.push_back(' ');
    payload += triple.subject.ToString(*stream_symbols);
    if (triple.object.has_value()) {
      payload.push_back(' ');
      payload += triple.object.ToString(*stream_symbols);
    }
  }

  auto fail = [](const char* what) {
    std::fprintf(stderr, "wire_ingest: %s\n", what);
    std::exit(1);
  };
  SymbolTablePtr push_symbols = MakeSymbolTable();
  auto push_path = [&] {
    std::string_view body;
    StatusOr<WireRequest> request = ParseRequestHead(payload, &body);
    if (!request.ok()) fail("bad request head");
    StatusOr<std::vector<Triple>> batch = ParsePushBody(body, *push_symbols);
    if (!batch.ok() || batch->size() != kTriples) fail("bad push body");
    return std::move(*batch);
  };
  SymbolTablePtr line_symbols = MakeSymbolTable();
  auto per_line_path = [&] {
    StatusOr<WireRequest> request = ParseRequest(payload);
    if (!request.ok() || request->lines.size() != kTriples) {
      fail("bad request parse");
    }
    std::vector<Triple> batch;
    batch.reserve(request->lines.size());
    for (const std::string& line : request->lines) {
      StatusOr<Triple> triple = ParseTripleLine(line, *line_symbols);
      if (!triple.ok()) fail("bad triple line");
      batch.push_back(*triple);
    }
    return batch;
  };

  double push_ms = 0;
  double per_line_ms = 0;
  size_t push_allocations = 0;
  size_t per_line_allocations = 0;
  // Pass 0 warms the symbol tables and the allocator; it is not timed.
  for (size_t pass = 0; pass <= repeats; ++pass) {
    g_allocations = 0;
    WallTimer push_timer;
    const std::vector<Triple> pushed = push_path();
    const double push_pass_ms = push_timer.ElapsedMillis();
    const size_t push_pass_allocations = g_allocations;
    g_allocations = 0;
    WallTimer per_line_timer;
    const std::vector<Triple> per_line = per_line_path();
    const double per_line_pass_ms = per_line_timer.ElapsedMillis();
    const size_t per_line_pass_allocations = g_allocations;
    // Both tables interned the same names in the same order.
    if (pushed != per_line) fail("push and per-line paths disagree");
    if (pass > 0) {
      push_ms += push_pass_ms;
      per_line_ms += per_line_pass_ms;
      push_allocations = std::max(push_allocations, push_pass_allocations);
      per_line_allocations =
          std::max(per_line_allocations, per_line_pass_allocations);
    }
  }

  const size_t triples = kTriples * repeats;
  const double speedup = push_ms > 0 ? per_line_ms / push_ms : 0.0;
  std::fprintf(stderr,
               "wire_ingest: %zu pushes of %zu triples, push path %.2fx "
               "faster than per-line (bound %.2fx)\n",
               repeats, kTriples, speedup, kMinWireSpeedup);
  if (speedup < kMinWireSpeedup) fail("push path is not faster enough");
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"probe\": \"wire_ingest\", \"triples\": %zu, "
      "\"push_ns_per_triple\": %.2f, \"per_line_ns_per_triple\": %.2f, "
      "\"push_speedup\": %.2f, \"push_allocations_per_push\": %zu, "
      "\"per_line_allocations_per_push\": %zu, "
      "\"bytes_per_triple\": %.2f}",
      triples, NsPerOp(push_ms, triples), NsPerOp(per_line_ms, triples),
      speedup, push_allocations, per_line_allocations,
      static_cast<double>(payload.size()) / static_cast<double>(kTriples));
  return ProbeResult{buf};
}

}  // namespace

int main(int argc, char** argv) {
  const size_t scale =
      argc > 1 ? std::max<size_t>(1, std::strtoull(argv[1], nullptr, 10)) : 1;
  SymbolTablePtr symbols = MakeSymbolTable();

  std::vector<ProbeResult> results;
  // Warm-up pass pays allocator/page-fault costs, measured pass follows.
  BenchPackUnpack(symbols, scale);
  results.push_back(BenchPackUnpack(symbols, scale));
  results.push_back(BenchColumnarWindow(symbols, scale));
  results.push_back(BenchJoinProbe(symbols, scale));
  results.push_back(BenchWireIngest(scale));

  std::printf("{\n");
  std::printf("  \"bench\": \"micro_dataplane\",\n");
  std::printf("  \"scale\": %zu,\n", scale);
  std::printf("  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("%s%s\n", results[i].json.c_str(),
                i + 1 < results.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
