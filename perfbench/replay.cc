#include "perfbench/replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "perfbench/oracle.h"
#include "perfbench/stats.h"
#include "server/wire.h"
#include "stream/query_processor.h"
#include "streamrule/accuracy.h"
#include "streamrule/combining_handler.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/random_partitioner.h"
#include "streamrule/reasoner.h"

namespace perfbench {

using namespace streamasp;

namespace {

using Clock = std::chrono::steady_clock;

/// Spans kept in memory, timed against one origin.
class Tracer {
 public:
  int Begin(const char* name, int parent, uint64_t window) {
    spans_.push_back(Span{name, 0, 0, parent, window});
    spans_.back().start_ns = Now();
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = Now(); }
  /// A child span whose extent a layer reported itself (a phase time
  /// returned in its result), laid out from `start_ns`.
  int64_t AddReported(const char* name, int64_t start_ns, double ms, int parent,
                      uint64_t window) {
    const int64_t end_ns =
        std::min(start_ns + static_cast<int64_t>(ms * 1e6),
                 spans_[parent].end_ns);
    spans_.push_back(Span{name, start_ns, std::max(start_ns, end_ns), parent,
                          window});
    return spans_.back().end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Layers in call order; "window" is the root span (the whole service).
const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = {
      "window",             "server.frame_decode", "server.parse_request",
      "server.parse_triples", "stream.window",     "streamrule.partition",
      "streamrule.reason",  "streamrule.convert",  "ground.ground",
      "solve.solve",        "streamrule.combine",  "server.format_event",
      "server.encode_frame"};
  return names;
}

/// Per-window counts the replay records next to its spans.
struct WindowCounts {
  double push_bytes_per_triple = 0;
  double event_bytes = 0;
  double delta_items = 0;
  double partitions = 0;
  double duplication_share = 0;
  double partition_skew = 0;
  double answers = 0;
  double reason_sum_ms = 0;
  double critical_path_ms = 0;
  double rules = 0;
  double atoms = 0;
  double models = 0;
  double rules_retained = 0;
  double rules_new = 0;
  double fallbacks = 0;
  double atoms_touched = 0;
  double rebuilds = 0;
};

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50).value;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string module = span.name.substr(0, span.name.find('.'));
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                  "{\"span\": %zu, \"parent\": %d, \"window\": %llu}}%s\n",
                  JsonString(span.name).c_str(), JsonString(module).c_str(),
                  span.start_ns / 1e3, (span.end_ns - span.start_ns) / 1e3, i,
                  span.parent, static_cast<unsigned long long>(span.window),
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace

ReplayResult RunTracedReplay(const SessionPlan& plan, size_t windows,
                             const std::string& out_dir,
                             const std::string& label) {
  ReplayResult result;
  auto fail = [&result](const std::string& what, const Status& status) {
    result.error = what + ": " + status.ToString();
    return result;
  };

  std::vector<WindowAnswers> oracle;
  Status status = ComputeOracle(plan, &oracle);
  if (!status.ok()) return fail("oracle", status);

  // What the server builds when the session opens.
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(plan.program_text);
  if (!program.ok()) return fail("program", program.status());
  StatusOr<InputDependencyGraph> graph = InputDependencyGraph::Build(*program);
  if (!graph.ok()) return fail("dependency graph", graph.status());
  StatusOr<PartitioningPlan> partitioning =
      DecomposeInputDependencyGraph(*graph);
  if (!partitioning.ok()) return fail("decomposition", partitioning.status());
  const PartitioningHandler handler(*partitioning);
  const CombiningHandler combiner;
  ReasonerOptions reasoner_options;
  if (plan.reuse_solving) {
    reasoner_options.reuse_grounding = true;
    reasoner_options.solving.reuse_solving = true;
    reasoner_options.incremental.assemble_output = false;
  }
  const Reasoner reasoner(&*program, reasoner_options);
  std::vector<std::unique_ptr<IncrementalGrounder>> grounders;
  std::vector<std::unique_ptr<IncrementalSolver>> solvers;

  std::vector<TripleWindow> emitted;
  StreamQueryProcessor query(
      plan.window, plan.slide == 0 ? plan.window : plan.slide,
      [&emitted](TripleWindow window) { emitted.push_back(std::move(window)); });
  for (const PredicateSignature& sig : program->input_predicates()) {
    query.RegisterPredicate(sig.name);
  }
  FrameDecoder decoder;

  Tracer tracer;
  std::vector<WindowCounts> counts(windows);
  std::vector<int> roots(windows, -1);
  for (size_t w = 0; w < windows; ++w) {
    const std::string& frame = plan.frames[plan.FrameOf(w)];
    WindowCounts& count = counts[w];
    const int root = tracer.Begin("window", -1, w);
    roots[w] = root;

    int span = tracer.Begin("server.frame_decode", root, w);
    decoder.Feed(frame);
    std::string payload;
    const bool framed = decoder.Next(&payload);
    tracer.End(span);
    if (!framed) return fail("frame", decoder.status());

    span = tracer.Begin("server.parse_request", root, w);
    StatusOr<WireRequest> request = ParseRequest(payload);
    tracer.End(span);
    if (!request.ok()) return fail("request", request.status());

    span = tracer.Begin("server.parse_triples", root, w);
    std::vector<Triple> batch;
    batch.reserve(request->lines.size());
    for (const std::string& line : request->lines) {
      StatusOr<Triple> triple = ParseTripleLine(line, *symbols);
      if (!triple.ok()) return fail("triple", triple.status());
      batch.push_back(*triple);
    }
    tracer.End(span);
    count.push_bytes_per_triple =
        static_cast<double>(frame.size()) / static_cast<double>(batch.size());

    span = tracer.Begin("stream.window", root, w);
    emitted.clear();
    query.PushBatch(batch);
    tracer.End(span);
    if (emitted.size() != 1) {
      result.error = "push " + std::to_string(w) + " did not close a window";
      return result;
    }
    TripleWindow& window = emitted[0];
    count.delta_items =
        static_cast<double>(window.expired.size() + window.admitted.size());

    // Partitioning (Algorithm 1), the delta routed like the items.
    const int partition_span = tracer.Begin("streamrule.partition", root, w);
    std::vector<std::vector<Triple>> parts = handler.Partition(window.items);
    std::vector<TripleWindow> subs(parts.size());
    std::vector<std::vector<Triple>> expired;
    std::vector<std::vector<Triple>> admitted;
    const bool delta = plan.reuse_solving && window.has_delta;
    if (delta) {
      expired = handler.Partition(window.expired, false);
      admitted = handler.Partition(window.admitted, false);
    }
    for (size_t p = 0; p < parts.size(); ++p) {
      subs[p].sequence = window.sequence;
      subs[p].items = std::move(parts[p]);
      if (delta) {
        subs[p].has_delta = true;
        subs[p].delta_base = window.delta_base;
        subs[p].expired = std::move(expired[p]);
        subs[p].admitted = std::move(admitted[p]);
      }
    }
    tracer.End(partition_span);
    size_t partition_items = 0;
    size_t largest = 0;
    for (const TripleWindow& sub : subs) {
      partition_items += sub.items.size();
      largest = std::max(largest, sub.items.size());
    }
    count.partitions = static_cast<double>(subs.size());
    count.duplication_share =
        window.items.empty()
            ? 0
            : static_cast<double>(partition_items - window.items.size()) /
                  static_cast<double>(window.items.size());
    count.partition_skew =
        partition_items == 0
            ? 1
            : static_cast<double>(largest) * static_cast<double>(subs.size()) /
                  static_cast<double>(partition_items);

    // Reasoning, partitions inline one after another, as a pooled session
    // runs them.
    while (plan.reuse_solving && grounders.size() < subs.size()) {
      grounders.push_back(std::make_unique<IncrementalGrounder>(
          &*program, reasoner_options.grounding, reasoner_options.incremental));
      solvers.push_back(
          std::make_unique<IncrementalSolver>(reasoner_options.solving));
    }
    std::vector<std::vector<GroundAnswer>> per_partition;
    double slowest_ms = 0;
    for (size_t p = 0; p < subs.size(); ++p) {
      span = tracer.Begin("streamrule.reason", root, w);
      StatusOr<ReasonerResult> outcome =
          plan.reuse_solving ? reasoner.Process(subs[p], grounders[p].get(),
                                                solvers[p].get())
                             : reasoner.Process(subs[p]);
      tracer.End(span);
      if (!outcome.ok()) return fail("reason", outcome.status());
      int64_t at = tracer.spans()[span].start_ns;
      at = tracer.AddReported("streamrule.convert", at, outcome->convert_ms,
                              span, w);
      at = tracer.AddReported("ground.ground", at, outcome->ground_ms, span, w);
      tracer.AddReported("solve.solve", at, outcome->solve_ms, span, w);
      const Span& reason = tracer.spans()[span];
      const double reason_ms = (reason.end_ns - reason.start_ns) / 1e6;
      count.reason_sum_ms += reason_ms;
      slowest_ms = std::max(slowest_ms, reason_ms);
      count.rules += static_cast<double>(outcome->grounding.num_rules);
      count.atoms += static_cast<double>(outcome->grounding.num_atoms);
      count.rules_retained +=
          static_cast<double>(outcome->grounding.rules_retained);
      count.rules_new += static_cast<double>(outcome->grounding.rules_new);
      count.fallbacks +=
          static_cast<double>(outcome->grounding.incremental_fallbacks);
      count.atoms_touched += static_cast<double>(
          plan.reuse_solving ? outcome->solving.atoms_touched
                             : outcome->grounding.num_atoms);
      count.rebuilds += static_cast<double>(outcome->solving.solve_rebuilds);
      count.models += static_cast<double>(outcome->answers.size());
      per_partition.push_back(std::move(outcome->answers));
    }

    const int combine_span = tracer.Begin("streamrule.combine", root, w);
    StatusOr<std::vector<GroundAnswer>> answers =
        combiner.Combine(per_partition);
    tracer.End(combine_span);
    if (!answers.ok()) return fail("combine", answers.status());
    count.answers = static_cast<double>(answers->size());
    const Span& partition = tracer.spans()[partition_span];
    const Span& combine = tracer.spans()[combine_span];
    count.critical_path_ms = (partition.end_ns - partition.start_ns) / 1e6 +
                             slowest_ms +
                             (combine.end_ns - combine.start_ns) / 1e6;

    ParallelReasonerResult combined;
    combined.answers = std::move(*answers);
    EmissionEvent emission;
    emission.sequence = window.sequence;
    emission.window = &window;
    emission.result = &combined;
    const SessionEvent event{plan.name, w, *symbols, emission};
    span = tracer.Begin("server.format_event", root, w);
    const std::string text = FormatEvent(event);
    tracer.End(span);
    span = tracer.Begin("server.encode_frame", root, w);
    const std::string encoded = EncodeFrame(text);
    tracer.End(span);
    count.event_bytes = static_cast<double>(encoded.size());
    tracer.End(root);

    std::vector<std::string> rendered;
    for (const GroundAnswer& answer : combined.answers) {
      rendered.push_back(AnswerToString(answer, *symbols));
    }
    if (CanonicalWindowAnswers(rendered) != oracle[plan.DistinctOf(w)]) {
      ++result.answer_mismatches;
    }
  }
  result.windows = windows;

  // Self time per layer per window; the layers of a window sum to its
  // root span, the traced service time.
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, std::vector<double>> per_window_us;
  for (const std::string& layer : LayerNames()) {
    per_window_us[layer].assign(windows, 0.0);
  }
  std::map<std::string, double> total_us;
  double self_sum_us = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    per_window_us[spans[i].name][spans[i].window] += self[i] / 1e3;
    total_us[spans[i].name] += self[i] / 1e3;
    self_sum_us += self[i] / 1e3;
  }
  std::vector<double> service_ms;
  double service_total_us = 0;
  for (int root : roots) {
    const double us = (spans[root].end_ns - spans[root].start_ns) / 1e3;
    service_ms.push_back(us / 1e3);
    service_total_us += us;
  }
  result.service_p50_ms = Median(service_ms);

  result.trace_path = out_dir + "/" + label + ".trace.json";
  result.summary_path = out_dir + "/" + label + ".selftime.json";
  if (!WriteTrace(result.trace_path, spans)) {
    result.error = "cannot write " + result.trace_path;
    return result;
  }
  {
    std::ofstream out(result.summary_path);
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"windows\": %zu, \"service_us_total\": %.3f, "
                  "\"self_us_total\": %.3f, \"service_p50_ms\": %.6f,\n "
                  "\"layers\": [\n",
                  windows, service_total_us, self_sum_us,
                  result.service_p50_ms);
    out << line;
    const std::vector<std::string>& layers = LayerNames();
    for (size_t l = 0; l < layers.size(); ++l) {
      const std::string& layer = layers[l];
      std::snprintf(line, sizeof(line),
                    "  {\"layer\": %s, \"self_us_total\": %.3f, \"share\": "
                    "%.6f, \"p50_self_us\": %.3f}%s\n",
                    JsonString(layer).c_str(), total_us[layer],
                    service_total_us > 0 ? total_us[layer] / service_total_us
                                         : 0.0,
                    Median(per_window_us[layer]),
                    l + 1 < layers.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    if (!out) {
      result.error = "cannot write " + result.summary_path;
      return result;
    }
  }

  auto median_of = [&counts](double WindowCounts::*field) {
    std::vector<double> values;
    for (const WindowCounts& count : counts) values.push_back(count.*field);
    return Median(values);
  };
  auto total_of = [&counts](double WindowCounts::*field) {
    double sum = 0;
    for (const WindowCounts& count : counts) sum += count.*field;
    return sum;
  };
  auto self_p50 = [&per_window_us](const char* layer) {
    return Median(per_window_us[layer]);
  };
  const double retained = total_of(&WindowCounts::rules_retained);
  const double fresh = total_of(&WindowCounts::rules_new);
  const double atoms = total_of(&WindowCounts::atoms);
  std::vector<Metric>& m = result.metrics;
  m.push_back({"server.frame_decode_us", self_p50("server.frame_decode"), "us"});
  m.push_back(
      {"server.parse_request_us", self_p50("server.parse_request"), "us"});
  m.push_back(
      {"server.parse_triples_us", self_p50("server.parse_triples"), "us"});
  m.push_back({"server.push_bytes_per_triple",
               median_of(&WindowCounts::push_bytes_per_triple), "bytes/triple"});
  m.push_back({"server.format_event_us", self_p50("server.format_event"), "us"});
  m.push_back({"server.encode_frame_us", self_p50("server.encode_frame"), "us"});
  m.push_back(
      {"server.event_bytes", median_of(&WindowCounts::event_bytes), "bytes"});
  m.push_back({"stream.window_us", self_p50("stream.window"), "us"});
  m.push_back(
      {"stream.delta_items", median_of(&WindowCounts::delta_items), "count"});
  m.push_back(
      {"streamrule.partition_us", self_p50("streamrule.partition"), "us"});
  m.push_back(
      {"streamrule.partitions", median_of(&WindowCounts::partitions), "count"});
  m.push_back({"streamrule.duplication_share",
               median_of(&WindowCounts::duplication_share), "ratio"});
  m.push_back({"streamrule.partition_skew",
               median_of(&WindowCounts::partition_skew), "ratio"});
  m.push_back({"streamrule.convert_us", self_p50("streamrule.convert"), "us"});
  m.push_back({"streamrule.reason_self_us", self_p50("streamrule.reason"), "us"});
  m.push_back({"streamrule.combine_us", self_p50("streamrule.combine"), "us"});
  m.push_back(
      {"streamrule.answers", median_of(&WindowCounts::answers), "count"});
  m.push_back({"streamrule.reason_sum_ms",
               median_of(&WindowCounts::reason_sum_ms), "ms"});
  m.push_back({"streamrule.critical_path_ms",
               median_of(&WindowCounts::critical_path_ms), "ms"});
  m.push_back({"streamrule.service_ms", result.service_p50_ms, "ms"});
  m.push_back({"ground.ground_ms", self_p50("ground.ground") / 1e3, "ms"});
  m.push_back({"ground.rules", median_of(&WindowCounts::rules), "count"});
  m.push_back({"ground.atoms", median_of(&WindowCounts::atoms), "count"});
  m.push_back({"ground.rules_reused_ratio",
               retained + fresh > 0 ? retained / (retained + fresh) : 0,
               "ratio"});
  m.push_back(
      {"ground.fallbacks", total_of(&WindowCounts::fallbacks), "count"});
  m.push_back({"solve.solve_ms", self_p50("solve.solve") / 1e3, "ms"});
  m.push_back({"solve.models", median_of(&WindowCounts::models), "count"});
  m.push_back({"solve.atoms_touched_ratio",
               atoms > 0 ? total_of(&WindowCounts::atoms_touched) / atoms : 0,
               "ratio"});
  m.push_back({"solve.rebuilds", total_of(&WindowCounts::rebuilds), "count"});

  // The paper's claims on whole distinct windows, untraced: R against
  // PR_Dep (dependency partitioning) and PR_Ran_2 (random halves).
  ParallelReasonerOptions pr_options;
  pr_options.num_threads = 1;  // Critical path is the claim, not wall time.
  ParallelReasoner pr_dep(&*program, *partitioning, pr_options);
  const Reasoner r(&*program);
  const size_t claims = std::min<size_t>(24, plan.distinct_windows.size());
  std::vector<double> r_ms;
  std::vector<double> dep_ms;
  double dep_accuracy = 0;
  double ran_accuracy = 0;
  for (size_t k = 0; k < claims; ++k) {
    TripleWindow window;
    window.sequence = k;
    for (const std::string& line : plan.distinct_windows[k]) {
      StatusOr<Triple> triple = ParseTripleLine(line, *symbols);
      if (!triple.ok()) return fail("triple", triple.status());
      window.items.push_back(*triple);
    }
    StatusOr<ReasonerResult> whole = r.Process(window);
    if (!whole.ok()) return fail("R", whole.status());
    StatusOr<ParallelReasonerResult> dep = pr_dep.Process(window);
    if (!dep.ok()) return fail("PR_Dep", dep.status());
    RandomPartitioner random(2, 7 + k);
    StatusOr<ParallelReasonerResult> ran =
        pr_dep.ProcessPartitions(random.Partition(window.items));
    if (!ran.ok()) return fail("PR_Ran_2", ran.status());
    r_ms.push_back(whole->latency_ms);
    dep_ms.push_back(dep->critical_path_ms);
    dep_accuracy += MeanAccuracy(dep->answers, whole->answers);
    ran_accuracy += MeanAccuracy(ran->answers, whole->answers);
  }
  result.prdep_accuracy = dep_accuracy / static_cast<double>(claims);
  m.push_back({"streamrule.r_over_prdep_critical_path",
               Median(r_ms) / Median(dep_ms), "ratio"});
  m.push_back({"streamrule.prdep_accuracy", result.prdep_accuracy, "ratio"});
  m.push_back({"streamrule.pr_ran2_accuracy",
               ran_accuracy / static_cast<double>(claims), "ratio"});
  return result;
}

}  // namespace perfbench
