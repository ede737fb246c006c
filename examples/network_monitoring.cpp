// A second domain scenario: network security monitoring. Demonstrates
// that the input dependency analysis generalizes beyond the paper's
// traffic example, and exercises arithmetic built-ins and the atom-level
// extension (Section VI future work) on a different rule set.
//
// Streams: packet rates, failed logins, open connections, blacklist
// notices, service health probes. Detected events: port scans, brute
// force attempts, degraded services.
//
// Usage: network_monitoring [window_size]

#include <cstdio>
#include <cstdlib>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "stream/generator.h"
#include "streamrule/accuracy.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/random_partitioner.h"

namespace {

constexpr char kNetworkProgram[] = R"(
% Connection-pressure family: joins on the host H.
high_rate(H)     :- packet_rate(H, R), R > 80.
many_conns(H)    :- open_conns(H, N), N > 50.
port_scan(H)     :- high_rate(H), many_conns(H), not whitelisted(H).

% Authentication family: joins on the account A; arithmetic threshold
% scales with the observation count.
brute_force(A)   :- failed_logins(A, F), attempts(A, T), F * 2 > T,
                    T >= 10.

% Service-health family.
degraded(S)      :- health_probe(S, L), L >= 200.

alert(H) :- port_scan(H).
alert(A) :- brute_force(A).
alert(S) :- degraded(S).

#input packet_rate/2, open_conns/2, whitelisted/1,
       failed_logins/2, attempts/2, health_probe/2.
#show port_scan/1, brute_force/1, degraded/1, alert/1.
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace streamasp;

  const size_t window_size = argc > 1 ? std::atoi(argv[1]) : 12000;

  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(kNetworkProgram);
  if (!program.ok()) {
    std::fprintf(stderr, "parse: %s\n", program.status().ToString().c_str());
    return 1;
  }

  // Design time: three independent predicate families => three
  // communities, no duplication needed.
  StatusOr<InputDependencyGraph> graph = InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("predicate-level %s\n", plan->ToString(*symbols).c_str());

  // Atom-level refinement: each family joins on its first argument, so
  // the key-flow analysis can split every community into two buckets.
  ParallelReasonerOptions split_options;
  split_options.num_shards = 2;
  ParallelReasoner pr_atom(&*program, *plan, split_options);
  const PartitioningHandler& atom_handler = pr_atom.partitioning_handler();
  std::printf("bucketed %s\n", atom_handler.plan().ToString(*symbols).c_str());

  // Run time.
  std::vector<StreamPredicate> schema = {
      {symbols->Intern("packet_rate"), true, {}, 1.0},
      {symbols->Intern("open_conns"), true, {}, 1.0},
      {symbols->Intern("whitelisted"), false, {}, 0.3},
      {symbols->Intern("failed_logins"), true, {}, 1.0},
      {symbols->Intern("attempts"), true, {}, 1.0},
      {symbols->Intern("health_probe"), true, {}, 1.0},
  };
  GeneratorOptions gen_options;
  gen_options.value_range = 250;
  SyntheticStreamGenerator generator(schema, gen_options);
  const TripleWindow window = generator.GenerateTripleWindow(window_size);

  Reasoner r(&*program);
  StatusOr<ReasonerResult> reference = r.Process(window);
  if (!reference.ok()) {
    std::fprintf(stderr, "R: %s\n", reference.status().ToString().c_str());
    return 1;
  }
  std::printf("R         : %7.2f ms, %zu event(s)\n", reference->latency_ms,
              reference->answers.empty() ? 0 : reference->answers[0].size());

  ParallelReasoner pr(&*program, *plan);
  StatusOr<ParallelReasonerResult> dep = pr.Process(window);
  std::printf("PR_Dep    : %7.2f ms (critical %.2f), accuracy %.3f\n",
              dep->latency_ms, dep->critical_path_ms,
              MeanAccuracy(dep->answers, reference->answers));

  // Atom-level: route by key + reason over finer partitions.
  const int atom_partitions = static_cast<int>(atom_handler.num_partitions());
  StatusOr<ParallelReasonerResult> atom = pr_atom.Process(window);
  std::printf("PR_Atom x%d: %7.2f ms (critical %.2f), accuracy %.3f\n",
              atom_partitions, atom->latency_ms, atom->critical_path_ms,
              MeanAccuracy(atom->answers, reference->answers));

  RandomPartitioner random(atom_partitions, 5);
  StatusOr<ParallelReasonerResult> ran =
      pr.ProcessPartitions(random.Partition(window.items));
  std::printf("PR_Ran  x%d: %7.2f ms (critical %.2f), accuracy %.3f\n",
              atom_partitions, ran->latency_ms,
              ran->critical_path_ms,
              MeanAccuracy(ran->answers, reference->answers));
  return 0;
}
