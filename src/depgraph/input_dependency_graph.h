#ifndef STREAMASP_DEPGRAPH_INPUT_DEPENDENCY_GRAPH_H_
#define STREAMASP_DEPGRAPH_INPUT_DEPENDENCY_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "depgraph/extended_dependency_graph.h"
#include "util/status.h"

namespace streamasp {

/// Options controlling input-dependency-graph construction.
struct InputDependencyOptions {
  /// Condition (iii) of Definition 2 propagates a self-loop from a
  /// negatively occurring predicate u to an input predicate p only along a
  /// *direct* EP2 edge <p, u>. When this flag is set, propagation follows
  /// any directed EP2 path p =>* u instead — a strictly more conservative
  /// (more self-loops) variant (ARCHITECTURE.md, "Substitutions and
  /// known limits"). The paper's
  /// examples are unaffected either way.
  bool transitive_self_loop_propagation = false;
};

/// The input dependency graph G_P^{inpre(P)} of Definition 2: an
/// undirected graph over the declared input predicates whose edges mean
/// "ground atoms of these predicates may jointly fire rules, so they must
/// be routed to the same partition".
///
/// Edge rules, with Reach(x) = the EP2-forward reachable set of x
/// (including x itself):
///   (i)+(ii)  p — q  (p != q)  iff some EP1 edge (u, v) has
///             u in Reach(p) and v in Reach(q) (or symmetrically);
///             condition (i) is the special case u = p, v = q.
///   (i)       p — p            iff (p, p) is an EP1 self-loop
///             (p occurs negatively in some body).
///   (iii)     p — p            iff some u has an EP1 self-loop (u, u) and
///             <p, u> is an EP2 edge (or a directed path, with
///             transitive_self_loop_propagation).
class InputDependencyGraph {
 public:
  /// Builds the input dependency graph for `edg` restricted to
  /// `input_predicates`. Fails if an input predicate has no node in the
  /// extended graph (i.e. does not occur in the program).
  static StatusOr<InputDependencyGraph> Build(
      const ExtendedDependencyGraph& edg,
      const std::vector<PredicateSignature>& input_predicates,
      const SymbolTable& symbols,
      const InputDependencyOptions& options = {});

  /// Convenience overload: builds the extended graph internally and uses
  /// the program's declared input predicates.
  static StatusOr<InputDependencyGraph> Build(
      const Program& program, const InputDependencyOptions& options = {});

  /// Input predicates, indexed by node id of graph().
  const std::vector<PredicateSignature>& nodes() const { return nodes_; }

  /// The undirected dependency structure (self-loops included).
  const UndirectedGraph& graph() const { return graph_; }

  /// Node id of an input predicate, or ExtendedDependencyGraph::kInvalidNode.
  NodeId NodeOf(const PredicateSignature& signature) const;

  /// Definition 3: true iff there is an edge (p, q) — i.e. the two input
  /// predicates must be co-located. p == q asks for a self-loop.
  bool Depends(const PredicateSignature& p, const PredicateSignature& q) const;

  /// Renders the graph in Graphviz DOT.
  std::string ToDot(const SymbolTable& symbols) const;

 private:
  std::vector<PredicateSignature> nodes_;
  std::unordered_map<PredicateSignature, NodeId, PredicateSignatureHash>
      node_index_;
  UndirectedGraph graph_;
};

}  // namespace streamasp

#endif  // STREAMASP_DEPGRAPH_INPUT_DEPENDENCY_GRAPH_H_
