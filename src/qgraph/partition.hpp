#pragma once
// QAOA^2 dividing procedure (paper §3.3 step 2): partition the graph into
// sub-graphs whose node counts do not exceed the qubit budget, using greedy
// modularity and recursing on any community that is still too large.

#include <cstdint>
#include <vector>

#include "qgraph/graph.hpp"

namespace qq::util {
class RequestContext;
}  // namespace qq::util

namespace qq::graph {

enum class PartitionMethod {
  kGreedyModularity,  ///< CNM, the paper's choice (NetworkX greedy_modularity)
  kLouvain,           ///< alternative community detection (§5 outlook)
  kSpectral,          ///< recursive Fiedler-vector bisection
  kBalancedBfs,       ///< structure-light baseline: BFS-ordered equal chunks
  kRandomChunks,      ///< structure-free baseline: shuffled equal chunks
};

const char* partition_method_name(PartitionMethod method) noexcept;

struct PartitionOptions {
  /// Qubit budget n: no part may have more nodes than this.
  NodeId max_nodes = 16;
  /// Seed for the balanced fallback split used when modularity cannot
  /// decompose a community (e.g. cliques).
  std::uint64_t seed = 0;
  PartitionMethod method = PartitionMethod::kGreedyModularity;
  /// Stop state of the request this partition serves (not owned; nullptr =
  /// never stops). Polled once per recursive call and inside the CNM merge
  /// loop; a stopped request throws util::CancelledError.
  const util::RequestContext* context = nullptr;
};

/// Returns disjoint node sets covering every node, each of size
/// <= options.max_nodes. Parts are ordered by smallest contained node.
/// Throws util::CancelledError once options.context is stopped.
std::vector<std::vector<NodeId>> partition_max_size(
    const Graph& g, const PartitionOptions& options);

}  // namespace qq::graph
