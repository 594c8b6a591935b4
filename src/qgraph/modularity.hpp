#pragma once
// Greedy modularity community detection (Clauset–Newman–Moore), the
// partitioner QAOA^2 step 2 prescribes ("the greedy modularity method from
// the NetworkX library is used, which maximizes the modularity").

#include <vector>

#include "qgraph/graph.hpp"

namespace qq::util {
class RequestContext;
}  // namespace qq::util

namespace qq::graph {

/// Newman weighted modularity Q of a node->community assignment:
///   Q = Σ_c [ Σ_in(c)/(2m) − (Σ_tot(c)/(2m))² ]
/// where m is the total edge weight. Returns 0 for edgeless graphs.
double modularity(const Graph& g, const std::vector<int>& community_of);

/// CNM greedy agglomeration: start from singletons, repeatedly merge the
/// connected community pair with the largest ΔQ, and return the partition
/// with the highest Q seen along the merge sequence (NetworkX semantics).
/// Communities are sorted by size descending, ties by smallest node id;
/// node lists are sorted ascending.
///
/// Tie rule: among equal ΔQ the pair with the lowest first community wins,
/// then the partner its hash map iterates first. That order is kept on
/// purpose (every pinned QAOA^2 cut depends on it) until an explicit,
/// order-free tie rule replaces it.
///
/// Cost: each community caches its best partner, so a merge rescans only
/// the merged community's map and the neighbours whose cached partner it
/// disturbed, plus an O(V) pass over the cached values to pick the pair.
/// Building the maps is O(E) hash operations; the merges total
/// O(V² + Σ rescanned map sizes), in practice far below the O(V·E) of
/// rescanning every map per merge.
///
/// `context`, when non-null, is polled once per merge and every 4096 edges
/// while the maps are built; a stopped request throws util::CancelledError.
std::vector<std::vector<NodeId>> greedy_modularity_communities(
    const Graph& g, const util::RequestContext* context = nullptr);

}  // namespace qq::graph
