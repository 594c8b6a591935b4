#include "qgraph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace qq::graph {

Graph::Graph(NodeId num_nodes) {
  if (num_nodes < 0) {
    throw std::invalid_argument("Graph: negative node count");
  }
  num_nodes_ = num_nodes;
  adj_.resize(static_cast<std::size_t>(num_nodes));
}

std::uint64_t Graph::edge_key(NodeId u, NodeId v) const noexcept {
  const auto a = static_cast<std::uint64_t>(std::min(u, v));
  const auto b = static_cast<std::uint64_t>(std::max(u, v));
  return a * static_cast<std::uint64_t>(num_nodes_) + b;
}

void Graph::add_edge(NodeId u, NodeId v, double w) {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    throw std::out_of_range("Graph::add_edge: node id out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loops are not allowed");
  }
  if (!std::isfinite(w)) {
    throw std::invalid_argument("Graph::add_edge: weight must be finite");
  }
  const auto key = edge_key(u, v);
  const auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    Edge& e = edges_[it->second];
    e.w += w;
    for (auto& [nbr, weight] : adj_[static_cast<std::size_t>(u)]) {
      if (nbr == v) weight = e.w;
    }
    for (auto& [nbr, weight] : adj_[static_cast<std::size_t>(v)]) {
      if (nbr == u) weight = e.w;
    }
    total_weight_ += w;
    return;
  }
  edge_index_.emplace(key, edges_.size());
  edges_.push_back(Edge{std::min(u, v), std::max(u, v), w});
  adj_[static_cast<std::size_t>(u)].emplace_back(v, w);
  adj_[static_cast<std::size_t>(v)].emplace_back(u, w);
  total_weight_ += w;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_ || u == v) {
    return false;
  }
  return edge_index_.count(edge_key(u, v)) > 0;
}

double Graph::edge_weight(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_ || u == v) {
    return 0.0;
  }
  const auto it = edge_index_.find(edge_key(u, v));
  return it == edge_index_.end() ? 0.0 : edges_[it->second].w;
}

const std::vector<std::pair<NodeId, double>>& Graph::neighbors(
    NodeId u) const {
  if (u < 0 || u >= num_nodes_) {
    throw std::out_of_range("Graph::neighbors: node id out of range");
  }
  return adj_[static_cast<std::size_t>(u)];
}

NodeId Graph::degree(NodeId u) const {
  return static_cast<NodeId>(neighbors(u).size());
}

double Graph::weighted_degree(NodeId u) const {
  double sum = 0.0;
  for (const auto& [nbr, w] : neighbors(u)) {
    (void)nbr;
    sum += w;
  }
  return sum;
}

bool Graph::is_weighted() const {
  return std::any_of(edges_.begin(), edges_.end(),
                     [](const Edge& e) { return e.w != 1.0; });
}

Subgraph Graph::induced(const std::vector<NodeId>& nodes) const {
  return std::move(induced_batch(*this, {nodes}).front());
}

std::vector<std::vector<NodeId>> connected_components(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<NodeId>> comps;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    std::vector<NodeId> comp;
    stack.push_back(s);
    seen[static_cast<std::size_t>(s)] = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      comp.push_back(u);
      for (const auto& [v, w] : g.neighbors(u)) {
        (void)w;
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          stack.push_back(v);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  return connected_components(g).size() == 1;
}

std::vector<Subgraph> component_subgraphs(const Graph& g) {
  return induced_batch(g, connected_components(g));
}

std::vector<Subgraph> induced_batch(
    const Graph& g, const std::vector<std::vector<NodeId>>& parts,
    util::ThreadPool* /*pool*/) {
  constexpr std::size_t kNoPart = std::numeric_limits<std::size_t>::max();
  // Label every node with its (part, local id) once, then deal the parent's
  // edges out in a single pass, in the parent's order.
  std::vector<std::size_t> part_of(static_cast<std::size_t>(g.num_nodes()),
                                   kNoPart);
  std::vector<NodeId> local_of(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<Subgraph> out;
  out.reserve(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::vector<NodeId>& nodes = parts[i];
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      const NodeId u = nodes[j];
      if (u < 0 || u >= g.num_nodes()) {
        throw std::out_of_range("induced: node id out of range");
      }
      std::size_t& owner = part_of[static_cast<std::size_t>(u)];
      if (owner != kNoPart) {
        throw std::invalid_argument(
            (owner == i ? "induced: duplicate node id "
                        : "induced: parts overlap at node ") +
            std::to_string(u));
      }
      owner = i;
      local_of[static_cast<std::size_t>(u)] = static_cast<NodeId>(j);
    }
    out.push_back(Subgraph{Graph(static_cast<NodeId>(nodes.size())), nodes});
  }
  for (const Edge& e : g.edges()) {
    const std::size_t p = part_of[static_cast<std::size_t>(e.u)];
    if (p == kNoPart || p != part_of[static_cast<std::size_t>(e.v)]) continue;
    out[p].graph.add_edge(local_of[static_cast<std::size_t>(e.u)],
                          local_of[static_cast<std::size_t>(e.v)], e.w);
  }
  return out;
}

}  // namespace qq::graph
