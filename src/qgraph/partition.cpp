#include "qgraph/partition.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "qgraph/louvain.hpp"
#include "qgraph/modularity.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace qq::graph {

const char* partition_method_name(PartitionMethod method) noexcept {
  switch (method) {
    case PartitionMethod::kGreedyModularity: return "greedy-modularity";
    case PartitionMethod::kLouvain: return "louvain";
    case PartitionMethod::kSpectral: return "spectral";
    case PartitionMethod::kBalancedBfs: return "balanced-bfs";
    case PartitionMethod::kRandomChunks: return "random-chunks";
  }
  return "?";
}

namespace {

/// BFS-ordered balanced split into ceil(size/max) chunks. Used directly as
/// a partition method and as the fallback when community detection returns
/// the community unchanged (cliques, very dense blobs) or all singletons
/// (negative-weight merge graphs), which would otherwise recurse forever.
/// BFS order keeps chunks locally connected where possible.
std::vector<std::vector<NodeId>> balanced_split(const Graph& g,
                                                NodeId max_nodes,
                                                util::Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  // Random start node makes repeated fallback splits (different seeds)
  // explore different chunkings.
  const NodeId start = n > 0 ? static_cast<NodeId>(util::uniform_u64(
                                   rng, static_cast<std::uint64_t>(n)))
                             : 0;
  for (NodeId offset = 0; offset < n; ++offset) {
    const NodeId s = (start + offset) % n;
    if (seen[static_cast<std::size_t>(s)]) continue;
    seen[static_cast<std::size_t>(s)] = 1;
    std::size_t head = order.size();
    order.push_back(s);
    while (head < order.size()) {
      const NodeId u = order[head++];
      for (const auto& [v, w] : g.neighbors(u)) {
        (void)w;
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          order.push_back(v);
        }
      }
    }
  }
  const std::size_t parts =
      (static_cast<std::size_t>(n) + static_cast<std::size_t>(max_nodes) - 1) /
      static_cast<std::size_t>(max_nodes);
  const std::size_t chunk = (static_cast<std::size_t>(n) + parts - 1) / parts;
  std::vector<std::vector<NodeId>> out;
  for (std::size_t lo = 0; lo < order.size(); lo += chunk) {
    const std::size_t hi = std::min(order.size(), lo + chunk);
    out.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(lo),
                     order.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

/// Fiedler-vector bisection: split by the sign structure of the second
/// eigenvector of the graph Laplacian, approximated with deflated power
/// iteration on (c I - L). Balanced at the median so both halves shrink,
/// guaranteeing recursion progress; the recursive size capping is handled
/// by partition_recursive.
std::vector<std::vector<NodeId>> spectral_bisect(const Graph& g,
                                                 util::Rng& rng) {
  const NodeId n = g.num_nodes();
  if (n < 2) return {{}};
  const auto nn = static_cast<std::size_t>(n);

  // Shift: c >= max row sum of L makes (c I - L) PSD with the Fiedler
  // direction as its second-largest eigenvector.
  double max_row = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    double row = 0.0;
    for (const auto& [v, w] : g.neighbors(u)) {
      (void)v;
      row += std::abs(w) * 2.0;
    }
    max_row = std::max(max_row, row);
  }
  const double shift = max_row + 1.0;

  std::vector<double> x(nn), next(nn);
  for (auto& v : x) v = util::uniform(rng, -1.0, 1.0);
  auto project_out_ones = [&](std::vector<double>& vec) {
    double mean = 0.0;
    for (const double v : vec) mean += v;
    mean /= static_cast<double>(nn);
    for (double& v : vec) v -= mean;
  };
  auto normalize_vec = [&](std::vector<double>& vec) {
    double norm2 = 0.0;
    for (const double v : vec) norm2 += v * v;
    const double inv = norm2 > 1e-300 ? 1.0 / std::sqrt(norm2) : 0.0;
    for (double& v : vec) v *= inv;
  };
  project_out_ones(x);
  normalize_vec(x);
  for (int iter = 0; iter < 200; ++iter) {
    // next = (shift I - L) x = shift x - D x + W x
    for (NodeId u = 0; u < n; ++u) {
      const auto su = static_cast<std::size_t>(u);
      double acc = shift * x[su];
      for (const auto& [v, w] : g.neighbors(u)) {
        acc += w * (x[static_cast<std::size_t>(v)] - x[su]);
      }
      next[su] = acc;
    }
    project_out_ones(next);
    normalize_vec(next);
    x.swap(next);
  }

  // Median split keeps the bisection balanced even when the sign split
  // would be lopsided (e.g. star graphs).
  std::vector<NodeId> order(nn);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&x](NodeId a, NodeId b) {
    return x[static_cast<std::size_t>(a)] < x[static_cast<std::size_t>(b)];
  });
  const std::size_t half = nn / 2;
  std::vector<std::vector<NodeId>> out(2);
  out[0].assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(half));
  out[1].assign(order.begin() + static_cast<std::ptrdiff_t>(half), order.end());
  return out;
}

/// Structure-free baseline: shuffle the nodes, cut into equal chunks.
std::vector<std::vector<NodeId>> random_chunks(const Graph& g,
                                               NodeId max_nodes,
                                               util::Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[util::uniform_u64(rng, i)]);
  }
  const std::size_t parts =
      (static_cast<std::size_t>(n) + static_cast<std::size_t>(max_nodes) - 1) /
      static_cast<std::size_t>(max_nodes);
  const std::size_t chunk = (static_cast<std::size_t>(n) + parts - 1) / parts;
  std::vector<std::vector<NodeId>> out;
  for (std::size_t lo = 0; lo < order.size(); lo += chunk) {
    const std::size_t hi = std::min(order.size(), lo + chunk);
    out.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(lo),
                     order.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

std::vector<std::vector<NodeId>> detect_communities(
    const Graph& g, const PartitionOptions& options, util::Rng& rng) {
  const NodeId max_nodes = options.max_nodes;
  switch (options.method) {
    case PartitionMethod::kGreedyModularity:
      return greedy_modularity_communities(g, options.context);
    case PartitionMethod::kLouvain: {
      LouvainOptions lopts;
      lopts.seed = rng();
      return louvain_communities(g, lopts);
    }
    case PartitionMethod::kSpectral:
      return spectral_bisect(g, rng);
    case PartitionMethod::kBalancedBfs:
      return balanced_split(g, max_nodes, rng);
    case PartitionMethod::kRandomChunks:
      return random_chunks(g, max_nodes, rng);
  }
  return greedy_modularity_communities(g, options.context);
}

void partition_recursive(const Graph& g, const std::vector<NodeId>& to_global,
                         const PartitionOptions& options, util::Rng& rng,
                         std::vector<std::vector<NodeId>>& out) {
  if (options.context != nullptr) options.context->throw_if_stopped();
  const NodeId max_nodes = options.max_nodes;
  if (g.num_nodes() <= max_nodes) {
    out.push_back(to_global);
    return;
  }
  auto communities = detect_communities(g, options, rng);
  // Community detection can refuse to group anything: a single community
  // spanning the graph (cliques), or all singletons (negative-weight merge
  // graphs, where Q is maximized by the trivial partition). Either way the
  // divide step would make no progress, so fall back to a balanced BFS
  // split.
  if (communities.size() <= 1 ||
      communities.size() == static_cast<std::size_t>(g.num_nodes())) {
    communities = balanced_split(g, max_nodes, rng);
  }
  for (const auto& local_nodes : communities) {
    std::vector<NodeId> global_nodes;
    global_nodes.reserve(local_nodes.size());
    for (const NodeId local : local_nodes) {
      global_nodes.push_back(to_global[static_cast<std::size_t>(local)]);
    }
    if (static_cast<NodeId>(local_nodes.size()) <= max_nodes) {
      out.push_back(std::move(global_nodes));
    } else {
      const auto sub = g.induced(local_nodes);
      std::vector<NodeId> sub_to_global;
      sub_to_global.reserve(sub.to_global.size());
      for (const NodeId local : sub.to_global) {
        sub_to_global.push_back(to_global[static_cast<std::size_t>(local)]);
      }
      partition_recursive(sub.graph, sub_to_global, options, rng, out);
    }
  }
}

}  // namespace

std::vector<std::vector<NodeId>> partition_max_size(
    const Graph& g, const PartitionOptions& options) {
  if (options.max_nodes < 1) {
    throw std::invalid_argument("partition_max_size: max_nodes must be >= 1");
  }
  util::Rng rng(options.seed ^ 0x51ce5e11aa0ffULL);
  std::vector<NodeId> identity(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    identity[static_cast<std::size_t>(u)] = u;
  }
  std::vector<std::vector<NodeId>> out;
  partition_recursive(g, identity, options, rng, out);
  for (auto& part : out) std::sort(part.begin(), part.end());
  std::sort(out.begin(), out.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  return out;
}

}  // namespace qq::graph
