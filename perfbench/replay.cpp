#include "replay.hpp"

#include <algorithm>

#include "qaoa2/merge.hpp"
#include "qgraph/partition.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using qq::graph::Graph;
using qq::graph::NodeId;
using qq::maxcut::Assignment;

/// Qaoa2Driver's private per-part seed derivations (src/qaoa2/qaoa2.cpp),
/// restated so the replay reproduces the pipeline's cut bit for bit; the
/// workloads' replay check fails if they drift.
std::uint64_t mix_seed(std::uint64_t seed, int level, std::size_t part) {
  qq::util::SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(level) << 32) ^
                          static_cast<std::uint64_t>(part));
  return sm.next();
}
std::uint64_t partition_seed(std::uint64_t base_seed, int level) {
  return base_seed + static_cast<std::uint64_t>(level) * 1000003ULL;
}

struct ReplayLevel {
  Graph graph;
  std::vector<std::vector<NodeId>> parts;
  std::vector<Assignment> locals;
};

}  // namespace

Replay::Replay(const qq::qaoa2::Qaoa2Options& opts,
               const qq::solver::Solver& sub, const qq::solver::Solver& deeper,
               const qq::solver::Solver& merge)
    : opts_(opts), sub_(sub), deeper_(deeper), merge_(merge) {}

Assignment Replay::solve(const Graph& g) {
  if (g.num_nodes() <= opts_.max_qubits) {
    // Qaoa2Driver's fits-on-one-device path: one solve of the whole graph.
    levels_ = std::max(levels_, 1);
    ++subgraphs_;
    return sub_.solve(solve_request(g, mix_seed(opts_.seed, 0, 0)))
        .cut.assignment;
  }
  std::vector<std::vector<NodeId>> components;
  {
    trace::Span span("qgraph", "connected_components");
    components = qq::graph::connected_components(g);
  }
  Assignment global(static_cast<std::size_t>(g.num_nodes()), 0);
  for (std::size_t ci = 0; ci < components.size(); ++ci) {
    qq::graph::Subgraph sub;
    {
      trace::Span span("qgraph", "induced");
      sub = g.induced(components[ci]);
    }
    const Assignment a = solve_component(
        std::move(sub.graph),
        qq::qaoa2::component_seed(opts_.seed, ci, components.size()));
    for (std::size_t j = 0; j < sub.to_global.size(); ++j) {
      global[static_cast<std::size_t>(sub.to_global[j])] = a[j];
    }
  }
  return global;
}

Assignment Replay::solve_component(Graph g, std::uint64_t base) {
  std::vector<ReplayLevel> frames;
  int level = 0;
  Assignment assignment;
  while (true) {
    levels_ = std::max(levels_, level + 1);
    if (g.num_nodes() <= opts_.max_qubits) {
      const qq::solver::Solver& s = level == 0 ? sub_ : merge_;
      assignment =
          s.solve(solve_request(g, mix_seed(base, level, 0))).cut.assignment;
      ++subgraphs_;
      break;
    }
    ReplayLevel f;
    {
      trace::Span span("qgraph", "partition_max_size");
      qq::graph::PartitionOptions popts;
      popts.max_nodes = opts_.max_qubits;
      popts.method = opts_.partition_method;
      popts.seed = partition_seed(base, level);
      f.parts = qq::graph::partition_max_size(g, popts);
      span.arg("nodes", g.num_nodes());
      span.arg("parts", static_cast<double>(f.parts.size()));
    }
    std::vector<qq::graph::Subgraph> subs;
    {
      trace::Span span("qgraph", "induced_batch");
      subs = qq::graph::induced_batch(g, f.parts, opts_.engine.pool);
    }
    const qq::solver::Solver& s = level == 0 ? sub_ : deeper_;
    const bool record = level == 0 && s.resource_kind() ==
                                          qq::sched::ResourceKind::kQuantum;
    f.locals.resize(f.parts.size());
    for (std::size_t i = 0; i < f.parts.size(); ++i) {
      const std::uint64_t seed = mix_seed(base, level, i);
      const qq::solver::SolveReport rep =
          s.solve(solve_request(subs[i].graph, seed));
      f.locals[i] = rep.cut.assignment;
      if (!record) continue;
      leaf_graphs_.push_back(std::move(subs[i].graph));
      LeafCase leaf;
      leaf.graph = &leaf_graphs_.back();
      leaf.options = opts_.qaoa;
      leaf.options.seed = seed;
      leaves_.push_back(std::move(leaf));
      leaf_cuts_.push_back(rep.cut.value);
    }
    subgraphs_ += static_cast<int>(f.parts.size());
    Graph coarse;
    {
      trace::Span span("qaoa2", "build_merge_graph");
      coarse = qq::qaoa2::build_merge_graph(g, f.parts, f.locals);
    }
    f.graph = std::move(g);
    frames.push_back(std::move(f));
    g = std::move(coarse);
    ++level;
  }
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    trace::Span span("qaoa2", "apply_flips");
    assignment = qq::qaoa2::apply_flips(it->graph.num_nodes(), it->parts,
                                        it->locals, assignment);
  }
  return assignment;
}

}  // namespace perfbench
