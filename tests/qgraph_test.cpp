// Tests for the graph substrate: Graph invariants, generators, greedy
// modularity, the QAOA^2 partitioning step, and edge-list IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "qgraph/generators.hpp"
#include "qgraph/graph.hpp"
#include "qgraph/io.hpp"
#include "qgraph/modularity.hpp"
#include "qgraph/partition.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qq::graph {
namespace {

// ---------------------------------------------------------------- Graph ----

TEST(Graph, BasicConstruction) {
  Graph g(4);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 0u);
  g.add_edge(0, 1, 2.0);
  g.add_edge(2, 3);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.0);
}

TEST(Graph, ParallelEdgesAccumulate) {
  Graph g(3);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 0, 2.5);  // same undirected edge
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 4.0);
  // adjacency must mirror the merged weight on both endpoints
  for (const auto& [v, w] : g.neighbors(0)) {
    EXPECT_EQ(v, 1);
    EXPECT_DOUBLE_EQ(w, 4.0);
  }
  for (const auto& [v, w] : g.neighbors(1)) {
    EXPECT_EQ(v, 0);
    EXPECT_DOUBLE_EQ(w, 4.0);
  }
}

TEST(Graph, RejectsSelfLoopsAndBadIds) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
  EXPECT_THROW(Graph(-1), std::invalid_argument);
  EXPECT_THROW(g.neighbors(5), std::out_of_range);
}

TEST(Graph, RejectsNonFiniteWeights) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, std::nan("")), std::invalid_argument);
}

TEST(Graph, DegreeAndWeightedDegree) {
  Graph g = star_graph(5);
  EXPECT_EQ(g.degree(0), 4);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 4.0);
}

TEST(Graph, WeightedDetection) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(g.is_weighted());
  g.add_edge(1, 2, 0.5);
  EXPECT_TRUE(g.is_weighted());
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 4, 4.0);
  const auto sub = g.induced({1, 2, 3});
  EXPECT_EQ(sub.graph.num_nodes(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(sub.graph.edge_weight(0, 1), 2.0);  // (1,2)
  EXPECT_DOUBLE_EQ(sub.graph.edge_weight(1, 2), 3.0);  // (2,3)
  EXPECT_EQ(sub.to_global, (std::vector<NodeId>{1, 2, 3}));
}

TEST(Graph, InducedRejectsDuplicatesAndBadIds) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.induced({0, 0}), std::invalid_argument);
  EXPECT_THROW(g.induced({0, 7}), std::out_of_range);
}

TEST(Graph, ConnectedComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto comps = connected_components(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(comps[1], (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(comps[2], (std::vector<NodeId>{5}));
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Graph, ComponentSubgraphsShardByComponent) {
  Graph g(6);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(3, 4, 5.0);
  const auto shards = component_subgraphs(g);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].to_global, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(shards[0].graph.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(shards[0].graph.edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(shards[0].graph.edge_weight(1, 2), 3.0);
  EXPECT_EQ(shards[1].to_global, (std::vector<NodeId>{3, 4}));
  EXPECT_DOUBLE_EQ(shards[1].graph.edge_weight(0, 1), 5.0);
  EXPECT_EQ(shards[2].graph.num_nodes(), 1);
  EXPECT_EQ(shards[2].graph.num_edges(), 0u);
}

TEST(Graph, ComponentSubgraphOfConnectedGraphIsStructurallyIdentical) {
  // The QAOA^2 sharding relies on this: for a connected graph the single
  // shard must preserve node ids AND edge insertion order, so every
  // downstream deterministic consumer (partitioner, seeds) sees the same
  // graph it would have seen unsharded.
  util::Rng rng(51);
  const Graph g = erdos_renyi(24, 0.2, rng);
  ASSERT_TRUE(is_connected(g));
  const auto shards = component_subgraphs(g);
  ASSERT_EQ(shards.size(), 1u);
  const Graph& s = shards[0].graph;
  EXPECT_EQ(s.num_nodes(), g.num_nodes());
  ASSERT_EQ(s.num_edges(), g.num_edges());
  for (std::size_t e = 0; e < g.edges().size(); ++e) {
    EXPECT_EQ(s.edges()[e].u, g.edges()[e].u);
    EXPECT_EQ(s.edges()[e].v, g.edges()[e].v);
    EXPECT_EQ(s.edges()[e].w, g.edges()[e].w);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(shards[0].to_global[static_cast<std::size_t>(u)], u);
  }
}

TEST(Graph, InducedBatchMatchesSerialInducedAtAnyPoolWidth) {
  util::Rng rng(53);
  const Graph g = erdos_renyi(30, 0.2, rng);
  const std::vector<std::vector<std::vector<NodeId>>> layouts = {
      // A partition covering every node.
      {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}, {10, 11, 12, 13, 14, 15, 16},
       {17, 18, 19, 20, 21}, {22, 23, 24, 25, 26, 27, 28, 29}},
      // Unsorted parts that leave nodes out, plus an empty one.
      {{29, 3, 17, 8}, {}, {0, 22, 11, 5, 26, 14}, {19, 1}}};
  for (const auto& parts : layouts) {
    for (const std::size_t threads : {1u, 4u}) {
      util::ThreadPool pool(threads);
      const auto batch = induced_batch(g, parts, &pool);
      ASSERT_EQ(batch.size(), parts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        const Subgraph serial = g.induced(parts[i]);
        EXPECT_EQ(batch[i].to_global, serial.to_global);
        ASSERT_EQ(batch[i].graph.num_nodes(), serial.graph.num_nodes());
        ASSERT_EQ(batch[i].graph.num_edges(), serial.graph.num_edges());
        for (std::size_t e = 0; e < serial.graph.edges().size(); ++e) {
          EXPECT_EQ(batch[i].graph.edges()[e].u, serial.graph.edges()[e].u);
          EXPECT_EQ(batch[i].graph.edges()[e].v, serial.graph.edges()[e].v);
          EXPECT_EQ(batch[i].graph.edges()[e].w, serial.graph.edges()[e].w);
        }
        for (NodeId u = 0; u < serial.graph.num_nodes(); ++u) {
          EXPECT_EQ(batch[i].graph.neighbors(u), serial.graph.neighbors(u));
        }
      }
    }
  }
  EXPECT_THROW(induced_batch(g, {{0, 1}, {2, 30}}), std::out_of_range);
  EXPECT_THROW(induced_batch(g, {{0, -1}}), std::out_of_range);
  EXPECT_THROW(induced_batch(g, {{0, 1}, {2, 3, 2}}), std::invalid_argument);
  EXPECT_THROW(induced_batch(g, {{0, 1, 4}, {2, 4}}), std::invalid_argument);
}

TEST(Graph, InducedKeepsParentEdgeOrder) {
  // Edges inserted out of id order; the subgraph lists its edges in the
  // parent's edge order whatever order the part names its nodes in.
  Graph g(6);
  g.add_edge(4, 5, 1.0);
  g.add_edge(0, 3, 2.0);
  g.add_edge(2, 1, 3.0);
  g.add_edge(5, 0, 4.0);
  g.add_edge(3, 4, 5.0);
  g.add_edge(1, 5, 6.0);
  const std::vector<NodeId> nodes = {5, 3, 0, 4};
  for (const Subgraph& sub : {g.induced(nodes), induced_batch(g, {nodes})[0]}) {
    std::vector<double> weights;
    for (const Edge& e : sub.graph.edges()) {
      weights.push_back(e.w);
      EXPECT_EQ(g.edge_weight(sub.to_global[static_cast<std::size_t>(e.u)],
                              sub.to_global[static_cast<std::size_t>(e.v)]),
                e.w);
    }
    EXPECT_EQ(weights, (std::vector<double>{1.0, 2.0, 4.0, 5.0}));
    // Adjacency also follows the parent's edge order: node 5 (local 0)
    // meets 4 (local 3) before 0 (local 2).
    EXPECT_EQ(sub.graph.neighbors(0),
              (std::vector<std::pair<NodeId, double>>{{3, 1.0}, {2, 4.0}}));
  }
}

// ----------------------------------------------------------- generators ----

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  util::Rng rng(1);
  const NodeId n = 200;
  const double p = 0.1;
  const Graph g = erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 4.0 * std::sqrt(expected));
}

TEST(Generators, ErdosRenyiExtremes) {
  util::Rng rng(2);
  EXPECT_EQ(erdos_renyi(20, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng).num_edges(), 190u);
  EXPECT_EQ(erdos_renyi(1, 0.5, rng).num_edges(), 0u);
  EXPECT_THROW(erdos_renyi(5, 1.5, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(5, -0.1, rng), std::invalid_argument);
}

TEST(Generators, ErdosRenyiWeightedDrawsInUnitInterval) {
  util::Rng rng(3);
  const Graph g = erdos_renyi(50, 0.3, rng, WeightMode::kUniform01);
  ASSERT_GT(g.num_edges(), 0u);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 0.0);
    EXPECT_LT(e.w, 1.0);
  }
  EXPECT_TRUE(g.is_weighted());
}

TEST(Generators, ErdosRenyiDeterministicPerSeed) {
  util::Rng a(9), b(9);
  const Graph g1 = erdos_renyi(40, 0.2, a);
  const Graph g2 = erdos_renyi(40, 0.2, b);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (std::size_t i = 0; i < g1.num_edges(); ++i) {
    EXPECT_EQ(g1.edges()[i].u, g2.edges()[i].u);
    EXPECT_EQ(g1.edges()[i].v, g2.edges()[i].v);
  }
}

TEST(Generators, StructuredFamilies) {
  EXPECT_EQ(complete_graph(6).num_edges(), 15u);
  EXPECT_EQ(cycle_graph(7).num_edges(), 7u);
  EXPECT_EQ(cycle_graph(2).num_edges(), 1u);
  EXPECT_EQ(path_graph(7).num_edges(), 6u);
  EXPECT_EQ(star_graph(7).num_edges(), 6u);
  EXPECT_EQ(grid_2d(3, 4).num_nodes(), 12);
  EXPECT_EQ(grid_2d(3, 4).num_edges(), 17u);  // 3*3 + 2*4
}

TEST(Generators, RandomRegularHasExactDegrees) {
  util::Rng rng(5);
  const Graph g = random_regular(20, 3, rng);
  for (NodeId u = 0; u < 20; ++u) EXPECT_EQ(g.degree(u), 3);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);  // n*d odd
  EXPECT_THROW(random_regular(4, 4, rng), std::invalid_argument);  // d >= n
}

TEST(Generators, BarbellStructure) {
  const Graph g = barbell_graph(4, 2);
  EXPECT_EQ(g.num_nodes(), 10);
  // two K4 (6 edges each) + path of 3 bridge edges
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, PlantedPartitionDenseInsideSparseOutside) {
  util::Rng rng(7);
  const Graph g = planted_partition(3, 10, 0.9, 0.02, rng);
  std::size_t inside = 0, outside = 0;
  for (const Edge& e : g.edges()) {
    (e.u / 10 == e.v / 10 ? inside : outside)++;
  }
  EXPECT_GT(inside, outside * 3);
}

// ----------------------------------------------------------- modularity ----

TEST(Modularity, SingleCommunityOfCompleteGraphIsZero) {
  const Graph g = complete_graph(5);
  const std::vector<int> one(5, 0);
  EXPECT_NEAR(modularity(g, one), 0.0, 1e-12);
}

TEST(Modularity, KnownValueOnTwoTriangles) {
  // Two triangles joined by one edge; communities = the triangles.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);
  const std::vector<int> comm = {0, 0, 0, 1, 1, 1};
  // m=7; Sum_in per community: 3; Sum_tot: 7 each.
  // Q = 2 * (3/7 - (7/14)^2) = 6/7 - 1/2.
  EXPECT_NEAR(modularity(g, comm), 6.0 / 7.0 - 0.5, 1e-12);
}

TEST(Modularity, AssignmentSizeMismatchThrows) {
  const Graph g = cycle_graph(4);
  EXPECT_THROW(modularity(g, {0, 1}), std::invalid_argument);
}

TEST(GreedyModularity, RecoversTwoTriangles) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);
  const auto comms = greedy_modularity_communities(g);
  ASSERT_EQ(comms.size(), 2u);
  EXPECT_EQ(comms[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(comms[1], (std::vector<NodeId>{3, 4, 5}));
}

TEST(GreedyModularity, RecoversPlantedBlocks) {
  util::Rng rng(11);
  const NodeId block = 8;
  const Graph g = planted_partition(4, block, 0.95, 0.01, rng);
  const auto comms = greedy_modularity_communities(g);
  ASSERT_EQ(comms.size(), 4u);
  for (const auto& c : comms) {
    ASSERT_EQ(c.size(), static_cast<std::size_t>(block));
    const NodeId b = c.front() / block;
    for (const NodeId u : c) EXPECT_EQ(u / block, b);
  }
}

TEST(GreedyModularity, EdgelessGraphYieldsSingletons) {
  const Graph g(4);
  const auto comms = greedy_modularity_communities(g);
  EXPECT_EQ(comms.size(), 4u);
}

TEST(GreedyModularity, CommunitiesPartitionTheNodeSet) {
  util::Rng rng(13);
  const Graph g = erdos_renyi(60, 0.08, rng);
  const auto comms = greedy_modularity_communities(g);
  std::set<NodeId> seen;
  for (const auto& c : comms) {
    for (const NodeId u : c) EXPECT_TRUE(seen.insert(u).second);
  }
  EXPECT_EQ(seen.size(), 60u);
}

// Reference CNM: the original linear-scan implementation, kept verbatim so
// the incremental one can be checked against it. Every merge rescans every
// live community's map for the first strict maximum of ΔQ.
struct ReferenceCnmState {
  std::vector<std::unordered_map<int, double>> e;
  std::vector<double> a;
  std::vector<char> alive;
  std::vector<int> parent;

  int find(int x) const {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
};

std::vector<std::vector<NodeId>> linear_scan_greedy_modularity(
    const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> singletons;
  singletons.reserve(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) singletons.push_back({u});
  const double m = g.total_weight();
  if (m <= 0.0 || n <= 1) return singletons;

  ReferenceCnmState st;
  st.e.resize(static_cast<std::size_t>(n));
  st.a.assign(static_cast<std::size_t>(n), 0.0);
  st.alive.assign(static_cast<std::size_t>(n), 1);
  st.parent.resize(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) st.parent[static_cast<std::size_t>(u)] = u;

  for (const Edge& edge : g.edges()) {
    const double frac = edge.w / (2.0 * m);
    st.e[static_cast<std::size_t>(edge.u)][edge.v] += frac;
    st.e[static_cast<std::size_t>(edge.v)][edge.u] += frac;
    st.a[static_cast<std::size_t>(edge.u)] += frac;
    st.a[static_cast<std::size_t>(edge.v)] += frac;
  }

  std::vector<int> community_of(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) community_of[static_cast<std::size_t>(u)] = u;
  double q = modularity(g, community_of);
  double best_q = q;
  std::vector<int> best_assignment = community_of;

  for (;;) {
    double best_dq = -std::numeric_limits<double>::infinity();
    int best_a = -1, best_b = -1;
    for (NodeId c = 0; c < n; ++c) {
      if (!st.alive[static_cast<std::size_t>(c)]) continue;
      for (const auto& [d, eij] : st.e[static_cast<std::size_t>(c)]) {
        if (d <= c || !st.alive[static_cast<std::size_t>(d)]) continue;
        const double dq = 2.0 * (eij - st.a[static_cast<std::size_t>(c)] *
                                           st.a[static_cast<std::size_t>(d)]);
        if (dq > best_dq) {
          best_dq = dq;
          best_a = c;
          best_b = static_cast<int>(d);
        }
      }
    }
    if (best_a < 0) break;

    auto& ea = st.e[static_cast<std::size_t>(best_a)];
    auto& eb = st.e[static_cast<std::size_t>(best_b)];
    for (const auto& [d, w] : eb) {
      if (d == best_a) continue;
      ea[d] += w;
      auto& ed = st.e[static_cast<std::size_t>(d)];
      ed.erase(best_b);
      ed[best_a] = ea[d];
    }
    ea.erase(best_b);
    eb.clear();
    st.a[static_cast<std::size_t>(best_a)] +=
        st.a[static_cast<std::size_t>(best_b)];
    st.alive[static_cast<std::size_t>(best_b)] = 0;
    st.parent[static_cast<std::size_t>(best_b)] = best_a;

    q += best_dq;
    if (q > best_q + 1e-12) {
      best_q = q;
      for (NodeId u = 0; u < n; ++u) {
        best_assignment[static_cast<std::size_t>(u)] =
            st.find(community_of[static_cast<std::size_t>(u)]);
      }
    }
  }

  std::unordered_map<int, std::vector<NodeId>> groups;
  for (NodeId u = 0; u < n; ++u) {
    groups[best_assignment[static_cast<std::size_t>(u)]].push_back(u);
  }
  std::vector<std::vector<NodeId>> out;
  out.reserve(groups.size());
  for (auto& [rep, members] : groups) {
    (void)rep;
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return x.size() > y.size();
    return x.front() < y.front();
  });
  return out;
}

/// Same edge set as `g`, every weight redrawn from U[lo, hi).
Graph reweighted(const Graph& g, double lo, double hi, util::Rng& rng) {
  Graph out(g.num_nodes());
  for (const Edge& e : g.edges()) out.add_edge(e.u, e.v, util::uniform(rng, lo, hi));
  return out;
}

/// Disjoint union: `h` relabelled after `g`'s nodes.
Graph disjoint_union(const Graph& g, const Graph& h) {
  Graph out(g.num_nodes() + h.num_nodes());
  for (const Edge& e : g.edges()) out.add_edge(e.u, e.v, e.w);
  for (const Edge& e : h.edges()) {
    out.add_edge(e.u + g.num_nodes(), e.v + g.num_nodes(), e.w);
  }
  return out;
}

TEST(GreedyModularity, MatchesLinearScanReference) {
  // The incremental merge loop must reproduce the linear scan exactly:
  // same ΔQ doubles, same tie-breaks (first maximum in map order), same
  // best step. Unit weights make exact ΔQ ties common; U[-1,1) weights are
  // the shape of a QAOA^2 merge graph.
  std::vector<std::pair<std::string, Graph>> cases;
  util::Rng rng(4242);
  const NodeId sizes[] = {25, 40, 55, 70, 100, 130, 160, 190};
  for (const double p : {0.02, 0.1, 0.3}) {
    for (const NodeId n : sizes) {
      const std::string tag = "p" + std::to_string(p) + "_n" + std::to_string(n);
      cases.emplace_back("er_unit_" + tag, erdos_renyi(n, p, rng));
      cases.emplace_back("er_u01_" + tag,
                         erdos_renyi(n, p, rng, WeightMode::kUniform01));
    }
  }
  for (const NodeId n : {300, 400}) {
    cases.emplace_back("er_unit_sparse_" + std::to_string(n),
                       erdos_renyi(n, 0.02, rng));
    cases.emplace_back("er_u01_sparse_" + std::to_string(n),
                       erdos_renyi(n, 0.02, rng, WeightMode::kUniform01));
  }
  for (int i = 0; i < 14; ++i) {
    const NodeId n = static_cast<NodeId>(30 + 15 * i);
    const Graph base = erdos_renyi(n, i % 2 == 0 ? 0.1 : 0.3, rng);
    cases.emplace_back("signed_" + std::to_string(i),
                       reweighted(base, -1.0, 1.0, rng));
    // Mixed signs with a positive total, so the merge loop actually runs.
    cases.emplace_back("signed_biased_" + std::to_string(i),
                       reweighted(base, -0.5, 1.0, rng));
  }
  for (int i = 0; i < 6; ++i) {
    const Graph left = erdos_renyi(static_cast<NodeId>(20 + 10 * i), 0.2, rng);
    const Graph right = planted_partition(3, static_cast<NodeId>(6 + i), 0.8,
                                          0.05, rng);
    cases.emplace_back("union_" + std::to_string(i),
                       disjoint_union(disjoint_union(left, right),
                                      cycle_graph(static_cast<NodeId>(5 + i))));
  }
  for (const NodeId n : {5, 17, 60, 200}) {
    cases.emplace_back("star_" + std::to_string(n), star_graph(n));
  }
  for (int i = 0; i < 6; ++i) {
    cases.emplace_back(
        "planted_" + std::to_string(i),
        planted_partition(static_cast<NodeId>(3 + i), static_cast<NodeId>(8 + 2 * i),
                          0.7, 0.03, rng));
  }
  cases.emplace_back("grid_12x12", grid_2d(12, 12));
  cases.emplace_back("barbell", barbell_graph(8, 5));
  cases.emplace_back("grid_5x20", grid_2d(5, 20));
  cases.emplace_back("regular_3", random_regular(60, 3, rng));
  cases.emplace_back("regular_4", random_regular(120, 4, rng));
  cases.emplace_back("complete_12", complete_graph(12));
  ASSERT_GE(cases.size(), 100u);
  for (const auto& [name, g] : cases) {
    EXPECT_EQ(greedy_modularity_communities(g), linear_scan_greedy_modularity(g))
        << name;
  }
  // Tiny unit-weight graphs are where a merged community's new ΔQ most
  // often ties a neighbour's cached best exactly, so only map order can
  // break the tie.
  util::Rng tiny_rng(12345);
  for (int i = 0; i < 4000; ++i) {
    const Graph g = erdos_renyi(static_cast<NodeId>(5 + i % 10),
                                0.2 + 0.05 * (i % 10), tiny_rng);
    ASSERT_EQ(greedy_modularity_communities(g),
              linear_scan_greedy_modularity(g))
        << "tiny graph " << i;
  }
}

// ------------------------------------------------------------ partition ----

struct PartitionCase {
  const char* name;
  Graph graph;
  NodeId max_nodes;
};

class PartitionInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PartitionInvariants, CoverDisjointAndCapped) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  // Rotate across graph families with the seed.
  Graph g(0);
  switch (seed % 4) {
    case 0: g = erdos_renyi(50, 0.1, rng); break;
    case 1: g = erdos_renyi(64, 0.3, rng, WeightMode::kUniform01); break;
    case 2: g = planted_partition(5, 9, 0.8, 0.05, rng); break;
    default: g = complete_graph(30); break;
  }
  PartitionOptions opts;
  opts.max_nodes = 8;
  opts.seed = static_cast<std::uint64_t>(seed);
  const auto parts = partition_max_size(g, opts);
  std::set<NodeId> seen;
  for (const auto& part : parts) {
    EXPECT_FALSE(part.empty());
    EXPECT_LE(part.size(), 8u);
    for (const NodeId u : part) {
      EXPECT_TRUE(seen.insert(u).second) << "node appears twice";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(g.num_nodes()));
}

INSTANTIATE_TEST_SUITE_P(Families, PartitionInvariants,
                         ::testing::Range(0, 12));

TEST(Partition, SmallGraphStaysWhole) {
  const Graph g = cycle_graph(6);
  PartitionOptions opts;
  opts.max_nodes = 10;
  const auto parts = partition_max_size(g, opts);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 6u);
}

TEST(Partition, CliqueFallbackSplitsBalanced) {
  // Modularity cannot split a clique; the BFS fallback must.
  const Graph g = complete_graph(20);
  PartitionOptions opts;
  opts.max_nodes = 6;
  const auto parts = partition_max_size(g, opts);
  EXPECT_GE(parts.size(), 4u);
  for (const auto& part : parts) EXPECT_LE(part.size(), 6u);
}

TEST(Partition, RespectsTightCap) {
  util::Rng rng(17);
  const Graph g = erdos_renyi(40, 0.2, rng);
  PartitionOptions opts;
  opts.max_nodes = 2;
  const auto parts = partition_max_size(g, opts);
  for (const auto& part : parts) EXPECT_LE(part.size(), 2u);
}

TEST(Partition, InvalidCapThrows) {
  PartitionOptions opts;
  opts.max_nodes = 0;
  EXPECT_THROW(partition_max_size(cycle_graph(4), opts),
               std::invalid_argument);
}

TEST(Partition, CancelledContextThrowsCancelled) {
  util::Rng rng(29);
  const Graph g = erdos_renyi(300, 0.1, rng);
  util::RequestContext ctx;
  ctx.cancel();
  PartitionOptions opts;
  opts.max_nodes = 16;
  opts.context = &ctx;
  try {
    partition_max_size(g, opts);
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::StopReason::kCancelled);
  }
  // The CNM merge loop polls on its own, too.
  EXPECT_THROW(greedy_modularity_communities(g, &ctx), util::CancelledError);
}

TEST(Partition, PassedDeadlineThrowsDeadline) {
  util::Rng rng(31);
  const Graph g = erdos_renyi(300, 0.1, rng);
  util::RequestContext ctx;
  ctx.set_deadline_after(-1.0);
  PartitionOptions opts;
  opts.max_nodes = 16;
  opts.context = &ctx;
  try {
    partition_max_size(g, opts);
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason(), util::StopReason::kDeadline);
  }
}

TEST(Partition, UntrippedContextLeavesPartsUnchanged) {
  util::Rng rng(37);
  const Graph g = erdos_renyi(300, 0.1, rng, WeightMode::kUniform01);
  util::RequestContext ctx;
  ctx.set_deadline_after(3600.0);
  PartitionOptions opts;
  opts.max_nodes = 12;
  opts.seed = 5;
  const auto plain = partition_max_size(g, opts);
  opts.context = &ctx;
  EXPECT_EQ(partition_max_size(g, opts), plain);
}

TEST(Partition, KeepsPlantedBlocksTogetherWhenTheyFit) {
  util::Rng rng(19);
  const Graph g = planted_partition(4, 6, 0.9, 0.02, rng);
  PartitionOptions opts;
  opts.max_nodes = 6;
  const auto parts = partition_max_size(g, opts);
  // Blocks of 6 fit exactly; modularity should find them (4 parts).
  EXPECT_EQ(parts.size(), 4u);
}

// -------------------------------------------------------------------- io ----

TEST(Io, RoundTripPreservesGraph) {
  util::Rng rng(23);
  const Graph g = erdos_renyi(30, 0.2, rng, WeightMode::kUniform01);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) {
    EXPECT_DOUBLE_EQ(h.edge_weight(e.u, e.v), e.w);
  }
}

TEST(Io, SkipsComments) {
  std::stringstream ss("# a comment\n3 1\n# another\n0 2 1.5\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 1.5);
}

TEST(Io, MalformedInputThrows) {
  std::stringstream empty;
  EXPECT_THROW(read_edge_list(empty), std::runtime_error);
  std::stringstream truncated("4 2\n0 1 1.0\n");
  EXPECT_THROW(read_edge_list(truncated), std::runtime_error);
  std::stringstream garbage("x y\n");
  EXPECT_THROW(read_edge_list(garbage), std::runtime_error);
}

}  // namespace
}  // namespace qq::graph
