// Tests for the QAOA^2 divide-and-conquer driver: merge-graph construction
// (paper step 4), flip reconstruction (step 5), recursion, and the hybrid
// sub-solver selection.

#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <future>
#include <utility>

#include "maxcut/exact.hpp"
#include "qaoa2/merge.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qq::qaoa2 {
namespace {

using graph::Graph;
using graph::NodeId;

// ------------------------------------------------------------ merge step ----

TEST(Merge, PartIndexValidation) {
  EXPECT_THROW(part_index(4, {{0, 1}, {1, 2, 3}}), std::invalid_argument);
  EXPECT_THROW(part_index(4, {{0, 1}}), std::invalid_argument);  // not covering
  EXPECT_THROW(part_index(4, {{0, 1}, {2, 9}}), std::out_of_range);
  const auto idx = part_index(4, {{0, 2}, {1, 3}});
  EXPECT_EQ(idx, (std::vector<int>{0, 1, 0, 1}));
}

TEST(Merge, HandExampleSignsAndAggregation) {
  // Two parts {0,1} and {2,3}; crossing edges (1,2) w=2 and (0,3) w=5.
  Graph g(4);
  g.add_edge(0, 1, 1.0);  // intra part 0
  g.add_edge(2, 3, 1.0);  // intra part 1
  g.add_edge(1, 2, 2.0);  // crossing
  g.add_edge(0, 3, 5.0);  // crossing
  const std::vector<std::vector<NodeId>> parts = {{0, 1}, {2, 3}};
  // Local solutions: part0 = [0,1] (node1 side 1), part1 = [0,0].
  // Edge (1,2): sides 1 vs 0 -> currently cut -> weight -2.
  // Edge (0,3): sides 0 vs 0 -> uncut -> weight +5. Sum = +3.
  const std::vector<maxcut::Assignment> locals = {{0, 1}, {0, 0}};
  const Graph coarse = build_merge_graph(g, parts, locals);
  EXPECT_EQ(coarse.num_nodes(), 2);
  ASSERT_EQ(coarse.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(coarse.edge_weight(0, 1), 3.0);
}

TEST(Merge, AllCutCrossingGivesNegativeWeight) {
  Graph g(4);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  const std::vector<std::vector<NodeId>> parts = {{0, 1}, {2, 3}};
  const std::vector<maxcut::Assignment> locals = {{0, 1}, {1, 0}};
  // (0,2): 0 vs 1 cut -> -1 ; (1,3): 1 vs 0 cut -> -1. Sum -2.
  const Graph coarse = build_merge_graph(g, parts, locals);
  EXPECT_DOUBLE_EQ(coarse.edge_weight(0, 1), -2.0);
}

TEST(Merge, ApplyFlipsXorsWholeParts) {
  const std::vector<std::vector<NodeId>> parts = {{0, 2}, {1, 3}};
  const std::vector<maxcut::Assignment> locals = {{0, 1}, {1, 1}};
  const maxcut::Assignment coarse = {0, 1};  // flip part 1 only
  const auto global = apply_flips(4, parts, locals, coarse);
  // node0 (part0, local 0) = 0; node2 (part0, local 1) = 1;
  // node1 (part1, local 0) = 1^1 = 0; node3 = 1^1 = 0.
  EXPECT_EQ(global, (maxcut::Assignment{0, 0, 1, 0}));
  EXPECT_THROW(apply_flips(4, parts, locals, {0}), std::invalid_argument);
}

TEST(Merge, CoarseCutGainEqualsGlobalGain) {
  // Property: for any coarse assignment y, the lifted global cut equals
  // (lifted cut at y=0) + (coarse cut value at y) - (coarse cut at y=0).
  // Since coarse cut at all-zeros is 0, global(y) = global(0) + coarse(y).
  util::Rng rng(3);
  const Graph g =
      graph::erdos_renyi(12, 0.4, rng, graph::WeightMode::kUniform01);
  graph::PartitionOptions popts;
  popts.max_nodes = 4;
  const auto parts = graph::partition_max_size(g, popts);
  std::vector<maxcut::Assignment> locals;
  for (const auto& part : parts) {
    maxcut::Assignment a(part.size());
    for (auto& s : a) s = util::bernoulli(rng, 0.5) ? 1 : 0;
    locals.push_back(a);
  }
  const Graph coarse = build_merge_graph(g, parts, locals);
  const maxcut::Assignment zero(parts.size(), 0);
  const double base =
      maxcut::cut_value(g, apply_flips(g.num_nodes(), parts, locals, zero));
  for (int trial = 0; trial < 16; ++trial) {
    maxcut::Assignment y(parts.size());
    for (auto& s : y) s = util::bernoulli(rng, 0.5) ? 1 : 0;
    const double lifted =
        maxcut::cut_value(g, apply_flips(g.num_nodes(), parts, locals, y));
    EXPECT_NEAR(lifted, base + maxcut::cut_value(coarse, y), 1e-9);
  }
}

// ---------------------------------------------------------------- driver ----

TEST(Qaoa2, SmallGraphBypassesPartitioning) {
  util::Rng rng(5);
  const Graph g = graph::erdos_renyi(8, 0.4, rng);
  Qaoa2Options opts;
  opts.max_qubits = 12;
  opts.sub_solver_spec = "exact";
  const Qaoa2Result r = solve_qaoa2(g, opts);
  EXPECT_EQ(r.subgraphs_total, 1);
  EXPECT_DOUBLE_EQ(r.cut.value, maxcut::solve_exact(g).value);
  // The base case records its level too (it used to be missing from
  // level_stats entirely).
  ASSERT_EQ(r.level_stats.size(), 1u);
  EXPECT_EQ(r.level_stats[0].level, 0);
  EXPECT_EQ(r.level_stats[0].num_parts, 1);
  EXPECT_EQ(r.level_stats[0].largest_part, g.num_nodes());
  EXPECT_NEAR(r.level_stats[0].level_cut, r.cut.value, 1e-12);
}

TEST(Qaoa2, ExactSubSolverWithExactMergeIsNearExactOnClustered) {
  // On strongly clustered graphs the partition matches the communities and
  // divide-and-conquer loses little.
  util::Rng rng(7);
  const Graph g = graph::planted_partition(3, 6, 0.85, 0.05, rng);
  Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "exact";
  opts.merge_solver_spec = "exact";
  const Qaoa2Result r = solve_qaoa2(g, opts);
  const double exact = maxcut::solve_exact(g).value;
  EXPECT_GE(r.cut.value, 0.9 * exact);
  EXPECT_LE(r.cut.value, exact + 1e-9);
}

TEST(Qaoa2, ReportedValueMatchesAssignment) {
  util::Rng rng(9);
  const Graph g = graph::erdos_renyi(30, 0.15, rng);
  Qaoa2Options opts;
  opts.max_qubits = 8;
  opts.sub_solver_spec = "local-search";
  opts.merge_solver_spec = "exact";
  const Qaoa2Result r = solve_qaoa2(g, opts);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
}

TEST(Qaoa2, MergeWithExactCoarseSolverNeverHurtsLocals) {
  // The coarse MaxCut includes the all-zero flip vector, so with an exact
  // coarse solver the merged cut dominates the unflipped lift.
  util::Rng rng(11);
  const Graph g = graph::erdos_renyi(26, 0.2, rng);
  Qaoa2Options opts;
  opts.max_qubits = 7;
  opts.sub_solver_spec = "local-search";
  opts.merge_solver_spec = "exact";
  opts.seed = 13;
  const Qaoa2Result r = solve_qaoa2(g, opts);
  // Reconstruct the unflipped lift with the same seeds.
  // (Indirect check: level_cut of the last level equals the final value,
  //  and each level's cut is at least half the total weight heuristic.)
  ASSERT_FALSE(r.level_stats.empty());
  EXPECT_NEAR(r.level_stats.front().level_cut, r.cut.value, 1e-9);
  EXPECT_GE(r.cut.value, g.total_weight() / 2.0 * 0.8);
}

TEST(Qaoa2, QaoaSubSolverEndToEnd) {
  util::Rng rng(13);
  const Graph g = graph::erdos_renyi(20, 0.25, rng);
  Qaoa2Options opts;
  opts.max_qubits = 7;
  opts.sub_solver_spec = "qaoa";
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 40;
  opts.seed = 17;
  const Qaoa2Result r = solve_qaoa2(g, opts);
  EXPECT_GT(r.cut.value, 0.0);
  EXPECT_GT(r.quantum_solves, 0);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
}

TEST(Qaoa2, BestModeRunsBothKindsOfSolves) {
  util::Rng rng(15);
  const Graph g = graph::erdos_renyi(20, 0.25, rng);
  Qaoa2Options opts;
  opts.max_qubits = 7;
  opts.sub_solver_spec = "best";
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 30;
  opts.merge_solver_spec = "gw";
  const Qaoa2Result r = solve_qaoa2(g, opts);
  EXPECT_GT(r.quantum_solves, 0);
  EXPECT_GT(r.classical_solves, 0);
}

TEST(Qaoa2, BestModeDominatesSingleModesPerSubgraph) {
  // On each sub-graph, best-of(QAOA, GW) >= each individually; sanity-check
  // with the registry solvers built from the driver's defaults.
  util::Rng rng(17);
  const Graph g = graph::erdos_renyi(10, 0.3, rng);
  Qaoa2Options opts;
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 40;
  const Qaoa2Driver driver(opts);
  const auto solve = [&](const char* spec) {
    return solver::SolverRegistry::global()
        .make(spec, driver.solver_defaults())
        ->solve({&g, 5})
        .cut;
  };
  const auto q = solve("qaoa");
  const auto c = solve("gw");
  const auto b = solve("best");
  EXPECT_GE(b.value, std::max(q.value, c.value) - 1e-12);
}

TEST(Qaoa2, DeepRecursionTerminatesWithTinyDevices) {
  util::Rng rng(19);
  const Graph g = graph::erdos_renyi(60, 0.08, rng);
  Qaoa2Options opts;
  opts.max_qubits = 4;  // forces multiple levels
  opts.sub_solver_spec = "exact";
  opts.merge_solver_spec = "exact";
  opts.deeper_solver_spec = "exact";
  const Qaoa2Result r = solve_qaoa2(g, opts);
  EXPECT_GE(r.levels, 2);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
}

TEST(Qaoa2, DeterministicPerSeed) {
  util::Rng rng(21);
  const Graph g = graph::erdos_renyi(24, 0.2, rng);
  Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "qaoa";
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 30;
  opts.seed = 23;
  const Qaoa2Result a = solve_qaoa2(g, opts);
  const Qaoa2Result b = solve_qaoa2(g, opts);
  EXPECT_DOUBLE_EQ(a.cut.value, b.cut.value);
  EXPECT_EQ(a.cut.assignment, b.cut.assignment);
}

TEST(Qaoa2, EverySubSolverBackendRuns) {
  util::Rng rng(23);
  const Graph g = graph::erdos_renyi(14, 0.3, rng);
  for (const char* spec :
       {"qaoa", "gw", "exact", "anneal", "local-search", "rqaoa"}) {
    Qaoa2Options opts;
    opts.max_qubits = 6;
    opts.sub_solver_spec = spec;
    opts.qaoa.layers = 1;
    opts.qaoa.max_iterations = 20;
    opts.merge_solver_spec = "local-search";
    const Qaoa2Result r = solve_qaoa2(g, opts);
    EXPECT_GT(r.cut.value, 0.0) << spec;
  }
}

TEST(Qaoa2, LevelStatsAreConsistent) {
  util::Rng rng(25);
  const Graph g = graph::erdos_renyi(40, 0.12, rng);
  Qaoa2Options opts;
  opts.max_qubits = 8;
  opts.sub_solver_spec = "local-search";
  opts.merge_solver_spec = "exact";
  const Qaoa2Result r = solve_qaoa2(g, opts);
  ASSERT_FALSE(r.level_stats.empty());
  const LevelStats& top = r.level_stats.front();
  EXPECT_EQ(top.level, 0);
  EXPECT_GT(top.num_parts, 1);
  EXPECT_LE(top.largest_part, 8);
  EXPECT_GE(top.smallest_part, 1);
  // Every solve — including the final coarse solve, which is recorded as a
  // one-part level — appears in exactly one level's part count.
  int total_parts = 0;
  for (const auto& ls : r.level_stats) total_parts += ls.num_parts;
  EXPECT_EQ(r.subgraphs_total, total_parts);
  // Levels are reported ascending and the final level is the single coarse
  // solve at the bottom of the recursion chain.
  for (std::size_t i = 1; i < r.level_stats.size(); ++i) {
    EXPECT_GT(r.level_stats[i].level, r.level_stats[i - 1].level);
  }
  EXPECT_EQ(r.level_stats.back().num_parts, 1);
  EXPECT_EQ(static_cast<int>(r.level_stats.size()), r.levels);
}

TEST(Qaoa2, OptionValidation) {
  Qaoa2Options opts;
  opts.max_qubits = 1;
  EXPECT_THROW(Qaoa2Driver{opts}, std::invalid_argument);
  opts = Qaoa2Options{};
  opts.merge_solver_spec = "best";
  EXPECT_THROW(Qaoa2Driver{opts}, std::invalid_argument);  // Every role needs a spec: an empty one is rejected, not defaulted.
  opts = Qaoa2Options{};
  opts.deeper_solver_spec.clear();
  EXPECT_THROW(Qaoa2Driver{opts}, std::invalid_argument);
}

// ------------------------------------------------- component sharding ----

namespace {

/// Two ER blobs of different size plus two isolated nodes (shared fixture,
/// tests/test_graphs.hpp).
Graph disconnected_test_graph() { return testing::disconnected_fixture(); }

}  // namespace

TEST(Qaoa2, ComponentSeedIsIdentityForConnectedGraphs) {
  EXPECT_EQ(component_seed(12345u, 0, 1), 12345u);
  EXPECT_NE(component_seed(12345u, 0, 2), component_seed(12345u, 1, 2));
  EXPECT_NE(component_seed(12345u, 0, 2), 12345u);
}

TEST(Qaoa2, DisconnectedGraphShardsToIndependentComponentSolves) {
  const Graph g = disconnected_test_graph();
  const auto comps = graph::connected_components(g);
  ASSERT_EQ(comps.size(), 4u);  // 2 blobs + 2 isolated nodes

  Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "local-search";
  opts.merge_solver_spec = "exact";
  opts.seed = 31;

  for (const bool streaming : {true, false}) {
    opts.streaming = streaming;
    const Qaoa2Result r = solve_qaoa2(g, opts);
    EXPECT_EQ(r.components, 4);
    EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);

    // Sharding must reproduce, per component, exactly what an independent
    // solve of that component (seeded with its component_seed) produces.
    double sum = 0.0;
    for (std::size_t ci = 0; ci < comps.size(); ++ci) {
      const graph::Subgraph sub = g.induced(comps[ci]);
      Qaoa2Options copts = opts;
      copts.seed = component_seed(opts.seed, ci, comps.size());
      const Qaoa2Result rc = solve_qaoa2(sub.graph, copts);
      sum += rc.cut.value;
      ASSERT_EQ(rc.cut.assignment.size(), comps[ci].size());
      for (std::size_t j = 0; j < comps[ci].size(); ++j) {
        EXPECT_EQ(r.cut.assignment[static_cast<std::size_t>(comps[ci][j])],
                  rc.cut.assignment[j])
            << "component " << ci << " node " << j
            << " streaming=" << streaming;
      }
    }
    EXPECT_NEAR(r.cut.value, sum, 1e-9);
  }
}

TEST(Qaoa2, IsolatedNodesOnlyGraphSolvesTrivially) {
  const Graph g(9);  // no edges at all, but > max_qubits nodes
  Qaoa2Options opts;
  opts.max_qubits = 4;
  opts.sub_solver_spec = "exact";
  opts.merge_solver_spec = "exact";
  for (const bool streaming : {true, false}) {
    opts.streaming = streaming;
    const Qaoa2Result r = solve_qaoa2(g, opts);
    EXPECT_EQ(r.components, 9);
    EXPECT_DOUBLE_EQ(r.cut.value, 0.0);
    EXPECT_EQ(r.cut.assignment,
              maxcut::Assignment(static_cast<std::size_t>(g.num_nodes()), 0));
  }
}

// -------------------------------------- streaming-vs-recursive parity ----

namespace {

/// Asynchronous solve on a caller-owned engine: drain the engine, then wait
/// for the done callback, which may still be running on the last task's
/// thread when drain() returns.
Qaoa2Result solve_through_async(const Qaoa2Driver& driver, const Graph& g) {
  sched::WorkflowEngine engine(driver.options().engine);
  std::promise<Qaoa2Result> done;
  std::future<Qaoa2Result> result = done.get_future();
  driver.solve_async(engine, g, SolveTags{},
                     [&done](Qaoa2Result r, std::exception_ptr err) {
                       if (err) {
                         done.set_exception(err);
                       } else {
                         done.set_value(std::move(r));
                       }
                     });
  std::exception_ptr error;  // get() rethrows it after the callback ran
  engine.drain(&error);
  return result.get();
}

/// Every field fuzz::same_result compares. engine_tasks is not one: the
/// pipelines and entry points legitimately run different task counts.
void expect_same_result(const Qaoa2Result& a, const Qaoa2Result& b) {
  EXPECT_EQ(a.cut.value, b.cut.value);
  EXPECT_EQ(a.cut.assignment, b.cut.assignment);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.subgraphs_total, b.subgraphs_total);
  EXPECT_EQ(a.quantum_solves, b.quantum_solves);
  EXPECT_EQ(a.classical_solves, b.classical_solves);
  EXPECT_EQ(a.components, b.components);
  ASSERT_EQ(a.level_stats.size(), b.level_stats.size());
  for (std::size_t i = 0; i < a.level_stats.size(); ++i) {
    EXPECT_EQ(a.level_stats[i].level, b.level_stats[i].level);
    EXPECT_EQ(a.level_stats[i].num_parts, b.level_stats[i].num_parts);
    EXPECT_EQ(a.level_stats[i].level_cut, b.level_stats[i].level_cut);
  }
}

}  // namespace

TEST(Qaoa2, StreamingMatchesRecursiveBitForBit) {
  util::Rng rng(29);
  const Graph connected = graph::erdos_renyi(26, 0.2, rng);
  const Graph disconnected = disconnected_test_graph();
  for (const Graph* g : {&connected, &disconnected}) {
    Qaoa2Options opts;
    opts.max_qubits = 6;
    opts.sub_solver_spec = "qaoa";
    opts.qaoa.layers = 2;
    opts.qaoa.max_iterations = 25;
    opts.merge_solver_spec = "gw";
    opts.seed = 33;
    opts.streaming = false;
    const Qaoa2Result recursive = solve_qaoa2(*g, opts);
    opts.streaming = true;
    const Qaoa2Result streaming = solve_qaoa2(*g, opts);
    expect_same_result(streaming, recursive);
  }
}

TEST(Qaoa2, StreamingAsyncMatchesSolve) {
  Qaoa2Options opts;
  opts.sub_solver_spec = "qaoa";
  opts.merge_solver_spec = "gw";
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 25;
  opts.seed = 33;

  // Decomposed inputs: both entries stream the same task graph, planning
  // task included, so even the engine task count agrees.
  util::Rng rng(29);
  const Graph connected = graph::erdos_renyi(26, 0.2, rng);
  const Graph disconnected = disconnected_test_graph();
  opts.max_qubits = 6;
  for (const Graph* g : {&connected, &disconnected}) {
    const Qaoa2Driver driver(opts);
    const Qaoa2Result direct = driver.solve(*g);
    const Qaoa2Result async = solve_through_async(driver, *g);
    expect_same_result(direct, async);
    EXPECT_EQ(direct.engine_tasks, async.engine_tasks);
  }

  // Graphs that fit on one device: solve() needs no engine, while the
  // asynchronous entry runs its planning task plus the one whole-graph
  // solve. Everything else agrees, components included.
  util::Rng fit_rng(17);
  const Graph fits = graph::erdos_renyi(10, 0.3, fit_rng);
  const Graph sparse = [] {  // two edges, four isolated nodes: 6 components
    Graph g(8);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    return g;
  }();
  ASSERT_EQ(graph::connected_components(sparse).size(), 6u);
  opts.max_qubits = 12;
  for (const Graph* g : {&fits, &sparse}) {
    const Qaoa2Driver driver(opts);
    const Qaoa2Result direct = driver.solve(*g);
    const Qaoa2Result async = solve_through_async(driver, *g);
    expect_same_result(direct, async);
    EXPECT_EQ(direct.engine_tasks, 0);
    EXPECT_EQ(async.engine_tasks, 2);
  }
}

TEST(Qaoa2, StreamingBitForBitAcrossEnginePoolWidths) {
  // The task-graph schedule changes with the pool width; the cut must not.
  // Pools of width 1, 3, and 8 are injected through EngineOptions so the
  // solve is exercised at QQ_THREADS-like widths within one process.
  const Graph g = disconnected_test_graph();
  Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "qaoa";
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 20;
  opts.merge_solver_spec = "gw";
  opts.seed = 35;
  const Qaoa2Result reference = solve_qaoa2(g, opts);  // default pool
  for (const std::size_t threads : {1u, 3u, 8u}) {
    util::ThreadPool pool(threads);
    opts.engine.pool = &pool;
    for (const bool streaming : {true, false}) {
      opts.streaming = streaming;
      const Qaoa2Result r = solve_qaoa2(g, opts);
      EXPECT_EQ(r.cut.value, reference.cut.value)
          << "threads=" << threads << " streaming=" << streaming;
      EXPECT_EQ(r.cut.assignment, reference.cut.assignment)
          << "threads=" << threads << " streaming=" << streaming;
    }
  }
}

}  // namespace
}  // namespace qq::qaoa2
