// Robustness and failure-injection suite: edge cases, error propagation,
// and degenerate inputs across modules — the situations a downstream user
// hits first.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "maxcut/exact.hpp"
#include "qaoa/qaoa.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "qsim/measure.hpp"
#include "qsim/statevector.hpp"
#include "sched/engine.hpp"
#include "sdp/gw.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace qq {
namespace {

// ------------------------------------------------- failing tasks (Fig 2) ----

TEST(EngineFailure, ThrowingTaskIsReportedAfterBatchDrains) {
  sched::WorkflowEngine engine(sched::EngineOptions{2, 2});
  std::atomic<int> completed{0};
  for (int i = 0; i < 12; ++i) {
    if (i == 5) {
      engine.submit({sched::ResourceKind::kQuantum,
                     [] { throw std::runtime_error("device lost"); }});
    } else {
      engine.submit(
          {sched::ResourceKind::kClassical, [&completed] { completed++; }});
    }
  }
  EXPECT_THROW(engine.drain(), std::runtime_error);
  // Every sibling task still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 11);
}

TEST(EngineFailure, FailedTaskReleasesItsSlot) {
  // With a single quantum slot, a throwing task must not wedge the gate.
  sched::WorkflowEngine engine(sched::EngineOptions{1, 1});
  std::atomic<int> quantum_ran{0};
  engine.submit({sched::ResourceKind::kQuantum,
                 [] { throw std::logic_error("boom"); }});
  for (int i = 0; i < 4; ++i) {
    engine.submit(
        {sched::ResourceKind::kQuantum, [&quantum_ran] { quantum_ran++; }});
  }
  EXPECT_THROW(engine.drain(), std::logic_error);
  EXPECT_EQ(quantum_ran.load(), 4);
}

// ------------------------------------------------------ degenerate inputs ----

TEST(Degenerate, ZeroQubitStateVector) {
  sim::StateVector sv(0);
  EXPECT_EQ(sv.size(), 1u);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-15);
  EXPECT_EQ(sim::argmax_probability(sv), 0u);
}

TEST(Degenerate, GatesOnHighestQubitIndex) {
  // The top qubit exercises the widest-stride code paths.
  const int n = 16;
  sim::StateVector sv(n);
  sv.apply_h(n - 1);
  sv.apply_rz(n - 1, 0.7);
  sv.apply_cx(n - 1, 0);
  sv.apply_rzz(0, n - 1, 0.3);
  EXPECT_NEAR(sv.norm_squared(), 1.0, 1e-10);
  // H on the top qubit from |0...0> puts half the mass at index 2^(n-1).
  sim::StateVector fresh(n);
  fresh.apply_h(n - 1);
  EXPECT_NEAR(std::norm(fresh.amplitude(std::size_t{1} << (n - 1))), 0.5,
              1e-12);
}

TEST(Degenerate, QaoaOnEdgelessGraph) {
  const graph::Graph g(5);  // no edges: every cut is 0
  qaoa::QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 20;
  const auto r = qaoa::solve_qaoa(g, opts);
  EXPECT_DOUBLE_EQ(r.cut.value, 0.0);
  EXPECT_DOUBLE_EQ(r.expectation, 0.0);
}

TEST(Degenerate, QaoaOnSingleEdgeWeightedGraph) {
  graph::Graph g(2);
  g.add_edge(0, 1, 2.5);
  qaoa::QaoaOptions opts;
  opts.layers = 2;
  opts.max_iterations = 200;
  const auto r = qaoa::solve_qaoa(g, opts);
  EXPECT_DOUBLE_EQ(r.cut.value, 2.5);
}

TEST(Degenerate, Qaoa2OnDisconnectedGraph) {
  // Components solved independently; union must be consistent. Three
  // disjoint 8-node ER blobs (shared fixture, tests/test_graphs.hpp).
  const graph::Graph g = testing::disjoint_blobs_fixture();
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "exact";
  opts.merge_solver_spec = "exact";
  const auto r = qaoa2::solve_qaoa2(g, opts);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
  EXPECT_GT(r.cut.value, 0.0);
}

TEST(Degenerate, Qaoa2OnNegativeWeightGraph) {
  // Fully negative weights: the optimum is the empty cut (value 0).
  const graph::Graph g = testing::negative_weight_fixture();
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 6;
  opts.sub_solver_spec = "exact";
  opts.merge_solver_spec = "exact";
  const auto r = qaoa2::solve_qaoa2(g, opts);
  EXPECT_NEAR(r.cut.value, 0.0, 1e-9);
}

TEST(Degenerate, Qaoa2WeightedPipeline) {
  util::Rng rng(7);
  const auto g = graph::erdos_renyi(30, 0.2, rng,
                                    graph::WeightMode::kUniform01);
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = 8;
  opts.sub_solver_spec = "best";
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 30;
  opts.merge_solver_spec = "exact";
  const auto r = qaoa2::solve_qaoa2(g, opts);
  EXPECT_NEAR(maxcut::cut_value(g, r.cut.assignment), r.cut.value, 1e-9);
  EXPECT_GE(r.cut.value, g.total_weight() / 2.0 * 0.8);
}

TEST(Degenerate, GwOnTinyGraphs) {
  graph::Graph two(2);
  two.add_edge(0, 1, 3.0);
  EXPECT_NEAR(sdp::goemans_williamson(two).best.value, 3.0, 1e-9);
  EXPECT_NEAR(sdp::goemans_williamson(graph::Graph(1)).best.value, 0.0, 1e-9);
  EXPECT_NEAR(sdp::goemans_williamson(graph::Graph(0)).best.value, 0.0, 1e-9);
}

TEST(Degenerate, GraphValueSemantics) {
  util::Rng rng(9);
  const auto g = graph::erdos_renyi(20, 0.3, rng);
  graph::Graph copy = g;  // deep copy
  copy.add_edge(0, 1, 100.0);
  EXPECT_NE(copy.total_weight(), g.total_weight());
  graph::Graph moved = std::move(copy);
  EXPECT_GT(moved.total_weight(), g.total_weight());
}

TEST(Degenerate, ExactSolverSingleEdgeAndTriangle) {
  graph::Graph edge(2);
  edge.add_edge(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(maxcut::solve_exact(edge).value, 1.0);
  EXPECT_DOUBLE_EQ(maxcut::solve_exact(graph::cycle_graph(3)).value, 2.0);
}

TEST(Degenerate, SamplingFromConcentratedState) {
  sim::StateVector sv(5);  // |00000> exactly
  util::Rng rng(11);
  const auto shots = sim::sample_counts(sv, 1000, rng);
  for (const auto s : shots) EXPECT_EQ(s, 0u);
}

TEST(Degenerate, RngStreamSurvivesHeavyUse) {
  util::Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 1000000; ++i) sum += util::uniform(rng);
  EXPECT_NEAR(sum / 1e6, 0.5, 0.005);
}

}  // namespace
}  // namespace qq
