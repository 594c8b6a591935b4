// The QAOA breakdown of the traced runs: each leaf solve replayed through
// the public QAOA and qsim calls, one span per call.
//
//   qaoa.cut_table_s    QaoaSolver construction (the 2^n cut table)
//   qaoa.optimize_s     QaoaSolver::optimize, with qaoa.evals objective
//                       evaluations
//   qsim.eval_s         one QaoaSolver::expectation at the optimum (state
//                       preparation + diagonal expectation), median
//   qsim.sample_s       one sim::sample_counts_into at the leaf's shot
//                       count, median
//   qsim.bytes_per_eval COMPUTED, not measured: the state-vector and
//                       cut-table traffic of one evaluation (see below)
//   optim.self_s        ESTIMATED: per leaf, its optimize() time minus its
//                       evals times its measured per-evaluation cost,
//                       summed

#include <algorithm>
#include <optional>

#include "layers.hpp"
#include "qcircuit/ansatz.hpp"
#include "qsim/measure.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Expectation / sampling calls probed per leaf.
constexpr int kProbeCalls = 3;

/// Bytes one objective evaluation moves at n qubits and p layers: the
/// |+> reset writes the state (S), each layer's diagonal phase reads and
/// writes it and reads the cut table (2S + T), each fused mixer pass reads
/// and writes it (2S), and the expectation reads both (S + T); S = 16 B *
/// 2^n, T = 8 B * 2^n.
double bytes_per_eval(int qubits, int layers) {
  const double states = static_cast<double>(1ULL << qubits);
  const double s = 16.0 * states;
  const double t = 8.0 * states;
  return s + layers * (2.0 * s + t) + layers * 2.0 * s + (s + t);
}

}  // namespace

void qaoa_breakdown(const std::vector<LeafCase>& leaves,
                    const std::vector<double>& expected_cuts,
                    LayerValues& values, RunResult& out) {
  double cut_table_s = 0.0;
  double optimize_s = 0.0;
  double evals = 0.0;
  double optim_self_s = 0.0;
  std::vector<double> eval_times;
  std::vector<double> sample_times;
  double bytes = 0.0;
  bool all_match = true;

  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const LeafCase& leaf = leaves[i];
    double start = now_seconds();
    std::optional<qq::qaoa::QaoaSolver> solver;
    {
      trace::Span span("qaoa", "QaoaSolver");
      solver.emplace(*leaf.graph);
    }
    cut_table_s += now_seconds() - start;

    start = now_seconds();
    qq::qaoa::QaoaResult res;
    {
      trace::Span span("qaoa", "optimize");
      res = solver->optimize(leaf.options);
      span.arg("evals", res.evaluations);
    }
    const double leaf_optimize_s = now_seconds() - start;
    optimize_s += leaf_optimize_s;
    evals += res.evaluations;
    all_match = all_match && res.cut.value == expected_cuts[i];

    const int n = leaf.graph->num_nodes();
    const int p = leaf.options.layers;
    bytes = std::max(bytes, bytes_per_eval(n, p));

    const qq::circuit::QaoaAngles angles =
        qq::circuit::unpack_angles(res.parameters);
    qq::qaoa::QaoaSolver::EvalWorkspace workspace(n);
    qq::util::Rng rng(leaf.options.seed);
    double leaf_eval = 0.0;
    double leaf_sample = 0.0;
    for (int c = 0; c < kProbeCalls; ++c) {
      start = now_seconds();
      {
        trace::Span span("qsim", "expectation");
        (void)solver->expectation(angles, workspace);
      }
      eval_times.push_back(now_seconds() - start);
      start = now_seconds();
      {
        trace::Span span("qsim", "sample_counts_into");
        qq::sim::sample_counts_into(workspace.sv, leaf.options.shots, rng,
                                    workspace.cdf, workspace.samples);
      }
      sample_times.push_back(now_seconds() - start);
      leaf_eval += eval_times.back();
      leaf_sample += sample_times.back();
    }
    // A shot-based objective evaluation prepares the state and samples it;
    // the exact one prepares it and takes the diagonal expectation.
    const double per_eval =
        (leaf_eval + (leaf.options.shot_based_objective ? leaf_sample : 0.0)) /
        kProbeCalls;
    optim_self_s += leaf_optimize_s - res.evaluations * per_eval;
  }
  out.check(all_match,
            "QAOA breakdown: a replayed optimize() cut differs from the "
            "leaf solver's cut");

  values["qaoa.cut_table_s"] = cut_table_s;
  values["qaoa.optimize_s"] = optimize_s;
  values["qaoa.evals"] = evals;
  values["qsim.eval_s"] = median(eval_times);
  values["qsim.sample_s"] = median(sample_times);
  values["qsim.bytes_per_eval"] = bytes;
  values["optim.self_s"] = optim_self_s;
}

}  // namespace perfbench
