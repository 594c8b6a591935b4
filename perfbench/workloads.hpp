#pragma once
// The benchmark's workloads. Each builds its inputs from config.seed, runs
// its fixed work, checks every output, and returns the end-to-end metrics
// (config.trace == false) or the per-layer metrics (config.trace == true).

#include <cstdint>
#include <vector>

#include "layers.hpp"
#include "metrics.hpp"
#include "qaoa/qaoa.hpp"
#include "qgraph/graph.hpp"
#include "solver/solver.hpp"
#include "util/cancellation.hpp"

namespace perfbench {

RunResult run_qaoa2_large(const RunConfig& config);
RunResult run_leaf_grid(const RunConfig& config);
RunResult run_service_mixed(const RunConfig& config);

/// Threads of every workload's engine pool: the machine's hardware
/// threads, at most 4.
int worker_count();

/// A SolveRequest for `g` at `seed`, optionally under a stop context.
inline qq::solver::SolveRequest solve_request(
    const qq::graph::Graph& g, std::uint64_t seed,
    const qq::util::RequestContext* context = nullptr) {
  qq::solver::SolveRequest request;
  request.graph = &g;
  request.seed = seed;
  request.context = context;
  return request;
}

/// One leaf the QAOA breakdown replays: a graph and the exact QaoaOptions
/// (seed included) the pipeline's solver used on it.
struct LeafCase {
  const qq::graph::Graph* graph = nullptr;
  qq::qaoa::QaoaOptions options;
};

/// Replays `leaves` through the public QAOA and qsim calls with one span
/// per call, and sets the qaoa.*, qsim.* and optim.* per-layer values.
/// `expected_cuts[i]` is the cut the leaf solver reported for leaf i; a
/// mismatch fails a check in `out`.
void qaoa_breakdown(const std::vector<LeafCase>& leaves,
                    const std::vector<double>& expected_cuts,
                    LayerValues& values, RunResult& out);

}  // namespace perfbench
