// leaf_grid: direct leaf solves in the Table 1 style, no decomposition.
// Eight 18-node graphs (two of each p_edge in {0.1, 0.2} x {unit, U[0,1)}
// weights); on each, QAOA with a 4096-shot objective and random initial
// angles over the (p, rhobeg) grid {2, 3} x {0.1, 0.5}, and the GW
// reference. A pass also runs 40 deadline probes: QAOA solves stopped by a
// 0.05 s deadline, whose overshoot is the leaf layer's stop latency. The
// probes run five after each graph's grid, not all at the end, so their
// median samples a shared host's speed over the whole pass rather than
// over one 4 s burst.
//
// The traced run makes one untraced pass (the overhead base), one pass
// with every solver wrapped in the timing solver, then the QAOA breakdown
// of every grid solve.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "layers.hpp"
#include "maxcut/cut.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "timed_solver.hpp"
#include "trace.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qq::graph::Graph;

/// Table 1's larger default size; one size for every graph keeps the
/// per-solve latencies one population instead of two.
constexpr qq::graph::NodeId kNodes = 18;
constexpr int kLayers[] = {2, 3};
constexpr double kRhobegs[] = {0.1, 0.5};
constexpr int kShots = 4096;
constexpr int kDeadlineProbes = 40;
constexpr int kGraphs = 8;  ///< make_inputs: 2 x {0.1, 0.2} x {unit, U[0,1)}
constexpr int kProbesPerGraph = kDeadlineProbes / kGraphs;
static_assert(kDeadlineProbes % kGraphs == 0);
constexpr double kProbeDeadlineSeconds = 0.05;
constexpr int kProbeLayers = 3;
/// Nominal length of one pass; sets how many passes fit in --seconds.
constexpr double kNominalPassSeconds = 20.0;
/// Latency limit of one grid or GW solve (solo: 0.2-1.0 s on one core).
constexpr double kSolveLimitSeconds = 1.5;

/// The configuration every grid solve refines: the paper's shot-based
/// objective from random initial angles (see bench/grid_sweep.cpp).
qq::solver::SolverDefaults grid_defaults() {
  qq::solver::SolverDefaults defaults;
  defaults.qaoa.shot_based_objective = true;
  defaults.qaoa.shots = kShots;
  defaults.qaoa.init = qq::qaoa::InitKind::kRandom;
  return defaults;
}

struct GridPoint {
  int layers = 0;
  double rhobeg = 0.0;
  std::string spec;
};

std::vector<GridPoint> grid_points() {
  std::vector<GridPoint> points;
  for (const int p : kLayers) {
    for (const double rho : kRhobegs) {
      char spec[64];
      std::snprintf(spec, sizeof(spec), "qaoa:p=%d,rhobeg=%g", p, rho);
      points.push_back({p, rho, spec});
    }
  }
  return points;
}

struct Inputs {
  std::vector<Graph> graphs;
  std::vector<double> optimum;  ///< QaoaSolver::exact_optimum per graph
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  qq::util::Rng rng(seed);
  for (int instance = 0; instance < 2; ++instance) {
    for (const double p_edge : {0.1, 0.2}) {
      for (const auto mode : {qq::graph::WeightMode::kUnit,
                              qq::graph::WeightMode::kUniform01}) {
        in.graphs.push_back(
            qq::graph::erdos_renyi(kNodes, p_edge, rng, mode));
        in.optimum.push_back(
            qq::qaoa::QaoaSolver(in.graphs.back()).exact_optimum());
      }
    }
  }
  return in;
}

std::uint64_t solve_seed(std::uint64_t seed, std::size_t graph,
                         std::size_t point) {
  qq::util::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (graph + 1)) ^
                          (point << 20));
  return sm.next();
}

/// One pass over the fixed work. `wrap` prefixes every spec with the
/// timing solver.
struct Pass {
  double wall_s = 0.0;
  double cut_sum = 0.0;
  double ratio_sum = 0.0;
  int operations = 0;  ///< every solve: grid, GW and deadline probes
  int within_limit = 0;
  std::vector<double> latencies_s;  ///< grid solves only
  std::vector<double> overshoots_s;
  std::vector<double> grid_cuts;  ///< per grid solve, in order
};

Pass run_pass(const Inputs& in, std::uint64_t seed, bool wrap,
              RunResult& out) {
  const auto& registry = qq::solver::SolverRegistry::global();
  const qq::solver::SolverDefaults defaults = grid_defaults();
  const std::string prefix = wrap ? "timed:" : "";
  std::vector<qq::solver::SolverPtr> grid;
  for (const GridPoint& point : grid_points()) {
    grid.push_back(registry.make(prefix + point.spec, defaults));
  }
  const auto gw = registry.make(prefix + "gw", defaults);
  const auto probe = registry.make(
      prefix + "qaoa:p=" + std::to_string(kProbeLayers), defaults);

  Pass pass;
  const double pass_start = now_seconds();
  double took = 0.0;
  const auto timed_solve = [&](const qq::solver::Solver& s,
                               const qq::solver::SolveRequest& request) {
    const double start = now_seconds();
    qq::solver::SolveReport rep = s.solve(request);
    took = now_seconds() - start;
    const double recomputed = qq::maxcut::cut_value(*request.graph,
                                                    rep.cut.assignment);
    out.check(recomputed == rep.cut.value,
              "leaf_grid: reported cut differs from maxcut::cut_value");
    return rep;
  };
  for (std::size_t gi = 0; gi < in.graphs.size(); ++gi) {
    const Graph& g = in.graphs[gi];
    const double bound = in.optimum[gi] + 1e-9 * (1.0 + in.optimum[gi]);
    for (std::size_t pi = 0; pi < grid.size(); ++pi) {
      const auto rep = timed_solve(*grid[pi],
                                   solve_request(g, solve_seed(seed, gi, pi)));
      pass.latencies_s.push_back(took);
      pass.within_limit += took <= kSolveLimitSeconds;
      out.check(rep.cut.value <= bound,
                "leaf_grid: QAOA cut exceeds QaoaSolver::exact_optimum()");
      ++pass.operations;
      pass.cut_sum += rep.cut.value;
      pass.grid_cuts.push_back(rep.cut.value);
      pass.ratio_sum += in.optimum[gi] > 0.0 ? rep.cut.value / in.optimum[gi]
                                             : 1.0;
    }
    const auto rep = timed_solve(*gw, solve_request(g, solve_seed(seed, gi, 99)));
    ++pass.operations;
    pass.within_limit += took <= kSolveLimitSeconds;
    out.check(rep.cut.value <= bound,
              "leaf_grid: GW cut exceeds QaoaSolver::exact_optimum()");
    pass.cut_sum += rep.cut.value;
    for (int k = static_cast<int>(gi) * kProbesPerGraph;
         k < static_cast<int>(gi + 1) * kProbesPerGraph; ++k) {
      const std::size_t probed = static_cast<std::size_t>(k) % in.graphs.size();
      qq::util::RequestContext context;
      context.set_deadline_after(kProbeDeadlineSeconds);
      (void)timed_solve(*probe, solve_request(in.graphs[probed],
                                              solve_seed(seed, probed, 100 + k),
                                              &context));
      ++pass.operations;
      if (context.stop_reason() == qq::util::StopReason::kDeadline) {
        pass.overshoots_s.push_back(took - kProbeDeadlineSeconds);
      } else {
        pass.within_limit += took <= kProbeDeadlineSeconds;
      }
    }
  }
  pass.wall_s = now_seconds() - pass_start;
  return pass;
}

}  // namespace

RunResult run_leaf_grid(const RunConfig& config) {
  RunResult out;
  EndToEnd e2e;

  // Set-up: the input graphs and their exact optima (the approx_ratio
  // reference), several times.
  std::vector<double> setup;
  Inputs in;
  for (int i = 0; i < 5; ++i) {
    const double start = now_seconds();
    in = make_inputs(config.seed);
    setup.push_back(now_seconds() - start);
  }
  e2e.setup_s = median(setup);

  if (config.trace) {
    register_timed_solver();
    const Pass base = run_pass(in, config.seed, false, out);
    reset_leaf_times();
    trace::clear();
    trace::begin_request();
    const Pass timed = run_pass(in, config.seed, true, out);
    out.check(timed.grid_cuts == base.grid_cuts,
              "leaf_grid: timed-solver cuts differ from the plain solves");
    LayerValues v;
    const LeafTimes leaves = leaf_times();
    v["solver.leaf_calls"] = static_cast<double>(leaves.calls);
    v["solver.leaf_busy_s"] = leaves.busy_s;
    v["solver.quantum_busy_s"] = leaves.quantum_busy_s;
    v["solver.classical_busy_s"] = leaves.classical_busy_s;
    v["solver.leaf_p50_s"] = median(leaves.latencies_s);
    v["sdp.gw_calls"] = static_cast<double>(leaves.gw_calls);
    v["sdp.gw_s"] = leaves.gw_s;
    v["trace.overhead_frac"] = (timed.wall_s - base.wall_s) / base.wall_s;

    // The QAOA breakdown of every grid solve, with the options the
    // registry's adapter used.
    trace::begin_request();
    std::vector<LeafCase> leaves_cases;
    const qq::solver::SolverDefaults defaults = grid_defaults();
    const std::vector<GridPoint> points = grid_points();
    for (std::size_t gi = 0; gi < in.graphs.size(); ++gi) {
      for (std::size_t pi = 0; pi < points.size(); ++pi) {
        LeafCase leaf;
        leaf.graph = &in.graphs[gi];
        leaf.options = defaults.qaoa;
        leaf.options.layers = points[pi].layers;
        leaf.options.rhobeg = points[pi].rhobeg;
        leaf.options.seed = solve_seed(config.seed, gi, pi);
        leaves_cases.push_back(std::move(leaf));
      }
    }
    qaoa_breakdown(leaves_cases, base.grid_cuts, v, out);
    finish_trace(trace::spans(), v, config.trace_path, out);
    return out;
  }

  const int passes = std::max(
      1, static_cast<int>(std::floor(config.seconds / kNominalPassSeconds)));
  std::vector<double> walls;
  Pass first;
  for (int i = 0; i < passes; ++i) {
    Pass pass = run_pass(in, config.seed, false, out);
    walls.push_back(pass.wall_s);
    if (i == 0) {
      first = std::move(pass);
    } else {
      out.check(pass.grid_cuts == first.grid_cuts,
                "leaf_grid: cuts not bit-identical across passes");
      e2e.latencies_s.insert(e2e.latencies_s.end(), pass.latencies_s.begin(),
                             pass.latencies_s.end());
    }
  }
  e2e.wall_s = median(walls);
  e2e.cut_value = first.cut_sum;
  e2e.approx_ratio =
      first.ratio_sum / static_cast<double>(first.grid_cuts.size());
  e2e.latencies_s.insert(e2e.latencies_s.end(), first.latencies_s.begin(),
                         first.latencies_s.end());
  e2e.overshoots_s = first.overshoots_s;
  e2e.slo_attained_frac = static_cast<double>(first.within_limit) /
                          static_cast<double>(first.operations);
  emit_end_to_end(e2e, out);
  return out;
}

}  // namespace perfbench
