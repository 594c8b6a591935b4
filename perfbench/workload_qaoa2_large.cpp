// qaoa2_large: solve_qaoa2 on ER(2000, 0.1) with the Fig. 4 settings
// (12-qubit leaves, `qaoa` sub-solver at p=2 and 40 iterations, `gw`
// deeper levels and merge), cache off. A run solves the graph once per
// nominal 10 s of --seconds, less one, then once more under a 0.5 s
// deadline: the same n=2000 request whose deadline the ROADMAP saw
// overshot by 22x.
//
// The traced run solves once untraced (the overhead base), once through
// the streaming pipeline on an engine the benchmark owns with every leaf
// spec wrapped in the timing solver, and then replays the decomposition
// level by level through the public calls, one span per call.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>

#include "layers.hpp"
#include "replay.hpp"
#include "maxcut/cut.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "solver/registry.hpp"
#include "timed_solver.hpp"
#include "trace.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qq::graph::Graph;
using qq::maxcut::Assignment;

constexpr qq::graph::NodeId kNodes = 2000;
constexpr double kEdgeProb = 0.1;
constexpr double kDeadlineSeconds = 0.5;
/// Nominal length of one solve; sets how many solves fit in --seconds.
constexpr double kNominalSolveSeconds = 10.0;
/// The ROADMAP's measured n=2000 wall time: the limit a solve must meet to
/// count toward slo_attained_frac.
constexpr double kSolveLimitSeconds = 14.2;

qq::qaoa2::Qaoa2Options fig4_options(std::uint64_t seed,
                                     qq::util::ThreadPool& pool) {
  qq::qaoa2::Qaoa2Options opts;
  opts.max_qubits = 12;
  opts.sub_solver_spec = "qaoa";
  opts.deeper_solver_spec = "gw";
  opts.merge_solver_spec = "gw";
  opts.qaoa.layers = 2;
  opts.qaoa.max_iterations = 40;
  opts.seed = seed;
  opts.engine.quantum_slots = worker_count();
  opts.engine.classical_slots = worker_count();
  opts.engine.pool = &pool;
  return opts;
}

/// The traced-run body: per-layer metrics of one pipeline solve.
void traced_run(const Graph& g, qq::qaoa2::Qaoa2Options opts,
                const Assignment& reference, double untraced_wall,
                const std::string& trace_path, RunResult& out) {
  register_timed_solver();
  LayerValues v;

  // 1. The real pipeline with timed leaves, on an engine we own so its
  //    EngineStats are readable.
  opts.sub_solver_spec = "timed:qaoa";
  opts.deeper_solver_spec = "timed:gw";
  opts.merge_solver_spec = "timed:gw";
  const qq::qaoa2::Qaoa2Driver pipeline(opts);
  reset_leaf_times();
  trace::clear();
  trace::begin_request();
  qq::qaoa2::Qaoa2Result result;
  std::exception_ptr error;
  double wall = 0.0;
  qq::sched::EngineStats estats;
  {
    qq::sched::WorkflowEngine engine(opts.engine);
    trace::Span span("qaoa2", "solve_async");
    const double start = now_seconds();
    // The done callback may still be running when drain() returns.
    std::promise<void> settled;
    auto handle = pipeline.solve_async(
        engine, g, {}, [&](qq::qaoa2::Qaoa2Result r, std::exception_ptr e) {
          result = std::move(r);
          error = e;
          settled.set_value();
        });
    engine.drain();
    settled.get_future().wait();
    wall = now_seconds() - start;
    estats = engine.stats();
  }
  out.check(error == nullptr, "qaoa2_large: traced pipeline solve failed");
  out.check(result.cut.assignment == reference,
            "qaoa2_large: timed-leaf pipeline cut differs from the plain "
            "solve_qaoa2 cut");
  const LeafTimes leaves = leaf_times();
  v["solver.leaf_calls"] = static_cast<double>(leaves.calls);
  v["solver.leaf_busy_s"] = leaves.busy_s;
  v["solver.quantum_busy_s"] = leaves.quantum_busy_s;
  v["solver.classical_busy_s"] = leaves.classical_busy_s;
  v["solver.leaf_p50_s"] = median(leaves.latencies_s);
  v["sdp.gw_calls"] = static_cast<double>(leaves.gw_calls);
  v["sdp.gw_s"] = leaves.gw_s;
  v["qaoa2.levels"] = result.levels;
  v["qaoa2.subgraphs"] = result.subgraphs_total;
  v["qaoa2.engine_tasks"] = result.engine_tasks;
  v["sched.queue_wait_s"] = estats.queue_wait_seconds;
  v["sched.busy_quantum_s"] = estats.busy_quantum_seconds;
  v["sched.busy_classical_s"] = estats.busy_classical_seconds;
  v["sched.tasks"] = static_cast<double>(estats.completed);
  v["trace.overhead_frac"] = (wall - untraced_wall) / untraced_wall;

  // 2. Level-by-level replay through the public calls.
  const qq::solver::SolverDefaults defaults = pipeline.solver_defaults();
  const auto& registry = qq::solver::SolverRegistry::global();
  const auto sub = registry.make(opts.sub_solver_spec, defaults);
  const auto deeper = registry.make(opts.deeper_solver_spec, defaults);
  const auto merge = registry.make(opts.merge_solver_spec, defaults);
  trace::begin_request();
  Replay replay(opts, *sub, *deeper, *merge);
  Assignment replayed;
  {
    trace::Span span("qaoa2", "replay");
    replayed = replay.solve(g);
  }
  out.check(replayed == reference,
            "qaoa2_large: level-by-level replay cut differs from solve_qaoa2");
  out.check(replay.levels() == result.levels &&
                replay.subgraphs() == result.subgraphs_total,
            "qaoa2_large: replay level/subgraph counts differ from the "
            "pipeline's Qaoa2Result");

  // 3. QAOA/qsim breakdown of every level-0 leaf.
  trace::begin_request();
  qaoa_breakdown(replay.leaves(), replay.leaf_cuts(), v, out);

  const std::vector<trace::SpanRecord> records = trace::spans();
  add_replay_layers(records, wall, v);
  finish_trace(records, v, trace_path, out);
}

}  // namespace

RunResult run_qaoa2_large(const RunConfig& config) {
  RunResult out;
  qq::util::ThreadPool pool(static_cast<std::size_t>(worker_count()));
  const qq::qaoa2::Qaoa2Options opts = fig4_options(config.seed, pool);
  EndToEnd e2e;

  // Set-up: build the input graph and resolve Qaoa2Driver's solver specs,
  // several times; the last graph is the one solved.
  std::vector<double> setup;
  Graph g;
  for (int i = 0; i < 5; ++i) {
    const double start = now_seconds();
    qq::util::Rng rng(config.seed);
    g = qq::graph::erdos_renyi(kNodes, kEdgeProb, rng);
    const qq::qaoa2::Qaoa2Driver pipeline(opts);
    setup.push_back(now_seconds() - start);
  }
  e2e.setup_s = median(setup);
  release_free_heap();

  // The deadline probe below costs about one solve, so the plain solves
  // get the rest of the run.
  const int plain_solves =
      config.trace ? 1
                   : std::max(1, static_cast<int>(std::lround(
                                     config.seconds / kNominalSolveSeconds)) -
                                     1);
  Assignment reference;
  int within_limit = 0;
  for (int i = 0; i < plain_solves; ++i) {
    const double start = now_seconds();
    const qq::qaoa2::Qaoa2Result r = qq::qaoa2::solve_qaoa2(g, opts);
    const double took = now_seconds() - start;
    release_free_heap();
    e2e.latencies_s.push_back(took);
    within_limit += took <= kSolveLimitSeconds ? 1 : 0;
    const double recomputed = qq::maxcut::cut_value(g, r.cut.assignment);
    out.check(recomputed == r.cut.value,
              "qaoa2_large: reported cut differs from maxcut::cut_value");
    // Printed, not reported: these Qaoa2Result fields do not add up to
    // wall time (see NOTES.md), so no metric is built on them.
    std::printf("solve %d: wall %.3f s, Qaoa2Result solve_seconds %.3f s, "
                "coordination_seconds %.3f s, queue_wait_seconds %.3f s\n",
                i, took, r.solve_seconds, r.coordination_seconds,
                r.queue_wait_seconds);
    if (i == 0) {
      reference = r.cut.assignment;
      e2e.cut_value = recomputed;
    } else {
      out.check(r.cut.assignment == reference,
                "qaoa2_large: cut not bit-identical across repeated solves");
    }
  }
  e2e.wall_s = median(e2e.latencies_s);
  e2e.approx_ratio = e2e.cut_value / g.total_weight();

  if (config.trace) {
    traced_run(g, opts, reference, e2e.wall_s, config.trace_path, out);
    return out;
  }

  // The deadline probe: the same solve under a 0.5 s deadline.
  qq::util::RequestContext context;
  qq::qaoa2::Qaoa2Options deadline_opts = opts;
  deadline_opts.context = &context;
  bool stopped = false;
  context.set_deadline_after(kDeadlineSeconds);
  const double start = now_seconds();
  try {
    const qq::qaoa2::Qaoa2Result r = qq::qaoa2::solve_qaoa2(g, deadline_opts);
    out.check(qq::maxcut::cut_value(g, r.cut.assignment) == r.cut.value,
              "qaoa2_large: deadline solve cut differs from maxcut::cut_value");
  } catch (const qq::util::CancelledError&) {
    stopped = true;
    out.check(context.stop_reason() == qq::util::StopReason::kDeadline,
              "qaoa2_large: deadline solve stopped for another reason");
  }
  const double settle = now_seconds() - start;
  e2e.latencies_s.push_back(settle);
  if (stopped) {
    e2e.overshoots_s.push_back(settle - kDeadlineSeconds);
  } else {
    within_limit += settle <= kDeadlineSeconds ? 1 : 0;
  }
  e2e.slo_attained_frac = static_cast<double>(within_limit) /
                          static_cast<double>(e2e.latencies_s.size());
  emit_end_to_end(e2e, out);
  return out;
}

}  // namespace perfbench
