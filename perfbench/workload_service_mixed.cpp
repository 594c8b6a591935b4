// service_mixed: open-loop traffic from one generator thread into one
// SolveService at a fixed 20 requests/s, below saturation on 4 cores.
// Every 3 seconds: 40 small direct QAOA solves (12-14 qubits), 18
// decomposed QAOA^2 requests on ER(300, 0.1), and 2 requests on
// ER(1000, 0.1) with a 0.1 s deadline, sent 1.5 s apart. About a quarter
// of the small and mid requests repeat an earlier (graph, spec, seed)
// exactly, so the service's cache answers them; the rest fill it.
//
// The deadline requests are 1.5 s apart because their partition, which
// never polls the deadline, holds a classical slot for 0.8-1.1 s: sent
// every second, two of them overlapped whenever the host ran slow, both
// classical slots were taken, and the latency tail of every other request
// followed the host's speed (p95 spread 0.25 over ten seeds).
//
// The traffic starts with kWarmupSeconds of the same pattern that no
// end-to-end metric counts: in a fresh process the first two seconds of
// requests settled up to 20x slower than later ones (a backlog behind
// the first deadline request's partition), and they made up most of the
// samples beyond the p95.
//
// Latency is the service's admission -> settle time, over the measured
// requests that completed; the deadline-cancelled ones are measured by their
// overshoot, and every request that did not complete counts as an SLO
// miss. How late the generator sent (a stall upstream of admission) is
// reported on its own as loadgen.lag_max_s; folding it into every
// latency made the p50 follow the generator thread's scheduling on a
// shared machine.
//
// The traced run drives the same traffic twice, untraced (the overhead
// base) and with every solver spec wrapped in the timing solver; then it
// replays each distinct decomposed graph through the public calls and
// runs the QAOA breakdown of each distinct small graph.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "layers.hpp"
#include "maxcut/cut.hpp"
#include "qgraph/generators.hpp"
#include "replay.hpp"
#include "service/service.hpp"
#include "solver/registry.hpp"
#include "timed_solver.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qq::graph::Graph;
using qq::service::RequestOutcome;
using qq::service::RequestStatus;

constexpr double kRate = 20.0;  // requests per second
/// Traffic sent before the measured window, in whole frames (seconds): one
/// period of deadline_slot().
constexpr int kWarmupSeconds = 3;
constexpr int kDistinctDeadlineGraphs = 4;
/// Short enough that the overshoot (the undivided n=1000 partition) is
/// most of the settle time, so it is measured rather than the deadline.
constexpr double kDeadlineSeconds = 0.1;
constexpr double kSmallLimitSeconds = 0.25;
constexpr double kMidLimitSeconds = 1.0;
constexpr int kMaxQubits = 12;

const char* const kSmallSpec = "qaoa:p=2";
const char* const kLeafSpec = "qaoa:p=2,iters=40";
const char* const kClassicalSpec = "gw";

enum class Kind { kSmall, kMid, kDeadline };

struct Planned {
  Kind kind = Kind::kSmall;
  std::size_t graph = 0;  ///< index into Inputs::graphs
  std::uint64_t seed = 0;
  /// Index of the earlier request this one repeats exactly, or -1.
  long repeat_of = -1;
  double due_s = 0.0;  ///< offset from the first (warm-up) send
};

struct Inputs {
  std::vector<Graph> graphs;
  /// QaoaSolver::exact_optimum of each small graph (0 for the others).
  std::vector<double> optimum;
  /// Warm-up requests, then the measured ones from this index on.
  std::vector<Planned> plan;
  std::size_t first_measured = 0;
};

/// One second of traffic at kRate: which kind each slot sends, and which
/// small / mid slots repeat an earlier request (a quarter of each). The
/// pattern is fixed so that runs differ only in their graphs and seeds,
/// not in how the heavy requests cluster.
constexpr int kFrame = 20;
constexpr int kMidSlots[] = {3, 6, 9, 12, 15, 18};
constexpr int kSmallRepeatSlots[] = {2, 8, 14};

/// Whether slot `slot` of frame `frame` repeats an earlier request: a
/// quarter of the 13-14 small and of the 6 mid slots, over every 4 frames.
bool repeats(int slot, std::size_t frame) {
  if (slot == 9) return true;
  if (slot == 18) return frame % 2 == 1;
  if (slot == 17) return frame % 4 == 0;
  return std::find(std::begin(kSmallRepeatSlots), std::end(kSmallRepeatSlots),
                   slot) != std::end(kSmallRepeatSlots);
}

/// The slot of frame `frame` that sends a deadline request, or -1: slot 0
/// and slot 10 of two frames in three, so they go out 1.5 s apart.
int deadline_slot(std::size_t frame) {
  switch (frame % 3) {
    case 0: return 0;
    case 1: return kFrame / 2;
    default: return -1;
  }
}

Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  qq::util::Rng rng(seed);
  in.first_measured = static_cast<std::size_t>(kWarmupSeconds * kFrame);
  const auto total = in.first_measured + static_cast<std::size_t>(
      std::max(1L, std::lround(kRate * seconds)));
  std::vector<Kind> kinds(total, Kind::kSmall);
  std::vector<bool> repeat(total, false);
  for (std::size_t i = 0; i < total; ++i) {
    const int slot = static_cast<int>(i % kFrame);
    if (slot == deadline_slot(i / kFrame)) {
      kinds[i] = Kind::kDeadline;
    } else if (std::find(std::begin(kMidSlots), std::end(kMidSlots), slot) !=
               std::end(kMidSlots)) {
      kinds[i] = Kind::kMid;
    }
    repeat[i] = kinds[i] != Kind::kDeadline && repeats(slot, i / kFrame);
  }

  std::vector<std::size_t> deadline_graphs;
  for (int i = 0; i < kDistinctDeadlineGraphs; ++i) {
    deadline_graphs.push_back(in.graphs.size());
    in.graphs.push_back(qq::graph::erdos_renyi(1000, 0.1, rng));
    in.optimum.push_back(0.0);
  }
  std::map<Kind, std::vector<std::size_t>> originals;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    Planned p;
    p.kind = kinds[i];
    p.due_s = static_cast<double>(i) / kRate;
    p.seed = rng();
    std::vector<std::size_t>& earlier = originals[p.kind];
    if (repeat[i]) {
      const std::size_t of = earlier[rng() % earlier.size()];
      p.repeat_of = static_cast<long>(of);
      p.graph = in.plan[of].graph;
      p.seed = in.plan[of].seed;
    } else if (p.kind == Kind::kDeadline) {
      p.graph = deadline_graphs[earlier.size() % deadline_graphs.size()];
      earlier.push_back(i);
    } else {
      p.graph = in.graphs.size();
      if (p.kind == Kind::kSmall) {
        // Sizes and weightings cycle, so every run has the same mix.
        const std::size_t k = earlier.size();
        in.graphs.push_back(qq::graph::erdos_renyi(
            static_cast<qq::graph::NodeId>(12 + k % 3), 0.3, rng,
            k % 2 == 0 ? qq::graph::WeightMode::kUnit
                       : qq::graph::WeightMode::kUniform01));
        in.optimum.push_back(
            qq::qaoa::QaoaSolver(in.graphs.back()).exact_optimum());
      } else {
        in.graphs.push_back(qq::graph::erdos_renyi(300, 0.1, rng));
        in.optimum.push_back(0.0);
      }
      earlier.push_back(i);
    }
    in.plan.push_back(p);
  }
  return in;
}

qq::service::ServiceOptions service_options(qq::util::ThreadPool& pool) {
  qq::service::ServiceOptions options;
  // Slots sum to the pool width, so a task handed a slot gets a thread and
  // the fair queue, not the pool's FIFO, decides who waits.
  options.engine.quantum_slots = std::max(1, worker_count() / 2);
  options.engine.classical_slots = std::max(1, worker_count() / 2);
  options.engine.pool = &pool;
  options.classes = {{"interactive", 3.0, 256}, {"batch", 1.0, 256}};
  options.max_in_flight_requests = 512;
  return options;
}

qq::service::ServiceRequest make_request(const Inputs& in, const Planned& p,
                                         const std::string& wrap) {
  qq::service::ServiceRequest req;
  req.graph = in.graphs[p.graph];
  req.seed = p.seed;
  if (p.kind == Kind::kSmall) {
    req.solver_spec = wrap + kSmallSpec;
    req.workload_class = "interactive";
    return req;
  }
  req.solver_spec = wrap + kLeafSpec;
  req.deeper_spec = wrap + kClassicalSpec;
  req.merge_spec = wrap + kClassicalSpec;
  req.max_qubits = kMaxQubits;
  req.workload_class = "batch";
  if (p.kind == Kind::kDeadline) req.deadline_seconds = kDeadlineSeconds;
  return req;
}

double limit_of(Kind kind) {
  switch (kind) {
    case Kind::kSmall: return kSmallLimitSeconds;
    case Kind::kMid: return kMidLimitSeconds;
    case Kind::kDeadline: return kDeadlineSeconds;
  }
  return 0.0;
}

/// One drive of the traffic through a fresh service.
struct Drive {
  std::vector<RequestOutcome> outcomes;
  std::vector<double> latencies_s;  ///< admission -> settle
  double wall_s = 0.0;  ///< first measured send -> last settle
  double lag_max_s = 0.0;
  qq::service::ServiceStats stats;
  /// Cache-off re-solves of every repeated original, by plan index.
  std::map<std::size_t, RequestOutcome> cache_off;
};

Drive drive(const Inputs& in, const std::string& wrap) {
  qq::util::ThreadPool pool(static_cast<std::size_t>(worker_count()));
  qq::service::SolveService service(service_options(pool));
  Drive d;
  std::vector<qq::service::RequestTicket> tickets;
  std::vector<double> sent_at;
  const double start = now_seconds();
  for (const Planned& p : in.plan) {
    const double due = start + p.due_s;
    while (now_seconds() < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(due - now_seconds(), 0.002)));
    }
    const double sent = now_seconds();
    d.lag_max_s = std::max(d.lag_max_s, sent - due);
    sent_at.push_back(sent);
    tickets.push_back(service.submit(make_request(in, p, wrap)));
  }
  service.drain();
  double last_settle = start;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    d.outcomes.push_back(tickets[i].outcome());
    const double latency = d.outcomes.back().latency_seconds;
    last_settle = std::max(last_settle, sent_at[i] + latency);
    d.latencies_s.push_back(latency);
  }
  d.wall_s = last_settle - sent_at[in.first_measured];
  d.stats = service.stats();

  // The cache reference: each repeated original solved again, cache off.
  for (const Planned& p : in.plan) {
    const auto of = static_cast<std::size_t>(p.repeat_of);
    if (p.repeat_of < 0 || d.cache_off.count(of) != 0) continue;
    qq::service::ServiceRequest req = make_request(in, in.plan[of], wrap);
    req.cache_mode = qq::cache::CacheMode::kOff;
    const qq::service::RequestTicket t = service.submit(std::move(req));
    service.wait(t);
    d.cache_off.emplace(of, t.outcome());
  }
  return d;
}

/// Output checks of one drive.
void check_drive(const Inputs& in, const Drive& d, RunResult& out) {
  for (std::size_t i = 0; i < in.plan.size(); ++i) {
    const Planned& p = in.plan[i];
    const RequestOutcome& o = d.outcomes[i];
    if (p.kind == Kind::kDeadline) {
      out.check(o.status == RequestStatus::kCompleted ||
                    (o.status == RequestStatus::kCancelled &&
                     o.stop_reason == qq::util::StopReason::kDeadline),
                "service_mixed: deadline request neither completed nor "
                "cancelled by its deadline");
    } else {
      out.check(o.status == RequestStatus::kCompleted,
                std::string("service_mixed: request ended ") +
                    qq::service::request_status_name(o.status));
    }
    if (o.status != RequestStatus::kCompleted) continue;
    const Graph& g = in.graphs[p.graph];
    out.check(qq::maxcut::cut_value(g, o.cut.assignment) == o.cut.value,
              "service_mixed: reported cut differs from maxcut::cut_value");
    if (p.kind == Kind::kSmall) {
      const double opt = in.optimum[p.graph];
      out.check(o.cut.value <= opt + 1e-9 * (1.0 + opt),
                "service_mixed: cut exceeds QaoaSolver::exact_optimum()");
    }
    if (p.repeat_of >= 0) {
      const RequestOutcome& ref =
          d.cache_off.at(static_cast<std::size_t>(p.repeat_of));
      out.check(ref.status == RequestStatus::kCompleted &&
                    ref.cut.assignment == o.cut.assignment,
                "service_mixed: cached answer differs from a cache-off "
                "solve of the same (graph, spec, seed)");
    }
  }
}

void traced_run(const Inputs& in, const RunConfig& config, RunResult& out) {
  register_timed_solver();
  const Drive base = drive(in, "");
  check_drive(in, base, out);
  reset_leaf_times();
  trace::clear();
  const Drive d = drive(in, "timed:");
  check_drive(in, d, out);
  for (std::size_t i = 0; i < in.plan.size(); ++i) {
    if (base.outcomes[i].status != RequestStatus::kCompleted ||
        d.outcomes[i].status != RequestStatus::kCompleted) {
      continue;
    }
    out.check(base.outcomes[i].cut.assignment == d.outcomes[i].cut.assignment,
              "service_mixed: timed-solver cut differs from the plain one");
  }
  LayerValues v;
  const LeafTimes leaves = leaf_times();
  v["solver.leaf_calls"] = static_cast<double>(leaves.calls);
  v["solver.leaf_busy_s"] = leaves.busy_s;
  v["solver.quantum_busy_s"] = leaves.quantum_busy_s;
  v["solver.classical_busy_s"] = leaves.classical_busy_s;
  v["solver.leaf_p50_s"] = median(leaves.latencies_s);
  v["sdp.gw_calls"] = static_cast<double>(leaves.gw_calls);
  v["sdp.gw_s"] = leaves.gw_s;
  v["trace.overhead_frac"] = (d.wall_s - base.wall_s) / base.wall_s;

  const qq::service::ServiceStats& s = d.stats;
  v["sched.queue_wait_s"] = s.engine.queue_wait_seconds;
  v["sched.busy_quantum_s"] = s.engine.busy_quantum_seconds;
  v["sched.busy_classical_s"] = s.engine.busy_classical_seconds;
  v["sched.tasks"] = static_cast<double>(s.engine.completed);
  v["cache.hits"] = static_cast<double>(s.cache.hits);
  v["cache.misses"] = static_cast<double>(s.cache.misses);
  v["cache.coalesced"] = static_cast<double>(s.cache.coalesced);
  const double lookups = static_cast<double>(s.cache.hits + s.cache.misses);
  v["cache.hit_ratio"] =
      lookups > 0.0 ? static_cast<double>(s.cache.hits) / lookups : 0.0;
  std::vector<double> repeat_latencies;
  double engine_tasks = 0.0;
  double cancelled_deadline = 0.0;
  double queue_wait = 0.0;
  for (std::size_t i = 0; i < in.plan.size(); ++i) {
    if (in.plan[i].repeat_of >= 0) {
      repeat_latencies.push_back(d.latencies_s[i]);
    }
    if (in.plan[i].kind != Kind::kSmall) {
      engine_tasks += d.outcomes[i].engine_tasks;
    }
    cancelled_deadline +=
        d.outcomes[i].stop_reason == qq::util::StopReason::kDeadline ? 1 : 0;
  }
  for (const qq::service::ClassLoad& c : s.classes) {
    queue_wait += c.queue_wait_seconds;
  }
  v["cache.hit_latency_p50_s"] = median(repeat_latencies);
  v["service.admitted"] =
      static_cast<double>(s.completed + s.cancelled + s.failed);
  v["service.rejected"] = static_cast<double>(s.rejected);
  v["service.cancelled_deadline"] = cancelled_deadline;
  v["service.queue_wait_s"] = queue_wait;
  v["loadgen.lag_max_s"] = d.lag_max_s;
  v["qaoa2.engine_tasks"] = engine_tasks;

  // Replay every distinct decomposed graph, and break down every distinct
  // small solve.
  qq::util::ThreadPool pool(static_cast<std::size_t>(worker_count()));
  const auto& registry = qq::solver::SolverRegistry::global();
  std::map<std::size_t, bool> replayed;
  double levels = 0.0;
  double subgraphs = 0.0;
  std::vector<LeafCase> small_leaves;
  std::vector<double> small_cuts;
  for (std::size_t i = 0; i < in.plan.size(); ++i) {
    const Planned& p = in.plan[i];
    if (p.repeat_of >= 0 || replayed.count(p.graph) != 0) continue;
    replayed[p.graph] = true;
    if (p.kind == Kind::kSmall) {
      LeafCase leaf;
      leaf.graph = &in.graphs[p.graph];
      leaf.options.layers = 2;
      leaf.options.seed = p.seed;
      small_leaves.push_back(std::move(leaf));
      small_cuts.push_back(d.outcomes[i].cut.value);
      continue;
    }
    qq::qaoa2::Qaoa2Options opts;
    opts.max_qubits = kMaxQubits;
    opts.qaoa.layers = 2;
    opts.qaoa.max_iterations = 40;
    opts.seed = p.seed;
    opts.engine.pool = &pool;
    const auto sub = registry.make(kLeafSpec);
    const auto classical = registry.make(kClassicalSpec);
    trace::begin_request();
    Replay replay(opts, *sub, *classical, *classical);
    const qq::maxcut::Assignment a = replay.solve(in.graphs[p.graph]);
    if (d.outcomes[i].status == RequestStatus::kCompleted) {
      out.check(a == d.outcomes[i].cut.assignment,
                "service_mixed: replay cut differs from the service's");
    }
    levels = std::max(levels, static_cast<double>(replay.levels()));
    subgraphs += replay.subgraphs();
  }
  v["qaoa2.levels"] = levels;
  v["qaoa2.subgraphs"] = subgraphs;
  trace::begin_request();
  qaoa_breakdown(small_leaves, small_cuts, v, out);

  const std::vector<trace::SpanRecord> records = trace::spans();
  add_replay_layers(records, d.wall_s, v);
  // The drive's wall time is mostly arrival gaps, not pipeline phases, so
  // "wall minus phases" means nothing here.
  v.erase("qaoa2.unaccounted_s");
  finish_trace(records, v, config.trace_path, out);
}

}  // namespace

RunResult run_service_mixed(const RunConfig& config) {
  RunResult out;
  // Set-up: every request graph, the small graphs' exact optima, and a
  // service brought up and shut down, several times.
  std::vector<double> setup;
  Inputs in;
  for (int i = 0; i < 5; ++i) {
    const double start = now_seconds();
    in = make_inputs(config.seed, config.seconds);
    {
      qq::util::ThreadPool pool(static_cast<std::size_t>(worker_count()));
      qq::service::SolveService service(service_options(pool));
    }
    setup.push_back(now_seconds() - start);
  }

  if (config.trace) {
    traced_run(in, config, out);
    return out;
  }

  const Drive d = drive(in, "");
  check_drive(in, d, out);
  EndToEnd e2e;
  e2e.setup_s = median(setup);
  e2e.wall_s = d.wall_s;
  double ratio_sum = 0.0;
  int ratio_count = 0;
  int within_limit = 0;
  for (std::size_t i = in.first_measured; i < in.plan.size(); ++i) {
    const Planned& p = in.plan[i];
    const RequestOutcome& o = d.outcomes[i];
    if (o.status == RequestStatus::kCancelled &&
        o.stop_reason == qq::util::StopReason::kDeadline) {
      e2e.overshoots_s.push_back(o.latency_seconds - kDeadlineSeconds);
    }
    if (o.status != RequestStatus::kCompleted) continue;
    e2e.latencies_s.push_back(d.latencies_s[i]);
    within_limit += d.latencies_s[i] <= limit_of(p.kind) ? 1 : 0;
    e2e.cut_value += o.cut.value;
    if (p.kind == Kind::kSmall && in.optimum[p.graph] > 0.0) {
      ratio_sum += o.cut.value / in.optimum[p.graph];
      ++ratio_count;
    }
  }
  for (const auto& [kind, name] :
       {std::pair{Kind::kSmall, "small"}, std::pair{Kind::kMid, "mid"},
        std::pair{Kind::kDeadline, "deadline"}}) {
    std::vector<double> latencies;
    for (std::size_t i = in.first_measured; i < in.plan.size(); ++i) {
      if (in.plan[i].kind == kind) latencies.push_back(d.latencies_s[i]);
    }
    std::printf("%-8s requests: %3zu, admission->settle p50 %.4f s, "
                "max %.4f s\n",
                name, latencies.size(), median(latencies),
                percentile(latencies, 100.0));
  }
  e2e.approx_ratio = ratio_count > 0 ? ratio_sum / ratio_count : 0.0;
  e2e.slo_attained_frac =
      static_cast<double>(within_limit) /
      static_cast<double>(in.plan.size() - in.first_measured);
  emit_end_to_end(e2e, out);
  return out;
}

}  // namespace perfbench
