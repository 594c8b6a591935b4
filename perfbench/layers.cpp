#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json (run.py checks).
constexpr CatalogEntry kPerLayer[] = {
    {"qgraph.partition_s", "s"},
    {"qgraph.partition_calls", "count"},
    {"qgraph.induce_s", "s"},
    {"qgraph.components_s", "s"},
    {"qgraph.partition_share", "ratio"},
    {"qaoa2.merge_s", "s"},
    {"qaoa2.levels", "count"},
    {"qaoa2.subgraphs", "count"},
    {"qaoa2.engine_tasks", "count"},
    {"qaoa2.unaccounted_s", "s"},
    {"solver.leaf_calls", "count"},
    {"solver.leaf_busy_s", "s"},
    {"solver.quantum_busy_s", "s"},
    {"solver.classical_busy_s", "s"},
    {"solver.leaf_p50_s", "s"},
    {"qaoa.optimize_s", "s"},
    {"qaoa.evals", "count"},
    {"qaoa.cut_table_s", "s"},
    {"qsim.eval_s", "s"},
    {"qsim.sample_s", "s"},
    {"qsim.bytes_per_eval", "bytes"},
    {"optim.self_s", "s"},
    {"sdp.gw_calls", "count"},
    {"sdp.gw_s", "s"},
    {"sched.queue_wait_s", "s"},
    {"sched.busy_quantum_s", "s"},
    {"sched.busy_classical_s", "s"},
    {"sched.tasks", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.coalesced", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.hit_latency_p50_s", "s"},
    {"service.admitted", "count"},
    {"service.rejected", "count"},
    {"service.cancelled_deadline", "count"},
    {"service.queue_wait_s", "s"},
    {"loadgen.lag_max_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

double span_sum(const std::map<std::string, trace::LayerTotals>& calls,
                const char* call, bool count = false) {
  const auto it = calls.find(call);
  if (it == calls.end()) return 0.0;
  return count ? static_cast<double>(it->second.calls) : it->second.total_s;
}

}  // namespace

void emit_end_to_end(const EndToEnd& e2e, RunResult& out) {
  const Tail latency = tail_of(e2e.latencies_s);
  const Tail overshoot = tail_of(e2e.overshoots_s);
  const double ok_frac =
      out.attempted == 0 ? 0.0
                         : 1.0 - static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted);
  out.add("setup_s", e2e.setup_s, "s");
  out.add("wall_s", e2e.wall_s, "s");
  out.add("cut_value", e2e.cut_value, "cut");
  out.add("approx_ratio", e2e.approx_ratio, "ratio");
  out.add("latency_p50_s", median(e2e.latencies_s), "s");
  out.add("latency_tail_s", latency.value, "s");
  out.add("slo_attained_frac", e2e.slo_attained_frac, "ratio");
  out.add("overshoot_tail_s", overshoot.value, "s");
  out.add("ok_frac", ok_frac, "ratio");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  for (const Metric& m : out.metrics) {
    std::printf("  %-20s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const auto describe = [](const char* name, const Tail& t) {
    if (t.percentile < 100.0) {
      std::printf("  %s = p%g of %zu samples (>= 10 samples beyond it)\n",
                  name, t.percentile, t.samples);
    } else {
      std::printf("  %s = max of %zu samples (fewer than 11)\n", name,
                  t.samples);
    }
  };
  describe("latency_tail_s", latency);
  describe("overshoot_tail_s", overshoot);
  std::printf("  error_frac = %lld failed / %lld attempted\n",
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
}

void add_replay_layers(const std::vector<trace::SpanRecord>& records,
                       double pipeline_wall_s, LayerValues& values) {
  const auto calls = trace::call_totals(records);
  const double partition = span_sum(calls, "qgraph.partition_max_size");
  const double induce = span_sum(calls, "qgraph.induced_batch") +
                        span_sum(calls, "qgraph.induced");
  const double components = span_sum(calls, "qgraph.connected_components");
  const double merge = span_sum(calls, "qaoa2.build_merge_graph") +
                       span_sum(calls, "qaoa2.apply_flips");
  values["qgraph.partition_s"] = partition;
  values["qgraph.partition_calls"] =
      span_sum(calls, "qgraph.partition_max_size", true);
  values["qgraph.induce_s"] = induce;
  values["qgraph.components_s"] = components;
  values["qgraph.partition_share"] =
      pipeline_wall_s > 0.0 ? partition / pipeline_wall_s : 0.0;
  values["qaoa2.merge_s"] = merge;
  const auto leaf = values.find("solver.leaf_busy_s");
  values["qaoa2.unaccounted_s"] =
      pipeline_wall_s - (components + partition + induce + merge +
                         (leaf == values.end() ? 0.0 : leaf->second));
}

void finish_trace(const std::vector<trace::SpanRecord>& records,
                  const LayerValues& values, const std::string& trace_path,
                  RunResult& out) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&name](const CatalogEntry& e) { return name == e.name; });
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
  }
  if (!trace_path.empty()) {
    out.check(trace::write_chrome_json(records, trace_path),
              "could not write the trace to " + trace_path);
    std::printf("trace: %zu spans -> %s\n", records.size(),
                trace_path.c_str());
  }
  std::printf("%s", trace::self_time_table(records).c_str());
  for (const CatalogEntry& e : kPerLayer) {
    const auto it = values.find(e.name);
    out.add(e.name, it == values.end() ? 0.0 : it->second, e.unit);
    std::printf("  %-28s %16.6f %s\n", e.name, out.metrics.back().value,
                e.unit);
  }
}

}  // namespace perfbench
