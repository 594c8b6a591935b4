#pragma once
// The metric catalogs (names and units, as BENCHMARK.json lists them) and
// the helpers that turn a workload's measurements into the printed metric
// set. Every workload prints every end-to-end metric (untraced run) or
// every per-layer metric (traced run); a layer a workload does not reach
// reads 0.

#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer values by metric name; names must be in the catalog.
using LayerValues = std::map<std::string, double>;

struct EndToEnd {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cut_value = 0.0;
  double approx_ratio = 0.0;
  std::vector<double> latencies_s;  ///< one per operation
  double slo_attained_frac = 0.0;
  std::vector<double> overshoots_s;  ///< one per deadline-stopped operation
};

/// Adds every end-to-end metric to `out` (ok_frac from its check counts,
/// peak_rss_mb from this process) and prints a labelled summary.
void emit_end_to_end(const EndToEnd& e2e, RunResult& out);

/// qgraph.* and qaoa2.merge_s / qaoa2.unaccounted_s from the replay spans;
/// `pipeline_wall_s` is the base of qgraph.partition_share and
/// qaoa2.unaccounted_s.
void add_replay_layers(const std::vector<trace::SpanRecord>& records,
                       double pipeline_wall_s, LayerValues& values);

/// Writes the Chrome trace, prints the self-time table, and adds every
/// per-layer metric to `out` (0 where `values` has none).
void finish_trace(const std::vector<trace::SpanRecord>& records,
                  const LayerValues& values, const std::string& trace_path,
                  RunResult& out);

}  // namespace perfbench
