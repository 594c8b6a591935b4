#pragma once
// Result record of one benchmark run and the statistics helpers every
// workload shares. A run fills one RunResult; main() prints it as the
// final JSON line.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Command-line settings of one run.
struct RunConfig {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path;
};

struct RunResult {
  /// Operations attempted / failed (a failed output check is a failed
  /// operation).
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record one checked operation: counts it as attempted, and when `ok`
  /// is false as failed, printing `what` on stderr.
  void check(bool ok, const std::string& what);
  bool correct() const noexcept { return failed == 0; }
};

double median(std::vector<double> values);

/// Linear-interpolated percentile, q in [0, 100].
double percentile(std::vector<double> values, double q);

/// The reported tail of a latency sample: the highest of p50/p90/p95/p99/
/// p99.9 that still has at least ten samples above it (the maximum when
/// fewer than eleven samples exist).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;  ///< 100 = the maximum
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Returns freed heap memory to the OS. Called between operations so that
/// peak_rss_mb measures one operation's footprint, not how much memory the
/// per-thread malloc arenas of whichever pool threads ran earlier
/// operations happened to keep.
void release_free_heap();

/// Seconds on the steady clock since an arbitrary origin.
double now_seconds();

}  // namespace perfbench
