#include "metrics.hpp"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  tail.value = *std::max_element(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (const double q : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (n * (1.0 - q / 100.0) >= 10.0) {
      tail.value = percentile(values, q);
      tail.percentile = q;
      break;
    }
  }
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_free_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
