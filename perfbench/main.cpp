// The repository benchmark's binary.
//
//   perfbench --workload <qaoa2_large|leaf_grid|service_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Prints a readable summary, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 1 when an output check failed, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

int worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 4U));
}

}  // namespace perfbench

namespace {

void print_json(const perfbench::RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<qaoa2_large|leaf_grid|service_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file.json>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::trace::enable(config.trace);
  perfbench::RunResult result;
  try {
    if (workload == "qaoa2_large") {
      result = perfbench::run_qaoa2_large(config);
    } else if (workload == "leaf_grid") {
      result = perfbench::run_leaf_grid(config);
    } else if (workload == "service_mixed") {
      result = perfbench::run_service_mixed(config);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  std::fflush(stdout);
  print_json(result);
  return result.correct() ? 0 : 1;
}
