#include "timed_solver.hpp"

#include <mutex>
#include <string>

#include "metrics.hpp"
#include "solver/registry.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

std::mutex g_mutex;
LeafTimes g_times;  // guarded by g_mutex

class TimedSolver final : public qq::solver::Solver {
 public:
  explicit TimedSolver(qq::solver::SolverPtr inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  qq::sched::ResourceKind resource_kind() const noexcept override {
    return inner_->resource_kind();
  }
  std::pair<int, int> solve_counts() const override {
    return inner_->solve_counts();
  }
  int warm_start_dimension() const noexcept override {
    return inner_->warm_start_dimension();
  }

 protected:
  qq::solver::SolveReport do_solve(
      const qq::solver::SolveRequest& request) const override {
    trace::Span span("solver", "leaf_solve");
    const double start = now_seconds();
    qq::solver::SolveReport report = inner_->solve(request);
    const double took = now_seconds() - start;
    span.arg("nodes", request.graph->num_nodes());
    span.arg("quantum", report.quantum_solves);
    const std::lock_guard<std::mutex> lock(g_mutex);
    ++g_times.calls;
    g_times.busy_s += took;
    (resource_kind() == qq::sched::ResourceKind::kQuantum
         ? g_times.quantum_busy_s
         : g_times.classical_busy_s) += took;
    if (inner_->name() == "gw") {
      ++g_times.gw_calls;
      g_times.gw_s += took;
    }
    g_times.latencies_s.push_back(took);
    return report;
  }

 private:
  qq::solver::SolverPtr inner_;
};

}  // namespace

void register_timed_solver() {
  static std::once_flag once;
  std::call_once(once, [] {
    qq::solver::SolverRegistry::global().register_solver(
        "timed", "pass-through wrapper timing every call of its inner spec",
        {},
        [](const qq::solver::SolverRegistry& registry, std::string_view params,
           const qq::solver::SolverDefaults& defaults) -> qq::solver::SolverPtr {
          return std::make_unique<TimedSolver>(registry.make(params, defaults));
        });
  });
}

LeafTimes leaf_times() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_times;
}

void reset_leaf_times() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_times = LeafTimes{};
}

}  // namespace perfbench
