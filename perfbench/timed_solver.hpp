#pragma once
// Pass-through timing solver. register_timed_solver() adds "timed" to the
// global SolverRegistry; the spec "timed:<inner spec>" builds the inner
// solver and forwards every call to it unchanged, recording the call's
// wall time. Wrapping a pipeline's leaf spec in it times the leaves inside
// the real pipeline while leaving every cut bit-identical.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Idempotent.
void register_timed_solver();

struct LeafTimes {
  std::size_t calls = 0;
  double busy_s = 0.0;
  double quantum_busy_s = 0.0;
  double classical_busy_s = 0.0;
  /// Calls whose inner solver is "gw" (Goemans-Williamson SDP).
  std::size_t gw_calls = 0;
  double gw_s = 0.0;
  std::vector<double> latencies_s;
};

/// Snapshot / reset of the process-wide leaf timings.
LeafTimes leaf_times();
void reset_leaf_times();

}  // namespace perfbench
