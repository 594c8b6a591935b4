#pragma once
// Level-by-level replay of a QAOA^2 solve through the library's public
// calls, one span per call:
//
//   connected_components -> induced -> [partition_max_size -> induced_batch
//   -> leaf Solver::solve -> build_merge_graph]* -> fitting solve ->
//   apply_flips
//
// Leaves solve one after another. With the same options and solvers as a
// pipeline solve the replay reproduces its cut bit for bit, which the
// workloads check.

#include <cstdint>
#include <deque>
#include <vector>

#include "maxcut/cut.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/graph.hpp"
#include "solver/solver.hpp"
#include "workloads.hpp"

namespace perfbench {

class Replay {
 public:
  /// `sub` solves level-0 parts, `deeper` deeper parts, `merge` the final
  /// coarse graph; every other field comes from `opts`. All four must
  /// outlive the replay.
  Replay(const qq::qaoa2::Qaoa2Options& opts, const qq::solver::Solver& sub,
         const qq::solver::Solver& deeper, const qq::solver::Solver& merge);

  qq::maxcut::Assignment solve(const qq::graph::Graph& g);

  int levels() const noexcept { return levels_; }
  int subgraphs() const noexcept { return subgraphs_; }
  /// Level-0 quantum leaves with the QaoaOptions their solve used, and the
  /// cut each solve reported: the input of the QAOA breakdown.
  const std::vector<LeafCase>& leaves() const noexcept { return leaves_; }
  const std::vector<double>& leaf_cuts() const noexcept { return leaf_cuts_; }

 private:
  qq::maxcut::Assignment solve_component(qq::graph::Graph g,
                                         std::uint64_t base);

  const qq::qaoa2::Qaoa2Options& opts_;
  const qq::solver::Solver& sub_;
  const qq::solver::Solver& deeper_;
  const qq::solver::Solver& merge_;
  int levels_ = 0;
  int subgraphs_ = 0;
  std::vector<LeafCase> leaves_;
  std::vector<double> leaf_cuts_;
  std::deque<qq::graph::Graph> leaf_graphs_;  ///< stable addresses
};

}  // namespace perfbench
