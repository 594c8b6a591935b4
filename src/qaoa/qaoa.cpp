#include "qaoa/qaoa.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "optim/cobyla.hpp"
#include "optim/nelder_mead.hpp"
#include "qaoa/cost_table.hpp"
#include "qsim/measure.hpp"

namespace qq::qaoa {

int paper_iteration_schedule(int layers) {
  return std::clamp(30 + 14 * (layers - 3), 30, 100);
}

std::vector<double> restart_initial_parameters(const QaoaOptions& options,
                                               int restart) {
  if (restart < 0) {
    throw std::invalid_argument(
        "restart_initial_parameters: restart must be >= 0");
  }
  const int p = options.layers;
  if (restart == 0) {
    // Restart 0 is the single-run start, so restarts=1 reproduces the
    // pre-restart optimizer trajectory bit for bit.
    if (!options.initial_parameters.empty()) {
      if (options.initial_parameters.size() !=
          static_cast<std::size_t>(2 * p)) {
        throw std::invalid_argument(
            "QaoaOptions::initial_parameters must have size 2 * layers");
      }
      return options.initial_parameters;
    }
    if (options.init == InitKind::kLinearRamp) {
      circuit::QaoaAngles angles;
      angles.gammas.resize(static_cast<std::size_t>(p));
      angles.betas.resize(static_cast<std::size_t>(p));
      // Adiabatic-style ramp: the cost angle grows with the layer index
      // while the mixer angle decays — the standard structure-aware start.
      for (int l = 0; l < p; ++l) {
        const double t =
            (static_cast<double>(l) + 0.5) / static_cast<double>(p);
        angles.gammas[static_cast<std::size_t>(l)] = 0.7 * t;
        angles.betas[static_cast<std::size_t>(l)] = 0.7 * (1.0 - t);
      }
      return circuit::pack_angles(angles);
    }
  }
  // Restart r >= 1 (and restart 0 of kRandom, whose salt term vanishes):
  // small random angles from a (seed, restart)-keyed stream, so every
  // restart is individually replayable.
  util::Rng rng((options.seed +
                 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(restart)) ^
                0xa5a5a5a5ULL);
  circuit::QaoaAngles angles;
  angles.gammas.resize(static_cast<std::size_t>(p));
  angles.betas.resize(static_cast<std::size_t>(p));
  for (int l = 0; l < p; ++l) {
    angles.gammas[static_cast<std::size_t>(l)] = util::uniform(rng, 0.0, 0.6);
    angles.betas[static_cast<std::size_t>(l)] = util::uniform(rng, 0.0, 0.6);
  }
  return circuit::pack_angles(angles);
}

QaoaSolver::QaoaSolver(const graph::Graph& g)
    : graph_(&g), cut_table_(build_cut_table(g)) {
  exact_optimum_ =
      cut_table_.empty()
          ? 0.0
          : *std::max_element(cut_table_.begin(), cut_table_.end());
}

sim::StateVector QaoaSolver::state(const circuit::QaoaAngles& angles) const {
  sim::StateVector sv(graph_->num_nodes());
  prepare_state(angles, sv);
  return sv;
}

void QaoaSolver::prepare_state(const circuit::QaoaAngles& angles,
                               sim::StateVector& sv) const {
  if (angles.gammas.size() != angles.betas.size()) {
    throw std::invalid_argument("QaoaSolver::state: layer mismatch");
  }
  const int n = graph_->num_nodes();
  if (sv.num_qubits() != n) sv = sim::StateVector(n);
  sv.reset_to_plus();
  for (std::size_t layer = 0; layer < angles.layers(); ++layer) {
    // Cost layer e^{-i gamma H_C}: one diagonal sweep over the cut table.
    sv.apply_diagonal_phase(cut_table_, angles.gammas[layer]);
    // Mixer e^{-i beta H_M} = Prod_q RX_q(2 beta), fused into one
    // cache-blocked pass instead of n separate sweeps.
    sv.apply_rx_layer(2.0 * angles.betas[layer]);
  }
}

double QaoaSolver::expectation(const circuit::QaoaAngles& angles) const {
  EvalWorkspace workspace(graph_->num_nodes());
  return expectation(angles, workspace);
}

double QaoaSolver::expectation(const circuit::QaoaAngles& angles,
                               EvalWorkspace& workspace) const {
  prepare_state(angles, workspace.sv);
  return sim::expectation_diagonal(workspace.sv, cut_table_);
}

double QaoaSolver::sampled_expectation(const circuit::QaoaAngles& angles,
                                       int shots, util::Rng& rng) const {
  EvalWorkspace workspace(graph_->num_nodes());
  return sampled_expectation(angles, shots, rng, workspace);
}

double QaoaSolver::sampled_expectation(const circuit::QaoaAngles& angles,
                                       int shots, util::Rng& rng,
                                       EvalWorkspace& workspace) const {
  if (shots < 1) {
    throw std::invalid_argument("sampled_expectation: shots must be >= 1");
  }
  prepare_state(angles, workspace.sv);
  sim::sample_counts_into(workspace.sv, shots, rng, workspace.cdf,
                          workspace.samples);
  double sum = 0.0;
  for (const sim::BasisState s : workspace.samples) sum += cut_table_[s];
  return sum / static_cast<double>(shots);
}

QaoaResult QaoaSolver::optimize(const QaoaOptions& options) const {
  if (options.layers < 1) {
    throw std::invalid_argument("QaoaSolver::optimize: layers must be >= 1");
  }
  if (options.top_k < 1) {
    throw std::invalid_argument("QaoaSolver::optimize: top_k must be >= 1");
  }
  if (options.restarts < 1) {
    throw std::invalid_argument("QaoaSolver::optimize: restarts must be >= 1");
  }
  const int budget = options.max_iterations > 0
                         ? options.max_iterations
                         : paper_iteration_schedule(options.layers);
  // optim is dependency-free, so the request context enters as a plain
  // stop predicate; null context keeps the hook empty (bit-for-bit
  // identical optimization to the pre-context code).
  std::function<bool()> should_stop;
  if (options.context != nullptr) {
    const util::RequestContext* ctx = options.context;
    should_stop = [ctx] { return ctx->stopped(); };
  }

  // One workspace serves every objective evaluation of every restart AND
  // the final extraction: the 2^n state vector (and sampling scratch) is
  // allocated once per optimize() instead of once per COBYLA iteration.
  EvalWorkspace workspace(graph_->num_nodes());
  QaoaResult result;
  result.layers = options.layers;
  double best_value = 0.0;
  util::Rng best_shot_rng;
  for (int r = 0; r < options.restarts; ++r) {
    // A stopped request keeps the best-so-far and starts no new restart.
    if (r > 0 && should_stop && should_stop()) break;
    // Every restart draws from a fresh shot stream, so restart r is exactly
    // a restarts=1 run from restart_initial_parameters(options, r).
    util::Rng shot_rng(options.seed ^ 0x7357b1e55ed5eedULL);
    // Objective to MINIMIZE: -F_p (exact or shot-estimated).
    const auto objective = [this, &options, &shot_rng,
                            &workspace](const std::vector<double>& params) {
      const circuit::QaoaAngles angles = circuit::unpack_angles(params);
      return options.shot_based_objective
                 ? -sampled_expectation(angles, options.shots, shot_rng,
                                        workspace)
                 : -expectation(angles, workspace);
    };
    const std::vector<double> x0 = restart_initial_parameters(options, r);
    optim::Result opt;
    if (options.optimizer == OptimizerKind::kCobyla) {
      optim::CobylaOptions copts;
      copts.rhobeg = options.rhobeg;
      copts.rhoend = 1e-4;
      copts.maxfun = budget;
      copts.should_stop = should_stop;
      opt = optim::cobyla_minimize(objective, x0, copts);
    } else {
      optim::NelderMeadOptions nopts;
      nopts.step = options.rhobeg;
      nopts.maxfun = budget;
      nopts.should_stop = should_stop;
      opt = optim::nelder_mead_minimize(objective, x0, nopts);
    }
    result.evaluations += opt.evaluations;

    // Rank restarts by exact F_p at their final angles. For the exact
    // objective that is -fx already; a shot-estimated fx is noisy, so it
    // costs one exact evaluation, paid only when there is a choice to make.
    double value = -opt.fx;
    if (options.shot_based_objective && options.restarts > 1) {
      value = expectation(circuit::unpack_angles(opt.x), workspace);
    }
    // Strict > keeps the lowest restart index on ties.
    if (r == 0 || value > best_value) {
      best_value = value;
      result.parameters = std::move(opt.x);
      best_shot_rng = shot_rng;
    }
  }
  // Only the winner is extracted, continuing its own shot stream.
  extract_result(options, workspace, best_shot_rng, result);
  return result;
}

void QaoaSolver::extract_result(const QaoaOptions& options,
                                EvalWorkspace& workspace, util::Rng& shot_rng,
                                QaoaResult& result) const {
  const circuit::QaoaAngles best_angles =
      circuit::unpack_angles(result.parameters);
  prepare_state(best_angles, workspace.sv);
  const sim::StateVector& sv = workspace.sv;
  result.expectation = sim::expectation_diagonal(sv, cut_table_);

  // Solution extraction. top_k == 1 is the paper's highest-amplitude rule;
  // larger k scans the k most probable strings for the best cut (§5).
  const auto top = sim::top_k_states(sv, options.top_k);
  sim::BasisState chosen = top.front().first;
  double chosen_value = cut_table_[chosen];
  for (const auto& [state_idx, prob] : top) {
    (void)prob;
    if (cut_table_[state_idx] > chosen_value) {
      chosen = state_idx;
      chosen_value = cut_table_[state_idx];
    }
  }
  result.cut.assignment =
      maxcut::assignment_from_bits(chosen, graph_->num_nodes());
  result.cut.value = chosen_value;

  if (options.shots > 0) {
    sim::sample_counts_into(sv, options.shots, shot_rng, workspace.cdf,
                            workspace.samples);
    const auto& samples = workspace.samples;
    // Seed from the first sample, NOT 0.0: graphs whose every cut value is
    // negative (signed merge graphs, negative-weight edges) must report the
    // true best sample rather than a phantom 0.
    double best_sampled = cut_table_[samples.front()];
    for (const sim::BasisState s : samples) {
      best_sampled = std::max(best_sampled, cut_table_[s]);
    }
    result.best_sampled_value = best_sampled;
  }
}

QaoaResult solve_qaoa(const graph::Graph& g, const QaoaOptions& options) {
  return QaoaSolver(g).optimize(options);
}

}  // namespace qq::qaoa
