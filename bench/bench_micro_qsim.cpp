// Micro-benchmarks of the state-vector simulator kernels: per-gate cost
// scaling with qubit count, the diagonal fast path, and shot sampling.

#include <benchmark/benchmark.h>

#include "qsim/measure.hpp"
#include "qsim/statevector.hpp"
#include "util/rng.hpp"

namespace {

using qq::sim::StateVector;

void BM_ApplyH(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_h(q);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyH)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

void BM_ApplyRx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_rx(q, 0.3);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyRx)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

void BM_ApplyRz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_rz(q, 0.3);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyRz)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

// One whole QAOA mixer layer. Fused: a few cache-blocked passes
// (apply_rx_layer). Unfused: the old n separate apply_rx sweeps — kept as
// the in-binary "before" for BENCH_qsim.json.
void BM_MixerLayerFused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  for (auto _ : state) {
    sv.apply_rx_layer(0.3);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()) * n);
}
BENCHMARK(BM_MixerLayerFused)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_MixerLayerUnfused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  for (auto _ : state) {
    for (int q = 0; q < n; ++q) sv.apply_rx(q, 0.3);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()) * n);
}
BENCHMARK(BM_MixerLayerUnfused)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_ApplyCx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_cx(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyCx)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_ApplyCz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_cz(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyCz)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_ApplySwap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_swap(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplySwap)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_ApplyRzz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_rzz(q, (q + 1) % n, 0.4);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ApplyRzz)->Arg(10)->Arg(14)->Arg(18)->Arg(20)->Arg(22);

void BM_DiagonalPhaseSweep(benchmark::State& state) {
  // One whole QAOA cost layer as a single sweep — the fast path that makes
  // the grid searches feasible.
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  std::vector<double> table(sv.size());
  qq::util::Rng rng(1);
  for (double& v : table) v = qq::util::uniform(rng, 0.0, 10.0);
  for (auto _ : state) {
    sv.apply_diagonal_phase(table, 0.37);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_DiagonalPhaseSweep)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

void BM_SampleShots(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  qq::util::Rng rng(2);
  for (auto _ : state) {
    auto shots = qq::sim::sample_counts(sv, 4096, rng);  // paper shot count
    benchmark::DoNotOptimize(shots);
  }
}
BENCHMARK(BM_SampleShots)->Arg(10)->Arg(14)->Arg(18);

void BM_ExpectationDiagonal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector sv = StateVector::plus_state(n);
  std::vector<double> table(sv.size(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qq::sim::expectation_diagonal(sv, table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.size()));
}
BENCHMARK(BM_ExpectationDiagonal)->Arg(10)->Arg(14)->Arg(18)->Arg(20);

}  // namespace
