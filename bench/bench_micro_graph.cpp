// Micro-benchmarks of the graph substrate: generation, greedy modularity
// (the QAOA^2 divide step), the size-capped partition, cut evaluation and
// the exact solver's exponential wall.

#include <benchmark/benchmark.h>

#include "maxcut/baselines.hpp"
#include "maxcut/exact.hpp"
#include "qgraph/generators.hpp"
#include "qgraph/modularity.hpp"
#include "qgraph/partition.hpp"
#include "util/rng.hpp"

namespace {

void BM_ErdosRenyiGenerate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qq::util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(n), 0.1, rng));
  }
}
BENCHMARK(BM_ErdosRenyiGenerate)->Arg(100)->Arg(500)->Arg(2500);

void BM_GreedyModularity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qq::util::Rng rng(2);
  const auto g =
      qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(n), 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qq::graph::greedy_modularity_communities(g));
  }
}
BENCHMARK(BM_GreedyModularity)->Arg(100)->Arg(200)->Arg(400)->Arg(1000)
    ->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_PartitionMaxSize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qq::util::Rng rng(3);
  const auto g =
      qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(n), 0.1, rng);
  qq::graph::PartitionOptions opts;
  opts.max_nodes = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qq::graph::partition_max_size(g, opts));
  }
}
BENCHMARK(BM_PartitionMaxSize)->Arg(100)->Arg(200)->Arg(400)->Arg(1000)
    ->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_CutValue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qq::util::Rng rng(4);
  const auto g =
      qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(n), 0.1, rng);
  const auto cut = qq::maxcut::randomized_partitioning(g, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qq::maxcut::cut_value(g, cut.assignment));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CutValue)->Arg(500)->Arg(2500);

void BM_ExactSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qq::util::Rng rng(5);
  const auto g =
      qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(n), 0.3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qq::maxcut::solve_exact(g));
  }
}
BENCHMARK(BM_ExactSolver)->Arg(16)->Arg(20)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_OneExchange(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  qq::util::Rng rng(6);
  const auto g =
      qq::graph::erdos_renyi(static_cast<qq::graph::NodeId>(n), 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qq::maxcut::one_exchange(g, rng));
  }
}
BENCHMARK(BM_OneExchange)->Arg(100)->Arg(500)->Arg(2500);

}  // namespace
