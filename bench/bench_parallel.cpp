//===-- bench/bench_parallel.cpp - Parallel round scaling ------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark sweeps of the explicit engine's rounds on a pool at
/// --jobs 1 / 2 / 4 / 8 (symbolic rounds are serial at every job count,
/// so they are benched in bench_symbolic only).  Results are
/// bit-identical across a sweep (pinned by ParallelDeterminismTest);
/// only wall-clock should move.  Two workloads, one on each side of
/// CbaEngine::MinParallelLevel:
///
/// * BM_ExplicitRoundsPar: full context rounds on the wide Bluetooth
///   driver model, whose levels are all smaller than the threshold, so
///   every job count expands them in place.  It pins that a pool costs
///   such rounds nothing.
/// * BM_ExplicitDispatchPar: BST-Insert 4+4 to k = 17, whose levels of
///   65,536 parents and more (from k = 16) go to the pool.  It times the
///   dispatched path; its worker_batches counter shows the batches the
///   workers joined per iteration.
///
/// CI gates the /4 median of each against its /1 median (BUILDING.md
/// gives the tolerances).  Real time, since dispatched work spreads
/// across workers.  Emits BENCH_parallel.json via
/// --benchmark_format=json; see BUILDING.md.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "BenchUtil.h"

#include "core/CbaEngine.h"
#include "exec/ThreadPool.h"
#include "models/Models.h"

using namespace cuba;

namespace {

/// Explicit context closures on the wide Bluetooth model (two stoppers,
/// two adders): the BM_ExplicitClosureWide workload at each job count.
void BM_ExplicitRoundsPar(benchmark::State &State) {
  CpdsFile F = models::buildBluetooth(3, 2, 2);
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  exec::ThreadPool Pool(Jobs);
  for (auto _ : State) {
    CbaEngine E(F.System, ResourceLimits::unlimited());
    if (Jobs > 1)
      E.setParallel(&Pool);
    for (unsigned I = 0; I < 7; ++I)
      if (E.advance() != CbaEngine::RoundStatus::Ok)
        break;
    benchmark::DoNotOptimize(E.reachedSize());
  }
}
BENCHMARK(BM_ExplicitRoundsPar)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Explicit rounds of BST-Insert 4+4 to k = 17 (443,619 states): the
/// first level of at least CbaEngine::MinParallelLevel parents comes at
/// k = 16, so jobs > 1 dispatch the largest levels.
void BM_ExplicitDispatchPar(benchmark::State &State) {
  CpdsFile F = models::buildBstInsert(4, 4);
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  exec::ThreadPool Pool(Jobs);
  for (auto _ : State) {
    CbaEngine E(F.System, ResourceLimits::unlimited());
    if (Jobs > 1)
      E.setParallel(&Pool);
    while (E.bound() < 17)
      if (E.advance() != CbaEngine::RoundStatus::Ok)
        break;
    benchmark::DoNotOptimize(E.reachedSize());
  }
  // Worker 0 is the calling thread; the others join only dispatched
  // batches.  A one-job pool has none (and a counter that is always 0
  // would give its aggregates a NaN cv).
  if (Jobs == 1)
    return;
  std::vector<exec::WorkerStats> Workers = Pool.workerStats();
  uint64_t Batches = 0;
  for (size_t I = 1; I < Workers.size(); ++I)
    Batches += Workers[I].Batches;
  State.counters["worker_batches"] = benchmark::Counter(
      static_cast<double>(Batches), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExplicitDispatchPar)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

CUBA_BENCH_MAIN()
