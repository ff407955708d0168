//===-- bench/bench_parallel.cpp - Parallel round scaling ------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark sweep of the explicit engine's rounds on a pool:
/// full context rounds on the wide Bluetooth driver model at --jobs
/// 1 / 2 / 4 / 8 (symbolic rounds are serial at every job count, so
/// they are benched in bench_symbolic only).  Results are bit-identical
/// across the sweep (pinned by ParallelDeterminismTest); only
/// wall-clock should move.  The model's levels are all smaller than
/// CbaEngine::MinParallelLevel, so every job count expands them in
/// place: the sweep pins that a pool costs such rounds nothing, and
/// CI fails when the /4 median exceeds the /1 median by more than 50%.
/// Real time, since dispatched work would spread across workers.  Emits
/// BENCH_parallel.json via --benchmark_format=json; see BUILDING.md.
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

} // namespace

CUBA_BENCH_MAIN()
