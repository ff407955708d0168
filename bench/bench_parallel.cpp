//===-- bench/bench_parallel.cpp - Parallel round scaling ------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark sweep of the exec/ parallel level loop: full
/// explicit context rounds on the wide Bluetooth driver model at --jobs
/// 1 / 2 / 4 / 8 (symbolic rounds are serial at every job count, so
/// they are benched in bench_symbolic only).  Results are bit-identical
/// across the sweep (pinned by ParallelDeterminismTest); only
/// wall-clock should move.  Use real time: the work spreads across pool workers, so CPU
/// time of the driving thread measures the serial commit, not the
/// round.  Real-time scaling needs physical cores; on one core the
/// sweep only measures the parallel path's overhead.  Emits
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
/// two adders): the BM_ExplicitClosureWide workload, fanned out.  Levels
/// hold thousands of states, so the derive phase has real width.
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
