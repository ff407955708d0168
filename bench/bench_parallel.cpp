//===-- bench/bench_parallel.cpp - Parallel round scaling ------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark sweeps of the exec/ parallel round loops: full
/// explicit and symbolic context rounds on the wide Bluetooth driver
/// model at --jobs 1 / 2 / 4 / 8.  Results are bit-identical across the
/// sweep (pinned by ParallelDeterminismTest); only wall-clock should
/// move.  Use real time: the work spreads across pool workers, so CPU
/// time of the driving thread measures the serial commit, not the
/// round.  Real-time scaling needs physical cores; on one core the
/// sweep only measures the parallel path's overhead.  Emits
/// BENCH_parallel.json via --benchmark_format=json; see BUILDING.md.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "BenchUtil.h"

#include "core/CbaEngine.h"
#include "core/SymbolicEngine.h"
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

/// Symbolic context rounds on the same wide model: 5 rounds run 5 / 15 /
/// 22 / 31 / 46 fresh post* + determinize/minimize transactions, which
/// the parallel path computes speculatively across workers before the
/// ordered interning commit.
void BM_SymbolicRoundsPar(benchmark::State &State) {
  CpdsFile F = models::buildBluetooth(3, 2, 2);
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  exec::ThreadPool Pool(Jobs);
  for (auto _ : State) {
    SymbolicEngine E(F.System, ResourceLimits::unlimited());
    if (Jobs > 1)
      E.setParallel(&Pool);
    for (unsigned I = 0; I < 5; ++I)
      if (E.advance() != SymbolicEngine::RoundStatus::Ok)
        break;
    benchmark::DoNotOptimize(E.symbolicStateCount());
  }
}
BENCHMARK(BM_SymbolicRoundsPar)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The narrow tracked workload (BM_SymbolicRounds' model) for
/// continuity with BENCH_symbolic.json: less width (3-13 fresh
/// transactions per round), so it bounds the scaling floor.
void BM_SymbolicRoundsParNarrow(benchmark::State &State) {
  CpdsFile F = models::buildBluetooth(3, 1, 1);
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  exec::ThreadPool Pool(Jobs);
  for (auto _ : State) {
    SymbolicEngine E(F.System, ResourceLimits::unlimited());
    if (Jobs > 1)
      E.setParallel(&Pool);
    for (unsigned I = 0; I < 6; ++I)
      if (E.advance() != SymbolicEngine::RoundStatus::Ok)
        break;
    benchmark::DoNotOptimize(E.symbolicStateCount());
  }
}
BENCHMARK(BM_SymbolicRoundsParNarrow)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

CUBA_BENCH_MAIN()
