//===-- bench/bench_micro_symbolic.cpp - Symbolic-plane microbench ---------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmark for the symbolic data plane: full
/// symbolic context rounds (SymbolicEngine) on the Bluetooth driver
/// model.  Emits BENCH_symbolic.json via --benchmark_format=json; see
/// BUILDING.md.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "BenchUtil.h"

#include "core/SymbolicEngine.h"
#include "models/Models.h"

using namespace cuba;

namespace {

/// Full symbolic context rounds on the Bluetooth-v3 model: post*
/// saturation + cached per-root extraction (fused canonicalization) +
/// symbolic-state dedup, i.e. the Table 2 symbolic pipeline end to end.
void BM_SymbolicRounds(benchmark::State &State) {
  CpdsFile F = models::buildBluetooth(3, 1, 1);
  unsigned K = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    SymbolicEngine E(F.System, ResourceLimits::unlimited());
    for (unsigned I = 0; I < K; ++I)
      if (E.advance() != SymbolicEngine::RoundStatus::Ok)
        break;
    benchmark::DoNotOptimize(E.symbolicStateCount());
  }
}
BENCHMARK(BM_SymbolicRounds)->Arg(2)->Arg(4)->Arg(6);

} // namespace

CUBA_BENCH_MAIN()
