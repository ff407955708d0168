//===-- bench/bench_micro_explicit.cpp - Explicit-engine microbench --------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the explicit engine's hot loop:
/// round-by-round context closures (R_k enumeration) on the Bluetooth
/// driver models, plus the G cap Z build of Alg. 3's generator test on
/// BST-Insert 3+3.  Emits BENCH_explicit.json via
/// --benchmark_format=json; see BUILDING.md.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "BenchUtil.h"

#include "core/CbaEngine.h"
#include "core/ZOverapprox.h"
#include "models/Models.h"
#include "pds/ThreadSymmetry.h"

using namespace cuba;

namespace {

/// Context closure to bound k on the Bluetooth-v3 model: the hot loop of
/// Scheme 1 / Alg. 3 (state dedup + successor derivation dominate).
void BM_ExplicitRounds(benchmark::State &State) {
  CpdsFile F = models::buildBluetooth(3, 1, 1);
  unsigned K = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    CbaEngine E(F.System, ResourceLimits::unlimited());
    for (unsigned I = 0; I < K; ++I)
      if (E.advance() != CbaEngine::RoundStatus::Ok)
        break;
    benchmark::DoNotOptimize(E.reachedSize());
  }
}
BENCHMARK(BM_ExplicitRounds)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

/// The same closure on a wider system (two stoppers + two adders), which
/// stresses per-state copies: more threads, deeper stacks, larger R_k.
void BM_ExplicitClosureWide(benchmark::State &State) {
  CpdsFile F = models::buildBluetooth(3, 2, 2);
  unsigned K = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    CbaEngine E(F.System, ResourceLimits::unlimited());
    for (unsigned I = 0; I < K; ++I)
      if (E.advance() != CbaEngine::RoundStatus::Ok)
        break;
    benchmark::DoNotOptimize(E.reachedSize());
  }
}
BENCHMARK(BM_ExplicitClosureWide)->Arg(3)->Arg(5)->Arg(7);

/// The G cap Z layer alone, as the front door builds it at the first
/// plateau of BST-Insert 3+3 at jobs 1 (|Z| = 21,750, |G cap Z| =
/// 19,320): M_n explored on packed words, the generator filter on the
/// words, then one coverage probe of T(R_0).
void BM_GeneratorsInZ(benchmark::State &State) {
  CpdsFile F = models::buildBstInsert(3, 3);
  CbaEngine E(F.System, ResourceLimits::unlimited());
  for (auto _ : State) {
    GeneratorTest G(F.System, ResourceLimits::unlimited(),
                    ThreadSymmetry(F.System, F.Property));
    benchmark::DoNotOptimize(G.coveredBy(E));
  }
}
BENCHMARK(BM_GeneratorsInZ)->Unit(benchmark::kMillisecond);

} // namespace

CUBA_BENCH_MAIN()
