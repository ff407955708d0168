//===-- bench/bench_micro_poststar.cpp - Microbenchmarks (A3) --------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the substrate hot paths: post*
/// saturation on synthetic PDS families, the shared-vs-per-root
/// transaction sweep, NFA canonicalisation, and BDD set insertion.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "BenchUtil.h"

#include "../tests/ReferencePostStar.h"
#include "bdd/BddSet.h"
#include "fa/Canonicalize.h"
#include "psa/PostStar.h"
#include "psa/SaturationEngine.h"
#include "support/Unreachable.h"

using namespace cuba;

namespace {

/// A synthetic "counter tower": N shared states in a ring; state i
/// pushes on one symbol and pops on another, producing saturation work
/// that scales with N.
Pds makeTowerPds(unsigned N) {
  Pds P;
  std::vector<Sym> A, B;
  for (unsigned I = 0; I < N; ++I) {
    A.push_back(P.addSymbol("a" + std::to_string(I)));
    B.push_back(P.addSymbol("b" + std::to_string(I)));
  }
  for (unsigned I = 0; I < N; ++I) {
    unsigned J = (I + 1) % N;
    P.addAction({I, A[I], J, A[J], B[I], "push"});
    P.addAction({J, A[J], I, EpsSym, EpsSym, "pop"});
    P.addAction({I, B[I], J, A[J], EpsSym, "ovw"});
  }
  if (!P.freeze(N))
    cuba_unreachable("tower PDS invalid");
  return P;
}

void BM_PostStarTower(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Pds P = makeTowerPds(N);
  for (auto _ : State) {
    PAutomaton Init =
        singleStateAutomaton(N, P.numSymbols(), 0, {P.symbolByName("a0")});
    PostStarResult R = postStar(P, Init);
    benchmark::DoNotOptimize(R.Automaton.nfa().numStates());
  }
}
BENCHMARK(BM_PostStarTower)->Arg(4)->Arg(16)->Arg(64);

/// An infinite input language over the tower's bottom-lifted alphabet:
/// a0 b0* (one overwrite head plus a pumpable tail), shaped like the
/// rooted languages the symbolic engine feeds its transactions.
CanonicalDfa makeTowerLanguage(const Pds &P) {
  Nfa A(P.bottom());
  uint32_t S0 = A.addState(), S1 = A.addState();
  A.setInitial(S0);
  A.addEdge(S0, P.symbolByName("a0"), S1);
  A.addEdge(S1, P.symbolByName("b0"), S1);
  A.setAccepting(S1);
  return canonicalizeNfa(A);
}

/// The pre-shared-saturation transaction pipeline over every root: the
/// same reference::perRootPostStar the property suite verifies the
/// shared layer against (one shim, no drift between what is tested and
/// what is benchmarked), canonicalizing through canonicalizeNfa as
/// BM_SharedPostStar does, so the ratio of the two is the sharing alone.
size_t perRootTransactions(const Pds &P, uint32_t NumShared,
                           const CanonicalDfa &Lang) {
  size_t Rows = 0;
  for (QState Root = 0; Root < NumShared; ++Root) {
    for (auto &[Q2, D] : reference::perRootPostStar(
             P, NumShared, Lang, Root,
             [](const Nfa &A) { return canonicalizeNfa(A); })) {
      benchmark::DoNotOptimize(D.hash());
      ++Rows;
    }
  }
  return Rows;
}

/// The per-root pipeline over every shared root of a tower instance:
/// the cost the symbolic engine used to pay per (round, language).
void BM_PerRootPostStar(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Pds P = makeTowerPds(N);
  CanonicalDfa Lang = makeTowerLanguage(P);
  for (auto _ : State) {
    benchmark::DoNotOptimize(perRootTransactions(P, N, Lang));
  }
}
BENCHMARK(BM_PerRootPostStar)->Arg(4)->Arg(8)->Arg(16);

/// The shared-saturation layer on the same instances: ONE masked
/// saturation, then per-root extraction through the fused
/// canonicalizer.  Same answers as BM_PerRootPostStar; the ratio is the
/// saturation-sharing payoff.
void BM_SharedPostStar(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Pds P = makeTowerPds(N);
  CanonicalDfa Lang = makeTowerLanguage(P);
  for (auto _ : State) {
    SharedSaturationResult R = sharedPostStar(P, N, Lang);
    size_t Rows = 0;
    for (QState Root = 0; Root < N; ++Root) {
      for (auto &[Q2, D] : R.Sat.extractRoot(Root)) {
        benchmark::DoNotOptimize(D.hash());
        ++Rows;
      }
    }
    benchmark::DoNotOptimize(Rows);
  }
}
BENCHMARK(BM_SharedPostStar)->Arg(4)->Arg(8)->Arg(16);

/// The production canonicalizer on its own.
void BM_CanonicalizeNfa(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  // A nondeterministic automaton with N states and 3 symbols.
  Nfa A(3);
  for (unsigned I = 0; I < N; ++I)
    A.addState();
  A.setInitial(0);
  for (unsigned I = 0; I < N; ++I) {
    A.addEdge(I, 1, (I + 1) % N);
    A.addEdge(I, 2, (I * 7 + 3) % N);
    A.addEdge(I, 2, (I + 1) % N); // Nondeterminism on symbol 2.
    A.addEdge(I, 3, I);
    if (I % 3 == 0)
      A.setAccepting(I);
  }
  for (auto _ : State) {
    CanonicalDfa D = canonicalizeNfa(A);
    benchmark::DoNotOptimize(D.hash());
  }
}
BENCHMARK(BM_CanonicalizeNfa)->Arg(8)->Arg(16)->Arg(24);

void BM_BddSetInsert(benchmark::State &State) {
  unsigned Width = 16;
  for (auto _ : State) {
    BddManager M;
    BddSet S(M, Width);
    uint64_t X = 12345;
    for (int I = 0; I < 512; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      S.insert((X >> 30) & 0xffff);
    }
    benchmark::DoNotOptimize(S.nodeCount());
  }
}
BENCHMARK(BM_BddSetInsert);

} // namespace

CUBA_BENCH_MAIN()
