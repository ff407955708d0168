//===-- bench/bench_fig1_table.cpp - Regenerates Fig. 1 (right) ------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiments E1 and E6.  Section 1 regenerates the reachability table
/// of Fig. 1 (right): the sets R_k \ R_{k-1} and T(R_k) \ T(R_{k-1})
/// that are new at each bound k.  Section 2 reproduces the Ex. 8 facts
/// about the Fig. 2 program: the explicit engine exhausts (R_1 is
/// already infinite), while the symbolic engine computes the rounds and
/// Alg. 3 converges.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchUtil.h"
#include "core/Algorithms.h"
#include "core/CbaEngine.h"
#include "core/SymbolicEngine.h"
#include "models/Models.h"
#include "pds/CpdsIO.h"

using namespace cuba;
using namespace cuba::benchutil;

static void fig1Section() {
  std::printf("[E1] Fig. 1 (right): new states per context bound\n");
  rule('=');
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  CbaEngine E(C, ResourceLimits::unlimited());

  // Paper row contents for the comparison column.
  const char *PaperT[] = {
      "<0|1,4>", "<1|2,4> <0|1,eps>", "<2|2,5> <3|2,4> <1|2,eps>", "",
      "<0|1,6>", "<1|2,6>", ""};

  for (unsigned K = 0; K <= 6; ++K) {
    if (K > 0)
      E.advance();
    std::printf("k=%u:\n  R new: ", K);
    for (const GlobalState &S : E.frontier())
      std::printf("%s ", toString(C, S).c_str());
    std::printf("\n  T new: ");
    auto New = E.newVisibleThisRound();
    if (New.empty())
      std::printf("(none -- plateau)");
    for (const VisibleState &V : New)
      std::printf("%s ", toString(C, V).c_str());
    std::printf("\n  paper: %s\n", *PaperT[K] ? PaperT[K]
                                              : "(none -- plateau)");
  }
  std::printf("\n|T(R_k)| sizes: ");
  // Recompute from scratch for the printed summary.
  CbaEngine E2(C, ResourceLimits::unlimited());
  std::printf("%zu", E2.visibleSize());
  for (unsigned K = 1; K <= 6; ++K) {
    E2.advance();
    std::printf(" %zu", E2.visibleSize());
  }
  std::printf("   (paper: 1 3 6 6 7 8 8)\n\n");
}

static void fig2Section() {
  std::printf("[E6] Ex. 8: the Fig. 2 program under both engines\n");
  rule('=');
  CpdsFile F = models::buildFig2();

  // Explicit: a single context already reaches infinitely many states.
  ResourceLimits Tight;
  Tight.MaxStates = 50'000;
  Tight.MaxSteps = 5'000'000;
  Tight.MaxMillis = 0;
  CbaEngine E(F.System, Tight);
  CbaEngine::RoundStatus St = E.advance();
  std::printf("explicit engine, budget 50k states: %s (the example's\n"
              "  stacks grow without context switches; Ex. 8 notes both\n"
              "  threads can pump solo, so R_1 is infinite)\n",
              St == CbaEngine::RoundStatus::Exhausted
                  ? "EXHAUSTED during round 1, as expected"
                  : "unexpectedly completed");

  // Symbolic: per-round automata stay small; Alg. 3 converges.
  RunOptions O;
  O.Limits.MaxContexts = 16;
  RoundsResult R = runAlg3Symbolic(F.System, F.Property, O);
  std::printf("symbolic engine: T(S_k) converged at k0 = %s "
              "(paper: 3), k_max = %u,\n  %llu symbolic states, "
              "verdict %s\n",
              boundOrGe(R.Run.ConvergedAt, R.Run.KMax).c_str(), R.Run.KMax,
              static_cast<unsigned long long>(R.Run.StatesStored),
              R.Run.outcome() == Outcome::Proved ? "SAFE (proved)"
                                                 : "not proved");
}

int main() {
  fig1Section();
  fig2Section();
  return 0;
}
