//===-- testing/DifferentialOracle.cpp - Cross-engine oracle --------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "testing/DifferentialOracle.h"

#include <algorithm>
#include <optional>

#include "baseline/CbaBaseline.h"
#include "core/CbaEngine.h"
#include "core/CubaDriver.h"
#include "core/FcrCheck.h"
#include "core/SymbolicEngine.h"
#include "psa/PostStar.h"

using namespace cuba;
using namespace cuba::testing;

namespace {

std::string describeBound(const std::optional<unsigned> &B) {
  return B ? "k=" + std::to_string(*B) : "none";
}

/// Renders the symmetric difference of two sorted visible-state vectors.
std::string setDiff(const Cpds &C, const std::vector<VisibleState> &A,
                    const std::vector<VisibleState> &B) {
  std::string Out;
  std::vector<VisibleState> OnlyA, OnlyB;
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::back_inserter(OnlyA));
  std::set_difference(B.begin(), B.end(), A.begin(), A.end(),
                      std::back_inserter(OnlyB));
  for (const VisibleState &V : OnlyA)
    Out += " explicit-only " + toString(C, V);
  for (const VisibleState &V : OnlyB)
    Out += " symbolic-only " + toString(C, V);
  return Out;
}

const char *baselineName(BaselineEngine E) {
  switch (E) {
  case BaselineEngine::Explicit:
    return "baseline-explicit";
  case BaselineEngine::ExplicitBdd:
    return "baseline-bdd";
  case BaselineEngine::Symbolic:
    return "baseline-symbolic";
  }
  return "?";
}

} // namespace

std::string OracleReport::str() const {
  std::string Out;
  for (const std::string &M : Mismatches) {
    if (!Out.empty())
      Out += "\n";
    Out += M;
  }
  return Out;
}

OracleReport
cuba::testing::runDifferentialOracle(const CpdsFile &File,
                                     const OracleOptions &Opts) {
  OracleReport Rep;
  const Cpds &C = File.System;
  const SafetyProperty &Prop = File.Property;
  auto Mismatch = [&](std::string S) {
    Rep.Mismatches.push_back(std::move(S));
  };

  // Phase 1: lockstep rounds of the explicit and symbolic engines,
  // comparing the newly discovered visible states at every bound.
  CbaEngine Exp(C, Opts.Limits);
  SymbolicEngine Sym(C, Opts.Limits);
  Exp.setParallel(Opts.Pool);
  std::optional<unsigned> ExpBug, SymBug;
  uint64_t VisibleCounter = 0; // For the InjectDropVisible testing hook.
  unsigned K = 0;
  while (true) {
    std::vector<VisibleState> NewE = Exp.newVisibleThisRound();
    std::vector<VisibleState> NewS = Sym.newVisibleThisRound();
    for (auto It = NewE.begin(); It != NewE.end();) {
      if (++VisibleCounter == Opts.InjectDropVisible)
        It = NewE.erase(It);
      else
        ++It;
    }
    if (NewE != NewS)
      Mismatch("k=" + std::to_string(K) + ": T(R_k) and T(S_k) differ:" +
               setDiff(C, NewE, NewS));
    for (const VisibleState &V : NewE)
      if (!ExpBug && Prop.violatedBy(V))
        ExpBug = K;
    for (const VisibleState &V : NewS)
      if (!SymBug && Prop.violatedBy(V))
        SymBug = K;
    Rep.KCompared = K;
    if (K >= Opts.MaxK)
      break;
    // Advance both engines; a budget stop truncates the comparison (the
    // interrupted round's discoveries are incomplete by construction).
    Rep.ExplicitExhausted =
        Exp.advance() == CbaEngine::RoundStatus::Exhausted;
    Rep.SymbolicExhausted =
        Sym.advance() == SymbolicEngine::RoundStatus::Exhausted;
    if (Rep.ExplicitExhausted || Rep.SymbolicExhausted) {
      Rep.ExplicitReason = Exp.limits().reason();
      Rep.SymbolicReason = Sym.limits().reason();
      break;
    }
    ++K;
  }
  Rep.PeakBytes =
      std::max(Exp.limits().peakBytes(), Sym.limits().peakBytes());
  if (ExpBug != SymBug)
    Mismatch("first property violation differs: explicit " +
             describeBound(ExpBug) + " vs symbolic " + describeBound(SymBug));

  // Phase 2: the baseline at bound K must reproduce the explicit engine's
  // R_K facts, whichever store it uses.
  if (Opts.CheckBaselines && !Rep.ExplicitExhausted &&
      !Rep.SymbolicExhausted && Opts.InjectDropVisible == 0) {
    for (BaselineEngine BE :
         {BaselineEngine::Explicit, BaselineEngine::ExplicitBdd,
          BaselineEngine::Symbolic}) {
      BaselineResult B =
          runCbaBaseline(C, Prop, Rep.KCompared, Opts.Limits, BE);
      if (!B.CompletedToBound)
        continue; // Budget ran out in the rerun; nothing to claim.
      if (B.BugBound != ExpBug)
        Mismatch(std::string(baselineName(BE)) + ": bug bound " +
                 describeBound(B.BugBound) + " vs engine " +
                 describeBound(ExpBug));
      if (!B.BugBound && B.VisibleStates != Exp.visibleSize())
        Mismatch(std::string(baselineName(BE)) + ": |T(R_" +
                 std::to_string(Rep.KCompared) + ")| = " +
                 std::to_string(B.VisibleStates) + " vs engine " +
                 std::to_string(Exp.visibleSize()));
    }
  }

  // Phase 3: FCR self-consistency.  Both runs get fresh trackers with
  // identical budgets, so the determinism comparison stays meaningful
  // (fuzz budgets set MaxMillis = 0; exhaustion is then step-exact).
  LimitTracker FcrL1(Opts.Limits), FcrL2(Opts.Limits);
  FcrResult F1 = checkFcr(C, &FcrL1);
  FcrResult F2 = checkFcr(C, &FcrL2);
  if (F1.Holds != F2.Holds || F1.Complete != F2.Complete ||
      F1.ThreadFinite != F2.ThreadFinite)
    Mismatch("checkFcr is nondeterministic");
  if (F1.ThreadFinite.size() != C.numThreads())
    Mismatch("checkFcr reported " + std::to_string(F1.ThreadFinite.size()) +
             " per-thread verdicts for " + std::to_string(C.numThreads()) +
             " threads");
  bool AllFinite = std::all_of(F1.ThreadFinite.begin(), F1.ThreadFinite.end(),
                               [](bool B) { return B; });
  if (F1.Holds != (F1.Complete && AllFinite))
    Mismatch("checkFcr verdict disagrees with its per-thread results");
  // Each thread's answer must match the automaton test checkFcr stands
  // for: classic post* of the lifted short-stack start set, then
  // finiteness of its language over all shared roots.  The saturations
  // must also agree below the verdict: checkFcr stores exactly the
  // classic automaton's transitions into push helpers, the states the
  // start set does not have.
  if (F1.Complete && F1.ThreadFinite.size() == C.numThreads()) {
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      const Pds &P = C.thread(I);
      PAutomaton Start = shortStackAutomaton(C.numSharedStates(), P.bottom());
      uint32_t FirstHelper = Start.nfa().numStates();
      LimitTracker L(Opts.Limits);
      PostStarResult R = postStar(P, std::move(Start), &L);
      if (!R.Complete)
        continue;
      Nfa &Lang = R.Automaton.nfa();
      for (QState Q = 0; Q < C.numSharedStates(); ++Q)
        Lang.setInitial(Q);
      bool Finite = Lang.isLanguageFinite();
      if (Finite != F1.ThreadFinite[I])
        Mismatch("checkFcr thread " + std::to_string(I) + ": " +
                 (F1.ThreadFinite[I] ? "finite" : "infinite") +
                 ", the automaton test says " +
                 (Finite ? "finite" : "infinite"));
      uint64_t HelperEdges = 0;
      for (uint32_t S = 0; S < Lang.numStates(); ++S)
        for (const Nfa::Edge &E : Lang.edgesFrom(S))
          HelperEdges += E.To >= FirstHelper;
      LimitTracker TL(Opts.Limits);
      FcrThreadResult T = threadShortStackReachabilityFinite(P, &TL);
      if (T.Complete && T.Edges != HelperEdges)
        Mismatch("checkFcr thread " + std::to_string(I) + ": " +
                 std::to_string(T.Edges) + " edges into push helpers, " +
                 "classic post* has " + std::to_string(HelperEdges));
    }
  }

  // Phase 4: the two top-level procedures must agree whenever both
  // conclude within budget.  The symbolic driver runs on orbits when the
  // instance has a class of interchangeable threads (pds/ThreadSymmetry.h)
  // and the explicit one never does, so this also checks the reduction.
  if (Opts.CheckDrivers && Opts.InjectDropVisible == 0) {
    RunOptions RO;
    RO.Limits = Opts.Limits;
    RO.Pool = Opts.Pool;
    RoundsResult DE = runExplicitCombined(C, Prop, RO);
    RoundsResult DS = runAlg3Symbolic(C, Prop, RO);
    if (!DE.Run.Exhausted && !DS.Run.Exhausted) {
      if (DE.Run.outcome() != DS.Run.outcome())
        Mismatch(std::string("driver verdicts differ: explicit ") +
                 outcomeName(DE.Run.outcome()) + " vs symbolic " +
                 outcomeName(DS.Run.outcome()));
      else if (DE.Run.BugBound != DS.Run.BugBound)
        Mismatch("driver bug bounds differ: explicit " +
                 describeBound(DE.Run.BugBound) + " vs symbolic " +
                 describeBound(DS.Run.BugBound));
      else if (DE.Run.outcome() == Outcome::Proved &&
               DE.Run.VisibleStates != DS.Run.VisibleStates)
        Mismatch("proved with different visible-state counts: explicit " +
                 std::to_string(DE.Run.VisibleStates) + " vs symbolic " +
                 std::to_string(DS.Run.VisibleStates));
    }
  }

  return Rep;
}
