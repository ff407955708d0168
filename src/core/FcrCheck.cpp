//===-- core/FcrCheck.cpp - Finite context reachability (Sec. 5) ----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/FcrCheck.h"

#include "psa/PostStar.h"

using namespace cuba;

std::pair<bool, bool>
cuba::threadShortStackReachabilityFinite(const Pds &P, uint32_t NumShared,
                                         LimitTracker *Limits) {
  // Work in the bottom-lifted system: original stacks w are read as
  // w bot, which lets post* fire the empty-stack rules on the marker and
  // preserves language finiteness (words only grow by the one trailing
  // marker).  P is saturated in place; nothing is copied.
  PostStarResult R =
      postStar(P, shortStackAutomaton(NumShared, P.bottom()), Limits);
  if (!R.Complete)
    return {false, false};

  // R(Q x Sigma^{<=1}) is the union over all shared roots, read off the
  // saturated automaton itself.
  Nfa &Lang = R.Automaton.nfa();
  for (QState Q = 0; Q < NumShared; ++Q)
    Lang.setInitial(Q);
  return {Lang.isLanguageFinite(), true};
}

FcrResult cuba::checkFcr(const Cpds &C, LimitTracker *Limits) {
  assert(C.frozen() && "checkFcr requires a frozen CPDS");
  FcrResult Result;
  Result.Holds = true;
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    auto [Finite, Complete] = threadShortStackReachabilityFinite(
        C.thread(I), C.numSharedStates(), Limits);
    Result.ThreadFinite.push_back(Finite);
    Result.Holds = Result.Holds && Finite;
    Result.Complete = Result.Complete && Complete;
  }
  return Result;
}
