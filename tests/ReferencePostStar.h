//===-- tests/ReferencePostStar.h - Per-root reference pipeline -*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference implementation of the symbolic engine's
/// per-(root, language) transaction pipeline, kept verbatim in the shape
/// the engine used before the shared-saturation refactor: render the
/// canonical language as a P-automaton rooted at one shared state, run
/// the classical postStar, then canonicalize the rooted NFA at every
/// shared target -- by default through the reference canonicalizer of
/// tests/ReferenceFa.h (complete-DFA subset construction, Moore
/// refinement), which shares no code with the canonicalizeNfa that
/// SharedSaturation::extractRoot runs.  The shared-saturation property
/// suite asserts that extractRoot produces exactly these languages for
/// every root -- the refactor promised "one saturation, same answers",
/// and this shim is what holds it to that.  Deliberately per-root.
/// bench_micro_poststar's BM_PerRootPostStar baseline includes this same
/// header (one shim, no drift between what the suite verifies and what
/// the bench measures); no other non-test code may.
///
/// It also keeps the classical bottom transform the engines used before
/// the marker became built in (eliminateEmptyStackRules: a copy of the
/// PDS whose empty-stack rules are rewritten onto an appended `_bot`
/// symbol) and the FCR test on that copy, as the oracles the in-place
/// saturations are checked against.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTS_REFERENCEPOSTSTAR_H
#define CUBA_TESTS_REFERENCEPOSTSTAR_H

#include <utility>
#include <vector>

#include "ReferenceFa.h"
#include "fa/Canonicalize.h"
#include "fa/Nfa.h"
#include "pds/State.h"
#include "psa/PAutomaton.h"
#include "psa/PostStar.h"
#include "support/Unreachable.h"

namespace cuba::reference {

/// The result of the bottom transform: a PDS without empty-stack rules
/// plus the id of the fresh bottom marker (its highest symbol, the same
/// id as the original's Pds::bottom()).
struct BottomedPds {
  Pds P;
  Sym Bottom = EpsSym;

  /// Lifts an original stack (top at back) into the transformed system by
  /// placing the bottom marker underneath.
  Stack lift(const Stack &W) const {
    Stack Out;
    Out.reserve(W.size() + 1);
    Out.push_back(Bottom);
    Out.insert(Out.end(), W.begin(), W.end());
    return Out;
  }
};

/// The classical transform, as the engines ran it before the marker was
/// built in: a fresh PDS with \p P's alphabet plus `_bot`, and \p P's
/// actions in order with
///
///   (q, eps) -> (q', eps)   rewritten to   (q, _bot) -> (q', _bot)
///   (q, eps) -> (q', s)     rewritten to   (q, _bot) -> (q', s _bot)
///
/// frozen against \p NumSharedStates.
inline BottomedPds eliminateEmptyStackRules(const Pds &P,
                                            uint32_t NumSharedStates) {
  BottomedPds Out;
  for (Sym S = 1; S <= P.numSymbols(); ++S)
    Out.P.addSymbol(P.symbolName(S));
  Out.Bottom = Out.P.addSymbol("_bot");
  for (uint32_t I = 0; I < P.actions().size(); ++I) {
    Action B = P.actions()[I];
    B.Label = Out.P.internLabel(P.label(I));
    switch (B.kind()) {
    case ActionKind::Pop:
    case ActionKind::Overwrite:
    case ActionKind::Push:
      break; // Unchanged: these never mention the empty stack.
    case ActionKind::EmptyChange:
      B.SrcSym = Out.Bottom;
      B.Dst0 = Out.Bottom;
      break;
    case ActionKind::EmptyPush:
      B.SrcSym = Out.Bottom;
      B.Dst1 = Out.Bottom;
      break;
    }
    Out.P.addAction(B);
  }
  if (!Out.P.freeze(NumSharedStates))
    cuba_unreachable("bottom transform produced an invalid PDS");
  return Out;
}

/// The canonical single-word language <w bot> of stack \p W (top at
/// back) over \p P's bottom-lifted alphabet: the shape of the languages
/// the symbolic engine starts its threads from.
inline CanonicalDfa liftedWordLanguage(const Pds &P, const Stack &W) {
  Nfa A(P.bottom());
  uint32_t Cur = A.addState();
  A.setInitial(Cur);
  // Stacks are stored bottom-first; automata read top-first.
  for (auto It = W.rbegin(); It != W.rend(); ++It) {
    uint32_t Next = A.addState();
    A.addEdge(Cur, *It, Next);
    Cur = Next;
  }
  uint32_t Next = A.addState();
  A.addEdge(Cur, P.bottom(), Next);
  A.setAccepting(Next);
  return canonicalizeNfa(A);
}

/// The FCR thread test as it ran before the marker was built in: post*
/// of the lifted short-stack start set on the bottomed copy, then
/// finiteness of the union over all shared roots.  Returns {finite?,
/// complete?}.
inline std::pair<bool, bool> copiedThreadFinite(const Pds &P,
                                                uint32_t NumShared,
                                                LimitTracker *Limits =
                                                    nullptr) {
  BottomedPds B = eliminateEmptyStackRules(P, NumShared);
  PostStarResult R =
      postStar(B.P, shortStackAutomaton(NumShared, B.Bottom), Limits);
  if (!R.Complete)
    return {false, false};
  std::vector<QState> Roots;
  for (QState Q = 0; Q < NumShared; ++Q)
    Roots.push_back(Q);
  return {R.Automaton.rootedNfa(Roots).isLanguageFinite(), true};
}

/// Renders a canonical DFA as a P-automaton rooted at \p Root (the
/// pre-refactor SymbolicEngine helper, verbatim).  The start state's row
/// is duplicated onto the root so that no edge enters a shared state (a
/// post* precondition) even when the language's DFA has transitions back
/// into its start.
inline PAutomaton rootedInput(uint32_t NumShared, const CanonicalDfa &D,
                              QState Root) {
  PAutomaton A(NumShared, D.NumSymbols);
  A.nfa().reserveStates(NumShared + D.numStates());
  assert(D.Start != CanonicalDfa::NoState && "empty language row");
  std::vector<uint32_t> Map(D.numStates());
  for (uint32_t U = 0; U < D.numStates(); ++U)
    Map[U] = A.addState();
  for (uint32_t U = 0; U < D.numStates(); ++U) {
    if (D.Accepting[U])
      A.setAccepting(Map[U]);
    for (Sym X = 1; X <= D.NumSymbols; ++X) {
      uint32_t V = D.Table[static_cast<size_t>(U) * D.NumSymbols + (X - 1)];
      if (V != CanonicalDfa::NoState)
        A.addEdge(Map[U], X, Map[V]);
    }
  }
  // The root mirrors the start state.
  if (D.Accepting[D.Start])
    A.setAccepting(Root);
  for (Sym X = 1; X <= D.NumSymbols; ++X) {
    uint32_t V =
        D.Table[static_cast<size_t>(D.Start) * D.NumSymbols + (X - 1)];
    if (V != CanonicalDfa::NoState)
      A.addEdge(Root, X, Map[V]);
  }
  return A;
}

/// One reference transaction: the canonical successor language at every
/// shared target reachable from <Root | Lang>, in ascending target
/// order, empty languages omitted -- the exact answers the pre-refactor
/// engine's collectSuccessors computed.  \p Canonicalize maps each
/// rooted NFA to its canonical form: the suites keep the reference
/// canonicalizer, so the shim shares no code with the extraction it
/// checks; BM_PerRootPostStar passes canonicalizeNfa, the canonicalizer
/// BM_SharedPostStar's extraction runs.
inline std::vector<std::pair<QState, CanonicalDfa>>
perRootPostStar(const Pds &P, uint32_t NumShared, const CanonicalDfa &Lang,
                QState Root,
                CanonicalDfa (*Canonicalize)(const Nfa &) =
                    [](const Nfa &A) { return canonicalize(determinize(A)); }) {
  PAutomaton In = rootedInput(NumShared, Lang, Root);
  PostStarResult R = postStar(P, In);
  std::vector<std::pair<QState, CanonicalDfa>> Out;
  for (QState Q2 = 0; Q2 < NumShared; ++Q2) {
    Nfa Rooted = R.Automaton.rootedNfa({Q2});
    if (Rooted.isLanguageEmpty())
      continue;
    Out.emplace_back(Q2, Canonicalize(Rooted));
  }
  return Out;
}

} // namespace cuba::reference

#endif // CUBA_TESTS_REFERENCEPOSTSTAR_H
