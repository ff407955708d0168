//===-- pds/Cpds.cpp - Concurrent pushdown systems ------------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "pds/Cpds.h"

#include <algorithm>

#include "support/Unreachable.h"

using namespace cuba;

unsigned Cpds::addThread(std::string Name) {
  assert(!Frozen && "cannot add threads after freeze()");
  Threads.emplace_back();
  ThreadNames.push_back(std::move(Name));
  InitStacks.emplace_back();
  return static_cast<unsigned>(Threads.size() - 1);
}

void Cpds::setInitialStack(unsigned I, std::vector<Sym> TopFirst) {
  assert(!Frozen && "cannot change the initial state after freeze()");
  assert(I < Threads.size() && "thread index out of range");
  // Stored bottom-first (top at back); the argument is top-first.
  std::reverse(TopFirst.begin(), TopFirst.end());
  InitStacks[I] = std::move(TopFirst);
}

ErrorOr<void> Cpds::freeze() {
  assert(!Frozen && "freeze() called twice");
  if (SharedNames.empty())
    return Error("CPDS has no shared states");
  if (Threads.empty())
    return Error("CPDS has no threads");
  if (InitShared >= numSharedStates())
    return Error("initial shared state out of range");
  for (unsigned I = 0; I < Threads.size(); ++I) {
    if (auto R = Threads[I].freeze(numSharedStates()); !R)
      return Error("thread " + ThreadNames[I] + ": " + R.error().message());
    for (Sym S : InitStacks[I])
      if (S == EpsSym || S > Threads[I].numSymbols())
        return Error("thread " + ThreadNames[I] +
                     ": initial stack symbol out of range");
  }
  Frozen = true;
  return {};
}

GlobalState Cpds::initialState() const {
  assert(Frozen && "freeze() must run before initialState()");
  GlobalState S;
  S.Q = InitShared;
  S.Stacks = InitStacks;
  return S;
}

/// Applies \p A to stack \p W (modified in place) and returns the new
/// shared state.  \p A must be enabled, i.e. its source symbol equals
/// topOf(W).
static QState applyAction(const Action &A, Stack &W) {
  assert(A.SrcSym == topOf(W) && "action not enabled in this state");
  switch (A.kind()) {
  case ActionKind::Pop:
    W.pop_back();
    return A.DstQ;
  case ActionKind::Overwrite:
    W.back() = A.Dst0;
    return A.DstQ;
  case ActionKind::Push:
    // (q, s) -> (q', r0 r1): s is overwritten by r1, then r0 is pushed.
    W.back() = A.Dst1;
    W.push_back(A.Dst0);
    return A.DstQ;
  case ActionKind::EmptyChange:
    return A.DstQ;
  case ActionKind::EmptyPush:
    W.push_back(A.Dst0);
    return A.DstQ;
  }
  cuba_unreachable("covered switch over ActionKind");
}

void Cpds::threadSuccessors(const GlobalState &S, unsigned I,
                            std::vector<GlobalState> &Out) const {
  assert(Frozen && "freeze() must run before threadSuccessors()");
  assert(I < Threads.size() && "thread index out of range");
  const Pds &P = Threads[I];
  Sym Top = topOf(S.Stacks[I]);
  for (uint32_t AI : P.actionsFrom(S.Q, Top)) {
    GlobalState Succ = S;
    Succ.Q = applyAction(P.actions()[AI], Succ.Stacks[I]);
    Out.push_back(std::move(Succ));
  }
}

void Cpds::abstractSuccessors(const VisibleState &V, unsigned I,
                              std::vector<VisibleState> &Out) const {
  assert(Frozen && "freeze() must run before abstractSuccessors()");
  assert(I < Threads.size() && "thread index out of range");
  const Pds &P = Threads[I];
  for (uint32_t AI : P.actionsFrom(V.Q, V.Tops[I])) {
    const Action &A = P.actions()[AI];
    // Line 6 of Alg. 2: (q, w) |-> (q', T(w')).  For a push, T(w') is the
    // newly pushed top r0; the symbol underneath is dropped by the
    // stack-size-1 cutoff.
    VisibleState Succ = V;
    Succ.Q = A.DstQ;
    Succ.Tops[I] = A.Dst0; // EpsSym for pops / empty moves.
    Out.push_back(Succ);
    // Lines 7-9 of Alg. 2: when the target word is empty, the emerging
    // symbol is overapproximated by every candidate in E.
    if (A.targetLength() == 0) {
      for (Sym Rho : P.emergingSymbols()) {
        VisibleState Em = V;
        Em.Q = A.DstQ;
        Em.Tops[I] = Rho;
        Out.push_back(std::move(Em));
      }
    }
  }
}
