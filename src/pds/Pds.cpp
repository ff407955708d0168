//===-- pds/Pds.cpp - Sequential pushdown systems -------------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "pds/Pds.h"

#include <algorithm>

#include "support/Hashing.h"
#include "support/SymbolTable.h"

using namespace cuba;

Sym Pds::addSymbol(std::string Name) {
  assert(!Frozen && "cannot add symbols after freeze()");
  Sym S = static_cast<Sym>(SymNames.size());
  SymIndex.tryEmplace(hashString(Name), S);
  SymNames.push_back(std::move(Name));
  return S;
}

Sym Pds::symbolByName(std::string_view Name) const {
  return findName(SymNames, SymIndex, Name, EpsSym);
}

LabelId Pds::internLabel(std::string_view Name) {
  if (Name.empty())
    return 0;
  LabelId L = findName(LabelNames, LabelIndex, Name, UINT32_MAX);
  if (L != UINT32_MAX)
    return L;
  L = static_cast<LabelId>(LabelNames.size());
  LabelIndex.tryEmplace(hashString(Name), L);
  LabelNames.emplace_back(Name);
  return L;
}

uint32_t Pds::addAction(const NamedAction &A) {
  return addAction(
      Action{A.SrcQ, A.SrcSym, A.DstQ, A.Dst0, A.Dst1, internLabel(A.Label)});
}

ErrorOr<void> Pds::freeze(uint32_t NumSharedStates) {
  assert(!Frozen && "freeze() called twice");
  uint32_t NumSyms = numSymbols();
  for (uint32_t I = 0; I < Delta.size(); ++I) {
    const Action &A = Delta[I];
    auto Fail = [&](const char *What) {
      return Error("action '" + label(I) + "': " + What);
    };
    if (A.SrcQ >= NumSharedStates || A.DstQ >= NumSharedStates)
      return Fail("shared state out of range");
    if (A.SrcSym > NumSyms || A.Dst0 > NumSyms || A.Dst1 > NumSyms)
      return Fail("stack symbol out of range");
    // Target words are written left-packed: (Dst0, Dst1) may not be
    // (eps, s), which would encode a word with a hole in it.
    if (A.Dst0 == EpsSym && A.Dst1 != EpsSym)
      return Fail("malformed target word");
    // Case (b) of the semantics: actions from the empty stack may write at
    // most one symbol.
    if (A.SrcSym == EpsSym && A.targetLength() > 1)
      return Fail("empty-stack action must write at most one symbol");
  }

  // CSR build: count per-source fan-out, prefix-sum to bucket ends, then
  // place the indices back to front, which leaves every bucket in Delta
  // order and SourceStart[key] at its bucket's start.
  auto SourceKey = [NumSyms](const Action &A) {
    return static_cast<size_t>(A.SrcQ) * (NumSyms + 1) + A.SrcSym;
  };
  size_t NumKeys = static_cast<size_t>(NumSharedStates) * (NumSyms + 1);
  SourceStart.assign(NumKeys + 1, 0);
  for (const Action &A : Delta)
    ++SourceStart[SourceKey(A)];
  for (size_t Key = 1; Key <= NumKeys; ++Key)
    SourceStart[Key] += SourceStart[Key - 1];
  SourceActions.resize(Delta.size());
  for (uint32_t I = static_cast<uint32_t>(Delta.size()); I-- > 0;)
    SourceActions[--SourceStart[SourceKey(Delta[I])]] = I;

  // Build-then-query sorted vectors for the syntactic sets used by the
  // generator test (Eq. 2) and the Z overapproximation (Alg. 2).
  for (const Action &A : Delta) {
    if (A.kind() == ActionKind::Push)
      Emerging.push_back(A.Dst1);
    if (A.kind() == ActionKind::Pop)
      PopTargets.push_back(A.DstQ);
  }
  std::sort(Emerging.begin(), Emerging.end());
  Emerging.erase(std::unique(Emerging.begin(), Emerging.end()),
                 Emerging.end());
  std::sort(PopTargets.begin(), PopTargets.end());
  PopTargets.erase(std::unique(PopTargets.begin(), PopTargets.end()),
                   PopTargets.end());

  Frozen = true;
  return {};
}
