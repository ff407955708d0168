//===-- core/SymbolicEngine.cpp - PSA-based symbolic engine ---------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/SymbolicEngine.h"

using namespace cuba;

DomainExtraction MaskRoundDomain::extract(
    const Sat &S, Cache &Cached, QState Root,
    std::vector<ExtractedSucc> &Succs) const {
  std::vector<std::pair<QState, CanonicalDfa>> Langs;
  std::vector<uint64_t> Hashes;
  uint64_t Reused = S.extractRootCached(Root, Cached, Langs, Hashes);
  // The per-successor charge mirrors the pre-refactor pipeline's
  // rooted-NFA cost: the size of the automaton the canonicalization
  // reads, identical for every target of one root.  Cache hits charge
  // the same schedule a fresh extraction would -- only the wall time
  // changes, never the budget.
  uint64_t Cost = S.numStates();
  for (size_t I = 0; I < Langs.size(); ++I)
    Succs.push_back(
        {Langs[I].first, std::move(Langs[I].second), Hashes[I], Cost});
  return {Reused, 0};
}

template class cuba::SymbolicRounds<MaskRoundDomain>;
