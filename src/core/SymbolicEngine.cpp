//===-- core/SymbolicEngine.cpp - PSA-based symbolic engine ---------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/SymbolicEngine.h"

using namespace cuba;

void MaskRoundDomain::extract(const Sat &S, const Cache &Committed,
                              QState Root, std::vector<ExtractedSucc> &Succs,
                              Payload &X) const {
  S.extractRootCached(Root, Committed, X);
  // The per-successor charge mirrors the pre-refactor pipeline's
  // rooted-NFA cost: the size of the automaton the canonicalization
  // reads, identical for every target of one root.  Cache hits charge
  // the same schedule a fresh extraction would -- only the wall time
  // changes, never the budget.
  uint64_t Cost = S.numStates();
  for (size_t I = 0; I < X.Langs.size(); ++I)
    Succs.push_back({X.Langs[I].first, std::move(X.Langs[I].second),
                     X.Hashes[I], Cost});
}

template class cuba::SymbolicRounds<MaskRoundDomain>;
