//===-- tests/ReferenceFa.h - Reference canonicalizer -----------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only reference canonicalizer: subset construction into a
/// complete DFA, Moore minimisation and canonical renumbering, kept in
/// the shape the library used before the flat-hash data-plane refactor
/// (std::map-interned subset keys, Moore signature-map refinement) and
/// sharing no code with fa/Canonicalize.  The canonical form is unique
/// per language, so the property suites assert that the library's one
/// canonicalizer, canonicalizeNfa, agrees with
/// `canonicalize(determinize(A))` bit for bit: any divergence is a bug
/// in the fused pass.  Deliberately naive -- never include outside
/// tests (and bench_micro_poststar, through ReferencePostStar.h).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTS_REFERENCEFA_H
#define CUBA_TESTS_REFERENCEFA_H

#include <algorithm>
#include <map>
#include <vector>

#include "fa/Canonicalize.h"
#include "fa/Nfa.h"

namespace cuba::reference {

/// A complete DFA: every state has a transition on every symbol (the
/// empty subset of determinize() is the explicit sink).
struct Dfa {
  uint32_t NumSymbols = 0;
  uint32_t Start = 0;
  /// Row-major numStates x NumSymbols successor table.
  std::vector<uint32_t> Next;
  std::vector<bool> Accepting;

  uint32_t numStates() const {
    return static_cast<uint32_t>(Accepting.size());
  }

  /// Successor on symbol \p X (1-based; epsilon is not a DFA symbol).
  uint32_t next(uint32_t S, Sym X) const {
    return Next[static_cast<size_t>(S) * NumSymbols + (X - 1)];
  }
};

/// The pre-refactor subset construction: subsets interned through a
/// std::map keyed by the sorted state vector, symbols explored in
/// increasing order, the empty subset as the explicit sink.
inline Dfa determinize(const Nfa &A) {
  const uint32_t NumSymbols = A.numSymbols();
  std::map<std::vector<uint32_t>, uint32_t> Id;
  std::vector<std::vector<uint32_t>> Subsets;
  auto Intern = [&](std::vector<uint32_t> Subset) {
    auto [It, New] = Id.emplace(Subset, static_cast<uint32_t>(Subsets.size()));
    if (New)
      Subsets.push_back(std::move(Subset));
    return It->second;
  };

  std::vector<uint32_t> Init;
  for (uint32_t S = 0; S < A.numStates(); ++S)
    if (A.isInitial(S))
      Init.push_back(S);
  A.epsilonClosure(Init);

  Dfa D;
  D.NumSymbols = NumSymbols;
  D.Start = Intern(std::move(Init));
  for (uint32_t Cur = 0; Cur < Subsets.size(); ++Cur) {
    for (Sym X = 1; X <= NumSymbols; ++X) {
      std::vector<uint32_t> Next;
      for (uint32_t S : Subsets[Cur])
        for (const Nfa::Edge &E : A.edgesFrom(S))
          if (E.Label == X)
            Next.push_back(E.To);
      A.epsilonClosure(Next);
      D.Next.push_back(Intern(std::move(Next)));
    }
  }
  for (const std::vector<uint32_t> &Subset : Subsets)
    D.Accepting.push_back(std::any_of(Subset.begin(), Subset.end(),
                                      [&](uint32_t N) {
                                        return A.isAccepting(N);
                                      }));
  return D;
}

/// The pre-refactor Moore partition refinement: full passes interning
/// (class, successor classes) signature vectors through a std::map,
/// class ids assigned in first-occurrence order.
inline Dfa minimize(const Dfa &D) {
  const uint32_t NumSymbols = D.NumSymbols;
  uint32_t N = D.numStates();
  std::vector<uint32_t> Class(N);
  for (uint32_t S = 0; S < N; ++S)
    Class[S] = D.Accepting[S] ? 1 : 0;

  while (true) {
    std::map<std::vector<uint32_t>, uint32_t> NewIds;
    std::vector<uint32_t> NewClass(N);
    for (uint32_t S = 0; S < N; ++S) {
      std::vector<uint32_t> Sig;
      Sig.reserve(NumSymbols + 1);
      Sig.push_back(Class[S]);
      for (Sym X = 1; X <= NumSymbols; ++X)
        Sig.push_back(Class[D.next(S, X)]);
      auto [It, New] =
          NewIds.emplace(std::move(Sig), static_cast<uint32_t>(NewIds.size()));
      (void)New;
      NewClass[S] = It->second;
    }
    bool Changed = false;
    for (uint32_t S = 0; S < N && !Changed; ++S)
      Changed = NewClass[S] != Class[S];
    Class = std::move(NewClass);
    if (!Changed)
      break;
  }

  uint32_t NumClasses = *std::max_element(Class.begin(), Class.end()) + 1;
  Dfa M;
  M.NumSymbols = NumSymbols;
  M.Start = Class[D.Start];
  M.Next.assign(static_cast<size_t>(NumClasses) * NumSymbols, 0);
  M.Accepting.assign(NumClasses, false);
  for (uint32_t S = 0; S < N; ++S) {
    uint32_t C = Class[S];
    M.Accepting[C] = D.Accepting[S];
    for (Sym X = 1; X <= NumSymbols; ++X)
      M.Next[static_cast<size_t>(C) * NumSymbols + (X - 1)] =
          Class[D.next(S, X)];
  }
  return M;
}

/// The pre-refactor canonicalisation: reference minimize, dead-state
/// removal over a vector-of-vectors reverse graph, BFS renumbering.
inline CanonicalDfa canonicalize(const Dfa &D) {
  const uint32_t NumSymbols = D.NumSymbols;
  Dfa M = minimize(D);

  uint32_t N = M.numStates();
  std::vector<bool> Alive(N, false);
  std::vector<std::vector<uint32_t>> Rev(N);
  for (uint32_t S = 0; S < N; ++S)
    for (Sym X = 1; X <= NumSymbols; ++X)
      Rev[M.next(S, X)].push_back(S);
  std::vector<uint32_t> Work;
  for (uint32_t S = 0; S < N; ++S) {
    if (M.Accepting[S]) {
      Alive[S] = true;
      Work.push_back(S);
    }
  }
  while (!Work.empty()) {
    uint32_t S = Work.back();
    Work.pop_back();
    for (uint32_t P : Rev[S]) {
      if (Alive[P])
        continue;
      Alive[P] = true;
      Work.push_back(P);
    }
  }

  CanonicalDfa C;
  C.NumSymbols = NumSymbols;
  if (!Alive[M.Start])
    return C;

  std::vector<uint32_t> NewId(N, CanonicalDfa::NoState);
  std::vector<uint32_t> Order;
  NewId[M.Start] = 0;
  Order.push_back(M.Start);
  for (size_t Head = 0; Head < Order.size(); ++Head) {
    uint32_t S = Order[Head];
    for (Sym X = 1; X <= NumSymbols; ++X) {
      uint32_t To = M.next(S, X);
      if (!Alive[To] || NewId[To] != CanonicalDfa::NoState)
        continue;
      NewId[To] = static_cast<uint32_t>(Order.size());
      Order.push_back(To);
    }
  }

  uint32_t AliveCount = static_cast<uint32_t>(Order.size());
  C.Start = 0;
  C.Table.assign(static_cast<size_t>(AliveCount) * NumSymbols,
                 CanonicalDfa::NoState);
  C.Accepting.assign(AliveCount, 0);
  for (uint32_t S : Order) {
    uint32_t Id = NewId[S];
    C.Accepting[Id] = M.Accepting[S] ? 1 : 0;
    for (Sym X = 1; X <= NumSymbols; ++X) {
      uint32_t To = M.next(S, X);
      if (Alive[To])
        C.Table[static_cast<size_t>(Id) * NumSymbols + (X - 1)] = NewId[To];
    }
  }
  return C;
}

} // namespace cuba::reference

#endif // CUBA_TESTS_REFERENCEFA_H
