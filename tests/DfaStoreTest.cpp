//===-- tests/DfaStoreTest.cpp - Canonical-DFA interning tests -------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the hash-consed canonical-DFA arena (fa/DfaStore.h),
/// mirroring the structure of StackStoreTest.cpp for the stack arena:
/// interning canonicity (same language => same id), id stability under
/// arena growth, and probe-table rehash parity.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "fa/Canonicalize.h"
#include "fa/DfaStore.h"
#include "fa/Nfa.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using cuba::testing::SplitMix64;

namespace {

/// The canonical form of the single-word language {Word} over
/// \p NumSymbols symbols.
CanonicalDfa wordLanguage(uint32_t NumSymbols, const std::vector<Sym> &Word) {
  Nfa A(NumSymbols);
  uint32_t Cur = A.addState();
  A.setInitial(Cur);
  for (Sym S : Word) {
    uint32_t Next = A.addState();
    A.addEdge(Cur, S, Next);
    Cur = Next;
  }
  A.setAccepting(Cur);
  return canonicalizeNfa(A);
}

/// a(b)* built two structurally different ways (same language).
CanonicalDfa abStarVariantA() {
  Nfa A(2);
  uint32_t S0 = A.addState(), S1 = A.addState();
  A.setInitial(S0);
  A.setAccepting(S1);
  A.addEdge(S0, 1, S1);
  A.addEdge(S1, 2, S1);
  return canonicalizeNfa(A);
}

CanonicalDfa abStarVariantB() {
  Nfa B(2);
  uint32_t T0 = B.addState(), T1 = B.addState(), T2 = B.addState();
  B.setInitial(T0);
  B.setAccepting(T1);
  B.setAccepting(T2);
  B.addEdge(T0, 1, T1);
  B.addEdge(T1, 2, T2);
  B.addEdge(T2, 2, T2);
  return canonicalizeNfa(B);
}

} // namespace

TEST(DfaStore, InterningIsCanonical) {
  DfaStore Store;
  // The same language reached through different constructions is the
  // same id.
  DfaId A = Store.intern(abStarVariantA());
  DfaId B = Store.intern(abStarVariantB());
  EXPECT_EQ(A, B);
  EXPECT_EQ(Store.size(), 1u);

  // Distinct languages intern distinctly.
  DfaId W1 = Store.intern(wordLanguage(2, {1}));
  DfaId W2 = Store.intern(wordLanguage(2, {2}));
  DfaId W12 = Store.intern(wordLanguage(2, {1, 2}));
  EXPECT_NE(W1, W2);
  EXPECT_NE(W1, W12);
  EXPECT_NE(A, W1);
  EXPECT_EQ(Store.size(), 4u);

  // Re-interning returns the original ids, not twins.
  EXPECT_EQ(Store.intern(wordLanguage(2, {1})), W1);
  EXPECT_EQ(Store.intern(abStarVariantB()), A);
  EXPECT_EQ(Store.size(), 4u);
}

TEST(DfaStore, GetAndHashRoundTrip) {
  DfaStore Store;
  CanonicalDfa C = abStarVariantA();
  uint64_t H = C.hash();
  DfaId Id = Store.intern(C); // Copy interned; C stays comparable.
  EXPECT_EQ(Store.get(Id), C);
  EXPECT_EQ(Store.hashOf(Id), H);
  EXPECT_EQ(Store.get(Id).hash(), Store.hashOf(Id));
}

TEST(DfaStore, EmptyLanguageInterns) {
  DfaStore Store;
  Nfa A(3);
  A.setInitial(A.addState()); // No accepting state: empty language.
  DfaId Empty = Store.intern(canonicalizeNfa(A));
  EXPECT_EQ(Store.get(Empty).Start, CanonicalDfa::NoState);
  EXPECT_EQ(Store.get(Empty).numStates(), 0u);
  // A second empty-language automaton over the same alphabet dedups.
  Nfa B(3);
  uint32_t T0 = B.addState(), T1 = B.addState();
  B.setInitial(T0);
  B.setAccepting(T1); // Accepting but unreachable.
  EXPECT_EQ(Store.intern(canonicalizeNfa(B)), Empty);
  EXPECT_EQ(Store.size(), 1u);
}

TEST(DfaStore, IdsStableUnderGrowth) {
  DfaStore Store;
  // Record early ids and their canonical forms, force the arena and its
  // probe table through many growth rounds (the single-word languages
  // below are pairwise distinct), then verify the early ids still name
  // the same languages and re-intern to themselves.
  std::vector<std::pair<DfaId, CanonicalDfa>> Early;
  for (Sym X = 1; X <= 8; ++X) {
    CanonicalDfa C = wordLanguage(9, {X});
    Early.emplace_back(Store.intern(C), std::move(C));
  }
  SplitMix64 Rng(42);
  for (int I = 0; I < 3000; ++I) {
    std::vector<Sym> Word;
    unsigned Len = static_cast<unsigned>(Rng.range(2, 5));
    for (unsigned D = 0; D < Len; ++D)
      Word.push_back(static_cast<Sym>(Rng.range(1, 9)));
    Store.intern(wordLanguage(9, Word));
  }
  ASSERT_GT(Store.size(), 1000u) << "growth was not exercised";
  for (const auto &[Id, C] : Early) {
    EXPECT_EQ(Store.get(Id), C);
    EXPECT_EQ(Store.intern(C), Id) << "rehash broke interning parity";
  }
}

TEST(DfaStore, DenseIdsCountFromZero) {
  DfaStore Store;
  EXPECT_EQ(Store.size(), 0u);
  DfaId First = Store.intern(wordLanguage(1, {}));
  DfaId Second = Store.intern(wordLanguage(1, {1}));
  EXPECT_EQ(First, 0u);
  EXPECT_EQ(Second, 1u);
}
