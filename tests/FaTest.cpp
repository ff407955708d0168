//===-- tests/FaTest.cpp - Unit tests for the finite-automata library ------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "fa/Canonicalize.h"
#include "fa/Nfa.h"

using namespace cuba;

namespace {

/// a(b)*: accepts "a", "ab", "abb", ...
Nfa makeAB() {
  Nfa A(2); // symbols 1 = a, 2 = b
  uint32_t S0 = A.addState();
  uint32_t S1 = A.addState();
  A.setInitial(S0);
  A.setAccepting(S1);
  A.addEdge(S0, 1, S1);
  A.addEdge(S1, 2, S1);
  return A;
}

} // namespace

TEST(Nfa, AcceptsBasic) {
  Nfa A = makeAB();
  EXPECT_TRUE(A.accepts({1}));
  EXPECT_TRUE(A.accepts({1, 2, 2}));
  EXPECT_FALSE(A.accepts({}));
  EXPECT_FALSE(A.accepts({2}));
  EXPECT_FALSE(A.accepts({1, 1}));
}

TEST(Nfa, EpsilonClosureAndAcceptance) {
  Nfa A(1);
  uint32_t S0 = A.addState();
  uint32_t S1 = A.addState();
  uint32_t S2 = A.addState();
  A.setInitial(S0);
  A.setAccepting(S2);
  A.addEdge(S0, EpsSym, S1);
  A.addEdge(S1, 1, S2);
  A.addEdge(S2, EpsSym, S0);
  EXPECT_TRUE(A.accepts({1}));
  EXPECT_TRUE(A.accepts({1, 1}));
  EXPECT_FALSE(A.accepts({}));

  std::vector<uint32_t> C = {S0};
  A.epsilonClosure(C);
  EXPECT_EQ(C, (std::vector<uint32_t>{S0, S1}));
}

TEST(Nfa, EmptinessAndUsefulStates) {
  Nfa A(1);
  uint32_t S0 = A.addState();
  uint32_t S1 = A.addState();
  uint32_t S2 = A.addState(); // Accepting but unreachable.
  A.setInitial(S0);
  A.addEdge(S0, 1, S1);
  A.setAccepting(S2);
  EXPECT_TRUE(A.isLanguageEmpty());
  EXPECT_TRUE(A.usefulStates().empty());
  A.addEdge(S1, 1, S2);
  EXPECT_FALSE(A.isLanguageEmpty());
  EXPECT_EQ(A.usefulStates().size(), 3u);
}

TEST(Nfa, FinitenessDetectsPumpableCycle) {
  Nfa A = makeAB(); // b-loop on an accepting state: infinite.
  EXPECT_FALSE(A.isLanguageFinite());
}

TEST(Nfa, FinitenessOfAcyclicAutomaton) {
  Nfa A(2);
  uint32_t S0 = A.addState(), S1 = A.addState(), S2 = A.addState();
  A.setInitial(S0);
  A.setAccepting(S2);
  A.addEdge(S0, 1, S1);
  A.addEdge(S1, 2, S2);
  A.addEdge(S0, 2, S2);
  EXPECT_TRUE(A.isLanguageFinite());
}

TEST(Nfa, FinitenessIgnoresEpsilonOnlyCycles) {
  // Two states in an epsilon cycle plus one symbol edge to acceptance:
  // the language is just {a}, finite, despite the graph cycle.
  Nfa A(1);
  uint32_t S0 = A.addState(), S1 = A.addState(), S2 = A.addState();
  A.setInitial(S0);
  A.setAccepting(S2);
  A.addEdge(S0, EpsSym, S1);
  A.addEdge(S1, EpsSym, S0);
  A.addEdge(S1, 1, S2);
  EXPECT_TRUE(A.isLanguageFinite());
}

TEST(Nfa, FinitenessIgnoresUselessCycles) {
  // A pumpable cycle that cannot reach acceptance does not count.
  Nfa A(1);
  uint32_t S0 = A.addState(), S1 = A.addState(), Dead = A.addState();
  A.setInitial(S0);
  A.setAccepting(S1);
  A.addEdge(S0, 1, S1);
  A.addEdge(S0, 1, Dead);
  A.addEdge(Dead, 1, Dead);
  EXPECT_TRUE(A.isLanguageFinite());
}

TEST(Dfa, CanonicalFormEqualityIsLanguageEquality) {
  // Two structurally different NFAs for the same language a(b)*.
  Nfa A = makeAB();
  Nfa B(2);
  uint32_t T0 = B.addState(), T1 = B.addState(), T2 = B.addState();
  B.setInitial(T0);
  B.setAccepting(T1);
  B.setAccepting(T2);
  B.addEdge(T0, 1, T1);
  B.addEdge(T1, 2, T2);
  B.addEdge(T2, 2, T2);
  CanonicalDfa CA = canonicalizeNfa(A);
  CanonicalDfa CB = canonicalizeNfa(B);
  EXPECT_EQ(CA, CB);
  EXPECT_EQ(CA.hash(), CB.hash());

  // And a genuinely different language: a(b)* plus the empty word.
  Nfa C2 = makeAB();
  // Re-build with accepting initial state.
  Nfa C3(2);
  uint32_t U0 = C3.addState(), U1 = C3.addState();
  C3.setInitial(U0);
  C3.setAccepting(U0);
  C3.setAccepting(U1);
  C3.addEdge(U0, 1, U1);
  C3.addEdge(U1, 2, U1);
  EXPECT_NE(canonicalizeNfa(C2), canonicalizeNfa(C3));
}

TEST(Dfa, CanonicalEmptyLanguage) {
  Nfa A(3);
  uint32_t S0 = A.addState();
  A.setInitial(S0); // No accepting states at all.
  CanonicalDfa C = canonicalizeNfa(A);
  EXPECT_EQ(C.Start, CanonicalDfa::NoState);
  EXPECT_EQ(C.numStates(), 0u);

  Nfa B(3);
  uint32_t T0 = B.addState();
  uint32_t T1 = B.addState();
  B.setInitial(T0);
  B.setAccepting(T1); // Accepting but unreachable.
  EXPECT_EQ(canonicalizeNfa(B), C);
}

TEST(Dfa, CanonicalEpsilonOnlyLanguage) {
  Nfa A(2);
  uint32_t S0 = A.addState();
  A.setInitial(S0);
  A.setAccepting(S0);
  CanonicalDfa C = canonicalizeNfa(A);
  EXPECT_EQ(C.numStates(), 1u);
  EXPECT_EQ(C.Start, 0u);
  EXPECT_TRUE(C.Accepting[0]);
  // No outgoing transitions survive dead-state elimination.
  for (uint32_t X = 0; X < C.NumSymbols; ++X)
    EXPECT_EQ(C.Table[X], CanonicalDfa::NoState);
}

//===----------------------------------------------------------------------===//
// Property-style sweep: canonicalisation is sound and complete on a
// family of small regular languages L(i, j) = { a^i b^j' : j' <= j }.
//===----------------------------------------------------------------------===//

namespace {

Nfa makeAiBj(unsigned I, unsigned J, bool Padded) {
  Nfa A(2);
  uint32_t Cur = A.addState();
  A.setInitial(Cur);
  for (unsigned K = 0; K < I; ++K) {
    uint32_t Next = A.addState();
    A.addEdge(Cur, 1, Next);
    Cur = Next;
  }
  A.setAccepting(Cur);
  for (unsigned K = 0; K < J; ++K) {
    uint32_t Next = A.addState();
    A.addEdge(Cur, 2, Next);
    A.setAccepting(Next);
    Cur = Next;
  }
  if (Padded) {
    // Extra useless structure that must not affect the canonical form.
    uint32_t Dead = A.addState();
    A.addEdge(Dead, 1, Dead);
    uint32_t Eps = A.addState();
    A.addEdge(0, EpsSym, Eps);
    A.addEdge(Eps, EpsSym, 0);
  }
  return A;
}

} // namespace

class CanonicalSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(CanonicalSweep, PaddedAndPlainAgree) {
  auto [I, J] = GetParam();
  CanonicalDfa Plain = canonicalizeNfa(makeAiBj(I, J, false));
  CanonicalDfa Pad = canonicalizeNfa(makeAiBj(I, J, true));
  EXPECT_EQ(Plain, Pad);
}

TEST_P(CanonicalSweep, DistinctLanguagesDiffer) {
  auto [I, J] = GetParam();
  CanonicalDfa C = canonicalizeNfa(makeAiBj(I, J, false));
  CanonicalDfa Other = canonicalizeNfa(makeAiBj(I + 1, J, false));
  EXPECT_NE(C, Other);
}

INSTANTIATE_TEST_SUITE_P(SmallLanguages, CanonicalSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 4)));
