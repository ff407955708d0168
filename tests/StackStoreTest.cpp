//===-- tests/StackStoreTest.cpp - Stack interning tests -------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the hash-consed stack arena (pds/StackStore.h) and the
/// packed visible-state sets built on top of it (pds/VisibleSet.h).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "pds/StackStore.h"
#include "pds/VisibleSet.h"
#include "support/StateRows.h"

using namespace cuba;

//===----------------------------------------------------------------------===//
// StackStore
//===----------------------------------------------------------------------===//

TEST(StackStore, EmptyStack) {
  StackStore S;
  EXPECT_EQ(S.topOf(EmptyStackId), EpsSym);
  EXPECT_EQ(S.depth(EmptyStackId), 0u);
  EXPECT_TRUE(S.materialise(EmptyStackId).empty());
  EXPECT_EQ(S.intern({}), EmptyStackId);
}

TEST(StackStore, InterningIsCanonical) {
  StackStore S;
  // The same stack reached along different derivations is the same id.
  StackId A = S.push(S.push(EmptyStackId, 1), 2);
  StackId B = S.intern({1, 2}); // Bottom-first: 2 is the top.
  EXPECT_EQ(A, B);
  // Pushing then popping returns the original id, not a twin.
  EXPECT_EQ(S.pop(S.push(A, 3)), A);
  // Distinct stacks intern distinctly.
  EXPECT_NE(S.intern({1}), S.intern({2}));
  EXPECT_NE(S.intern({1, 2}), S.intern({2, 1}));
}

TEST(StackStore, PushPopRoundTrip) {
  StackStore S;
  StackId W = EmptyStackId;
  for (Sym X = 1; X <= 40; ++X) {
    W = S.push(W, X);
    EXPECT_EQ(S.topOf(W), X);
    EXPECT_EQ(S.depth(W), X);
  }
  Stack Full = S.materialise(W);
  ASSERT_EQ(Full.size(), 40u);
  for (Sym X = 1; X <= 40; ++X)
    EXPECT_EQ(Full[X - 1], X); // Bottom-first storage.
  for (Sym X = 40; X >= 1; --X) {
    EXPECT_EQ(S.topOf(W), X);
    W = S.pop(W);
  }
  EXPECT_EQ(W, EmptyStackId);
}

TEST(StackStore, IdsStableUnderGrowth) {
  StackStore S;
  // Record early ids, force the intern table through many growth
  // rounds, then verify the early ids still name the same stacks.
  std::vector<StackId> Early;
  for (Sym X = 1; X <= 8; ++X)
    Early.push_back(S.intern({X}));
  std::mt19937 Rng(42);
  for (int I = 0; I < 20'000; ++I) {
    Stack W;
    for (int D = 0; D < 6; ++D)
      W.push_back(1 + Rng() % 1000);
    S.intern(W);
  }
  for (Sym X = 1; X <= 8; ++X) {
    EXPECT_EQ(S.materialise(Early[X - 1]), Stack{X});
    EXPECT_EQ(S.intern({X}), Early[X - 1]);
  }
}

TEST(StackStore, PrefixSharing) {
  StackStore S;
  size_t Before = S.size();
  StackId W = S.intern({1, 2, 3, 4, 5, 6, 7, 8});
  size_t AfterFirst = S.size();
  EXPECT_EQ(AfterFirst - Before, 8u);
  // A sibling stack differing in the top shares all 7 suffix nodes.
  S.push(S.pop(W), 9);
  EXPECT_EQ(S.size(), AfterFirst + 1);
}

TEST(StackStore, PackUnpackGlobalState) {
  StackStore S;
  GlobalState G;
  G.Q = 3;
  G.Stacks = {{1, 2}, {}, {5}};
  uint32_t P[4];
  packRow(G, S, P);
  EXPECT_EQ(P[0], 3u);
  EXPECT_EQ(S.topOf(P[1]), 2u);
  EXPECT_EQ(P[2], EmptyStackId);
  EXPECT_EQ(S.topOf(P[3]), 5u);
  GlobalState Back = unpackRow(P, 3, S);
  EXPECT_EQ(Back, G);

  // Equal states pack to equal rows with equal hashes.
  uint32_t P2[4];
  packRow(G, S, P2);
  EXPECT_TRUE(std::equal(P, P + 4, P2));
  EXPECT_EQ(StateRows::hashRow(P, 4), StateRows::hashRow(P2, 4));
}

//===----------------------------------------------------------------------===//
// VisiblePacker / VisibleRoundSet
//===----------------------------------------------------------------------===//

namespace {

/// A tiny frozen CPDS with Q = {0..4} and two threads of 3 / 6 symbols.
Cpds makeCpds() {
  Cpds C;
  for (int Q = 0; Q < 5; ++Q)
    C.addSharedState("q" + std::to_string(Q));
  unsigned T0 = C.addThread("t0");
  unsigned T1 = C.addThread("t1");
  for (int X = 0; X < 3; ++X)
    C.thread(T0).addSymbol("a" + std::to_string(X));
  for (int X = 0; X < 6; ++X)
    C.thread(T1).addSymbol("b" + std::to_string(X));
  EXPECT_TRUE(bool(C.freeze()));
  return C;
}

} // namespace

TEST(VisiblePacker, RoundTripAllStates) {
  Cpds C = makeCpds();
  VisiblePacker P(C);
  ASSERT_TRUE(P.packable());
  for (QState Q = 0; Q < 5; ++Q)
    for (Sym A = 0; A <= 3; ++A)
      for (Sym B = 0; B <= 6; ++B) {
        VisibleState V;
        V.Q = Q;
        V.Tops = {A, B};
        EXPECT_EQ(P.unpack(P.pack(V)), V);
      }
}

TEST(VisiblePacker, PackingPreservesOrder) {
  // The round-difference APIs promise VisibleState-sorted output; the
  // packed representation sorts as raw words, so packing must be
  // monotone in the (Q, Tops) lexicographic order.
  Cpds C = makeCpds();
  VisiblePacker P(C);
  std::vector<VisibleState> All;
  for (QState Q = 0; Q < 5; ++Q)
    for (Sym A = 0; A <= 3; ++A)
      for (Sym B = 0; B <= 6; ++B) {
        VisibleState V;
        V.Q = Q;
        V.Tops = {A, B};
        All.push_back(V);
      }
  std::mt19937 Rng(1);
  std::shuffle(All.begin(), All.end(), Rng);
  std::vector<std::pair<uint64_t, VisibleState>> Packed;
  for (const VisibleState &V : All)
    Packed.emplace_back(P.pack(V), V);
  std::sort(Packed.begin(), Packed.end(),
            [](const auto &X, const auto &Y) { return X.first < Y.first; });
  std::sort(All.begin(), All.end());
  for (size_t I = 0; I < All.size(); ++I)
    EXPECT_EQ(Packed[I].second, All[I]) << "order diverges at " << I;
}

TEST(VisiblePacker, FieldShiftsRewriteOneField) {
  // Z's packed exploration derives a successor by rewriting the Q field
  // and one top field of its source word in place; that must equal
  // packing the rewritten state.
  Cpds C = makeCpds();
  VisiblePacker P(C);
  const uint64_t BelowQ = (uint64_t(1) << P.sharedShift()) - 1;
  for (QState Q = 0; Q < 5; ++Q)
    for (Sym A = 0; A <= 3; ++A)
      for (Sym B = 0; B <= 6; ++B) {
        VisibleState V;
        V.Q = Q;
        V.Tops = {A, B};
        uint64_t W = P.pack(V);
        Sym Tops[2];
        EXPECT_EQ(P.unpack(W, Tops), Q);
        EXPECT_EQ(Tops[0], A);
        EXPECT_EQ(Tops[1], B);
        for (unsigned I = 0; I < 2; ++I) {
          VisibleState Succ = V;
          Succ.Q = 4 - Q;
          Succ.Tops[I] = (I == 0 ? 3 : 6) - V.Tops[I];
          uint64_t Rewritten = (W & BelowQ & ~P.topMask(I)) |
                               uint64_t(Succ.Q) << P.sharedShift() |
                               uint64_t(Succ.Tops[I]) << P.topShift(I);
          EXPECT_EQ(Rewritten, P.pack(Succ));
        }
      }
}

TEST(VisibleRoundSet, KeepsEarliestRoundAndSortsPerRound) {
  Cpds C = makeCpds();
  VisibleRoundSet S(C);
  auto Vs = [](QState Q, Sym A, Sym B) {
    VisibleState V;
    V.Q = Q;
    V.Tops = {A, B};
    return V;
  };
  S.insert(Vs(1, 0, 2), 0);
  S.insert(Vs(0, 1, 1), 1);
  S.insert(Vs(2, 3, 0), 1);
  S.insert(Vs(1, 0, 2), 1); // Re-insertion: round 0 must win.
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(Vs(1, 0, 2)));
  EXPECT_FALSE(S.contains(Vs(1, 0, 3)));

  EXPECT_EQ(S.statesInRound(0), std::vector<VisibleState>{Vs(1, 0, 2)});
  std::vector<VisibleState> Round1 = {Vs(0, 1, 1), Vs(2, 3, 0)};
  EXPECT_EQ(S.statesInRound(1), Round1);
  EXPECT_TRUE(S.statesInRound(2).empty());

  // The latest round is served from its own list, an older one by a
  // scan: both must see exactly the first insertions.
  const VisiblePacker &P = S.packer();
  ASSERT_TRUE(P.packable());
  S.insertPackedBatch({P.pack(Vs(2, 0, 0)), P.pack(Vs(0, 1, 1)),
                       P.pack(Vs(0, 0, 0)), P.pack(Vs(2, 0, 0))},
                      2);
  std::vector<VisibleState> Round2 = {Vs(0, 0, 0), Vs(2, 0, 0)};
  EXPECT_EQ(S.statesInRound(2), Round2);
  EXPECT_EQ(S.statesInRound(1), Round1);
  S.insert(Vs(2, 3, 3), 1); // A late first insertion into an older round.
  EXPECT_EQ(S.statesInRound(2), Round2);
  EXPECT_EQ(S.statesInRound(1).size(), 3u);
  EXPECT_EQ(S.size(), 6u);

  auto Entries = S.sortedEntries();
  ASSERT_EQ(Entries.size(), 6u);
  EXPECT_TRUE(std::is_sorted(
      Entries.begin(), Entries.end(),
      [](const auto &X, const auto &Y) { return X.first < Y.first; }));
  for (const auto &[V, Round] : Entries) {
    if (V == Vs(1, 0, 2)) {
      EXPECT_EQ(Round, 0u);
    }
  }
}
