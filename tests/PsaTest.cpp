//===-- tests/PsaTest.cpp - Unit tests for pushdown store automata ---------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <tuple>

#include "ReferencePostStar.h"
#include "psa/PAutomaton.h"
#include "psa/PostStar.h"

using namespace cuba;

namespace {

/// The PDS of Fig. 7 (App. C):
///   (q0,s0) -> (q1, s1 s0)
///   (q1,s1) -> (q2, s2 s0)
///   (q2,s2) -> (q0, s1)
///   (q0,s1) -> (q0, eps)
/// Shared states 0..2, symbols s0=1, s1=2, s2=3.
Pds makeFig7() {
  Pds P;
  Sym S0 = P.addSymbol("s0");
  Sym S1 = P.addSymbol("s1");
  Sym S2 = P.addSymbol("s2");
  P.addAction({0, S0, 1, S1, S0, "r1"});
  P.addAction({1, S1, 2, S2, S0, "r2"});
  P.addAction({2, S2, 0, S1, EpsSym, "r3"});
  P.addAction({0, S1, 0, EpsSym, EpsSym, "r4"});
  EXPECT_TRUE(P.freeze(3));
  return P;
}

/// Brute-force explicit reachability from <q | w> (top-first), bounded.
std::vector<std::pair<QState, std::vector<Sym>>>
explicitReach(const Pds &P, QState Q, std::vector<Sym> TopFirst,
              size_t MaxStates, size_t MaxDepth) {
  std::vector<std::pair<QState, std::vector<Sym>>> Out;
  std::vector<std::pair<QState, std::vector<Sym>>> Work;
  auto Seen = [&](QState S, const std::vector<Sym> &W) {
    for (auto &[OQ, OW] : Out)
      if (OQ == S && OW == W)
        return true;
    return false;
  };
  Work.push_back({Q, TopFirst});
  Out.push_back({Q, TopFirst});
  while (!Work.empty() && Out.size() < MaxStates) {
    auto [CQ, CW] = Work.back();
    Work.pop_back();
    Sym Top = CW.empty() ? EpsSym : CW.front();
    for (uint32_t AI : P.actionsFrom(CQ, Top)) {
      const Action &A = P.actions()[AI];
      std::vector<Sym> NW(CW.begin() + (CW.empty() ? 0 : 1), CW.end());
      if (A.Dst1 != EpsSym)
        NW.insert(NW.begin(), A.Dst1);
      if (A.Dst0 != EpsSym)
        NW.insert(NW.begin(), A.Dst0);
      if (NW.size() > MaxDepth)
        continue;
      if (!Seen(A.DstQ, NW)) {
        Out.push_back({A.DstQ, NW});
        Work.push_back({A.DstQ, NW});
      }
    }
  }
  return Out;
}

} // namespace

TEST(PostStar, SingleStateAutomatonAcceptsExactlyThatState) {
  PAutomaton A = singleStateAutomaton(3, 3, 1, {2, 1});
  EXPECT_TRUE(A.accepts(1, {2, 1}));
  EXPECT_FALSE(A.accepts(1, {2}));
  EXPECT_FALSE(A.accepts(1, {2, 1, 1}));
  EXPECT_FALSE(A.accepts(0, {2, 1}));
  EXPECT_FALSE(A.accepts(1, {}));
}

TEST(PostStar, SingleStateAutomatonEmptyStack) {
  PAutomaton A = singleStateAutomaton(2, 3, 0, {});
  EXPECT_TRUE(A.accepts(0, {}));
  EXPECT_FALSE(A.accepts(1, {}));
  EXPECT_FALSE(A.accepts(0, {1}));
}

TEST(PostStar, MatchesExplicitReachabilityOnFig7) {
  Pds P = makeFig7();
  PAutomaton Init = singleStateAutomaton(3, 3, 0, {1}); // <q0 | s0>
  PostStarResult R = postStar(P, Init);
  ASSERT_TRUE(R.Complete);

  // Every explicitly reachable state (depth-bounded) must be accepted.
  auto Reach = explicitReach(P, 0, {1}, 4000, 7);
  EXPECT_GT(Reach.size(), 20u);
  for (auto &[Q, W] : Reach)
    EXPECT_TRUE(R.Automaton.accepts(Q, W))
        << "missing <" << Q << "|...> of size " << W.size();

  // And unreachable states must not be.
  EXPECT_FALSE(R.Automaton.accepts(0, {3}));      // s2 never on top at q0
  EXPECT_FALSE(R.Automaton.accepts(2, {1}));      // q2 always has s2 on top
  EXPECT_FALSE(R.Automaton.accepts(1, {2}));      // q1's s1 sits above s0
}

TEST(PostStar, AcceptsExactlyExplicitSetOnShortWords) {
  // Cross-check acceptance against brute force for all words up to
  // length 4 over the alphabet.
  Pds P = makeFig7();
  PAutomaton Init = singleStateAutomaton(3, 3, 0, {1});
  PostStarResult R = postStar(P, Init);
  ASSERT_TRUE(R.Complete);
  auto Reach = explicitReach(P, 0, {1}, 100000, 8);
  auto InReach = [&](QState Q, const std::vector<Sym> &W) {
    for (auto &[OQ, OW] : Reach)
      if (OQ == Q && OW == W)
        return true;
    return false;
  };
  std::vector<std::vector<Sym>> Words = {{}};
  for (int Len = 0; Len < 4; ++Len) {
    std::vector<std::vector<Sym>> Next;
    for (auto &W : Words)
      for (Sym S = 1; S <= 3; ++S) {
        auto W2 = W;
        W2.push_back(S);
        Next.push_back(W2);
      }
    for (auto &W : Next)
      for (QState Q = 0; Q < 3; ++Q)
        EXPECT_EQ(R.Automaton.accepts(Q, W), InReach(Q, W))
            << "mismatch at q" << Q << " len " << W.size();
    Words = std::move(Next);
  }
}

TEST(PostStar, PopToEmptyStackIsAccepted) {
  // (q0, a) -> (q1, eps): from <q0|a>, <q1|eps> must become reachable.
  Pds P;
  Sym A = P.addSymbol("a");
  P.addAction({0, A, 1, EpsSym, EpsSym, "pop"});
  ASSERT_TRUE(P.freeze(2));
  PAutomaton Init = singleStateAutomaton(2, 1, 0, {A});
  PostStarResult R = postStar(P, Init);
  ASSERT_TRUE(R.Complete);
  EXPECT_TRUE(R.Automaton.accepts(1, {}));
  EXPECT_FALSE(R.Automaton.accepts(0, {}));
}

TEST(PostStar, RespectsStepLimits) {
  Pds P = makeFig7();
  PAutomaton Init = singleStateAutomaton(3, 3, 0, {1});
  ResourceLimits L = ResourceLimits::unlimited();
  L.MaxSteps = 3;
  LimitTracker T(L);
  PostStarResult R = postStar(P, Init, &T);
  EXPECT_FALSE(R.Complete);
}

TEST(PostStar, ShortStackAutomatonShape) {
  // Two symbols, so the bottom marker is 3: the lifted Q x Sigma^{<=1}.
  PAutomaton A = shortStackAutomaton(2, 3);
  for (QState Q = 0; Q < 2; ++Q) {
    EXPECT_TRUE(A.accepts(Q, {3}));
    EXPECT_TRUE(A.accepts(Q, {1, 3}));
    EXPECT_TRUE(A.accepts(Q, {2, 3}));
    EXPECT_FALSE(A.accepts(Q, {}));
    EXPECT_FALSE(A.accepts(Q, {1}));
    EXPECT_FALSE(A.accepts(Q, {1, 1, 3}));
  }
}

TEST(PAutomaton, TopSymbolsBasic) {
  // Language from q0: { a b, eps }; tops = {eps, a}.
  PAutomaton A(1, 2);
  uint32_t M = A.addState();
  uint32_t F = A.addState();
  A.setAccepting(F);
  A.addEdge(0, 1, M);
  A.addEdge(M, 2, F);
  A.setAccepting(0);
  auto Tops = A.topSymbols(0);
  EXPECT_EQ(Tops, (std::vector<Sym>{EpsSym, 1}));
}

TEST(PAutomaton, TopSymbolsSkipsDeadEdges) {
  // An edge into a state that cannot reach acceptance contributes no top.
  PAutomaton A(1, 2);
  uint32_t Dead = A.addState();
  uint32_t F = A.addState();
  A.setAccepting(F);
  A.addEdge(0, 1, Dead);
  A.addEdge(0, 2, F);
  EXPECT_EQ(A.topSymbols(0), (std::vector<Sym>{2}));
}

TEST(PAutomaton, TopSymbolsThroughEpsilon) {
  // q0 --eps--> m --a--> f: the top is a, discovered through the
  // epsilon closure; and q0 --eps--> f' makes eps a top too.
  PAutomaton A(1, 1);
  uint32_t M = A.addState();
  uint32_t F = A.addState();
  A.setAccepting(F);
  A.addEdge(0, EpsSym, M);
  A.addEdge(M, 1, F);
  EXPECT_EQ(A.topSymbols(0), (std::vector<Sym>{1}));
  A.addEdge(M, EpsSym, F);
  EXPECT_EQ(A.topSymbols(0), (std::vector<Sym>{EpsSym, 1}));
}

TEST(PAutomaton, TopSymbolsBottomMarkerMapsToEps) {
  // Words end in the bottom marker 3: a stack holding just the marker is
  // the empty original stack.
  PAutomaton A(1, 3);
  uint32_t M = A.addState();
  uint32_t F = A.addState();
  A.setAccepting(F);
  A.addEdge(0, 3, F); // <q0 | _bot>
  A.addEdge(0, 1, M); // <q0 | a _bot>
  A.addEdge(M, 3, F);
  EXPECT_EQ(A.topSymbols(0, /*TreatAsEps=*/3),
            (std::vector<Sym>{EpsSym, 1}));
}

TEST(BottomTransform, LiftsRulesAndStacks) {
  // The built-in marker: the empty-stack column read on bottom(), each
  // rule exactly as the classical transform (the reference copy)
  // rewrites it.
  Pds P;
  Sym A = P.addSymbol("a");
  P.addAction({0, EpsSym, 1, EpsSym, EpsSym, "ec"});
  P.addAction({0, EpsSym, 0, A, EpsSym, "ep"});
  P.addAction({1, A, 0, EpsSym, EpsSym, "pop"});
  ASSERT_TRUE(P.freeze(2));
  EXPECT_EQ(P.bottom(), 2u);
  auto Col = P.rulesOn(0, P.bottom());
  EXPECT_EQ(std::vector<uint32_t>(Col.begin(), Col.end()),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(P.rulesOn(1, P.bottom()).empty());
  EXPECT_EQ(P.rulesOn(1, A).size(), 1u);
  // (0,eps)->(1,eps) reads as (0,_bot)->(1,_bot).
  EXPECT_EQ(P.liftedAction(0).SrcSym, P.bottom());
  EXPECT_EQ(P.liftedAction(0).Dst0, P.bottom());
  EXPECT_EQ(P.liftedAction(0).kind(), ActionKind::Overwrite);
  // (0,eps)->(0,a) reads as (0,_bot)->(0, a _bot).
  EXPECT_EQ(P.liftedAction(1).kind(), ActionKind::Push);
  EXPECT_EQ(P.liftedAction(1).Dst0, A);
  EXPECT_EQ(P.liftedAction(1).Dst1, P.bottom());
  // Ordinary rules are untouched.
  EXPECT_EQ(P.liftedAction(2).kind(), ActionKind::Pop);

  reference::BottomedPds B = reference::eliminateEmptyStackRules(P, 2);
  EXPECT_EQ(B.P.numSymbols(), 2u);
  EXPECT_EQ(B.Bottom, P.bottom());
  ASSERT_EQ(B.P.actions().size(), P.actions().size());
  for (uint32_t I = 0; I < P.actions().size(); ++I) {
    Action L = P.liftedAction(I), R = B.P.actions()[I];
    EXPECT_EQ(std::tie(L.SrcQ, L.SrcSym, L.DstQ, L.Dst0, L.Dst1),
              std::tie(R.SrcQ, R.SrcSym, R.DstQ, R.Dst0, R.Dst1));
    EXPECT_EQ(B.P.label(I), P.label(I));
  }

  Stack W = {A}; // Top at back.
  Stack Lifted = B.lift(W);
  ASSERT_EQ(Lifted.size(), 2u);
  EXPECT_EQ(Lifted.front(), P.bottom());
  EXPECT_EQ(Lifted.back(), A);
}

TEST(BottomTransform, PostStarOnTransformedSystemTracksEmptyStackRuns) {
  // Original: <q0|eps> -ep-> <q0|a> -pop-> <q1|eps> -ec'...  Build:
  //   (0,eps)->(0,a); (0,a)->(1,eps); (1,eps)->(0,eps)
  // and saturate it in place from the lifted <q0 | _bot>.
  Pds P;
  Sym A = P.addSymbol("a");
  P.addAction({0, EpsSym, 0, A, EpsSym, "ep"});
  P.addAction({0, A, 1, EpsSym, EpsSym, "pop"});
  P.addAction({1, EpsSym, 0, EpsSym, EpsSym, "ec"});
  ASSERT_TRUE(P.freeze(2));
  Sym Bot = P.bottom();

  PAutomaton Init = singleStateAutomaton(2, Bot, 0, {Bot});
  PostStarResult R = postStar(P, Init);
  ASSERT_TRUE(R.Complete);
  // <q0 | _bot>, <q0 | a _bot>, <q1 | _bot> all reachable; the lifted
  // system loops forever between them.
  EXPECT_TRUE(R.Automaton.accepts(0, {Bot}));
  EXPECT_TRUE(R.Automaton.accepts(0, {A, Bot}));
  EXPECT_TRUE(R.Automaton.accepts(1, {Bot}));
  EXPECT_FALSE(R.Automaton.accepts(1, {A, Bot}));
  // Finiteness: the language is finite here.
  Nfa L = R.Automaton.rootedNfa({0, 1});
  EXPECT_TRUE(L.isLanguageFinite());

  // Without the marker in the input the empty-stack rules never fire.
  PostStarResult NoBot = postStar(P, singleStateAutomaton(2, Bot, 0, {A}));
  EXPECT_TRUE(NoBot.Automaton.accepts(1, {}));
  EXPECT_FALSE(NoBot.Automaton.accepts(0, {}));
}

TEST(PostStar, UnboundedGrowthYieldsInfiniteLanguage) {
  // (q0,a)->(q0, a a): pumps the stack solo; language must be infinite.
  Pds P;
  Sym A = P.addSymbol("a");
  P.addAction({0, A, 0, A, A, "pump"});
  ASSERT_TRUE(P.freeze(1));
  PAutomaton Init = singleStateAutomaton(1, 1, 0, {A});
  PostStarResult R = postStar(P, Init);
  ASSERT_TRUE(R.Complete);
  EXPECT_TRUE(R.Automaton.accepts(0, {A}));
  EXPECT_TRUE(R.Automaton.accepts(0, {A, A, A, A}));
  Nfa L = R.Automaton.rootedNfa({0});
  EXPECT_FALSE(L.isLanguageFinite());
}
