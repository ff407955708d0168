//===-- tests/CoreExplicitTest.cpp - Tests for the explicit engines --------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
// These tests pin the implementation to the paper's own worked examples:
// the Fig. 1 reachability table, the Z set of Ex. 13 / Fig. 3, the
// generator set of Ex. 14, the Alg. 3 convergence bound k0 = 5, and the
// FCR verdicts of Fig. 4.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bp/Translate.h"
#include "core/Algorithms.h"
#include "core/CbaEngine.h"
#include "core/CubaDriver.h"
#include "core/FcrCheck.h"
#include "core/Generators.h"
#include "core/ObservationSequence.h"
#include "core/SymbolicEngine.h"
#include "core/ZOverapprox.h"
#include "exec/ThreadPool.h"
#include "models/Models.h"
#include "obs/Trace.h"
#include "pds/CpdsIO.h"
#include "pds/ThreadSymmetry.h"
#include "pds/VisibleSet.h"
#include "testing/RandomCpds.h"

#include "DetTrace.h"

using namespace cuba;
using cuba::testing::stripTrace;

namespace {

/// Builds a VisibleState from symbol names ("eps" for the empty stack).
VisibleState vs(const Cpds &C, std::string_view Shared,
                std::vector<std::string> Tops) {
  VisibleState V;
  V.Q = C.sharedStateByName(Shared);
  EXPECT_NE(V.Q, UINT32_MAX) << "unknown shared state " << Shared;
  for (unsigned I = 0; I < Tops.size(); ++I)
    V.Tops.push_back(Tops[I] == "eps" ? EpsSym
                                      : C.thread(I).symbolByName(Tops[I]));
  return V;
}

RunOptions fastOptions(unsigned MaxK = 24) {
  RunOptions O;
  O.Limits = ResourceLimits::unlimited();
  O.Limits.MaxContexts = MaxK;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// ObservationTracker
//===----------------------------------------------------------------------===//

TEST(ObservationTracker, PlateauDetection) {
  ObservationTracker T;
  for (size_t S : {1u, 3u, 6u, 6u, 7u, 8u, 8u})
    T.record(S);
  EXPECT_FALSE(T.plateausAt(0));
  EXPECT_FALSE(T.plateausAt(1));
  EXPECT_TRUE(T.plateausAt(2));
  EXPECT_FALSE(T.plateausAt(3));
  EXPECT_FALSE(T.plateausAt(4));
  EXPECT_TRUE(T.plateausAt(5));
  EXPECT_TRUE(T.plateauAtLatest());
  EXPECT_TRUE(T.newPlateauAtLatest()); // |O_4| < |O_5| = |O_6|.
}

TEST(ObservationTracker, NewPlateauRequiresGrowthBefore) {
  ObservationTracker T;
  T.record(4);
  T.record(4);
  T.record(4);
  // Plateau at k=2 is not *new* (already equal at k=1).
  EXPECT_TRUE(T.plateauAtLatest());
  EXPECT_FALSE(T.newPlateauAtLatest());
}

TEST(ObservationTracker, FirstPlateauIsNew) {
  ObservationTracker T;
  T.record(1);
  T.record(1);
  EXPECT_TRUE(T.newPlateauAtLatest());
}

//===----------------------------------------------------------------------===//
// The Fig. 1 reachability table
//===----------------------------------------------------------------------===//

TEST(CbaEngine, Fig1ReachabilityTableMatchesPaper) {
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  CbaEngine E(C, ResourceLimits::unlimited());

  // |R_k| for k = 0..6 and |T(R_k)|, as derivable from Fig. 1 (right).
  const size_t RSizes[] = {1, 3, 6, 8, 11, 14, 17};
  const size_t TSizes[] = {1, 3, 6, 6, 7, 8, 8};
  EXPECT_EQ(E.reachedSize(), RSizes[0]);
  EXPECT_EQ(E.visibleSize(), TSizes[0]);
  for (unsigned K = 1; K <= 6; ++K) {
    ASSERT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
    EXPECT_EQ(E.reachedSize(), RSizes[K]) << "at k=" << K;
    EXPECT_EQ(E.visibleSize(), TSizes[K]) << "at k=" << K;
  }
}

TEST(CbaEngine, Fig1NewVisibleStatesPerRound) {
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  CbaEngine E(C, ResourceLimits::unlimited());

  using VV = std::vector<VisibleState>;
  auto Sorted = [](VV V) {
    std::sort(V.begin(), V.end());
    return V;
  };

  EXPECT_EQ(E.newVisibleThisRound(), Sorted({vs(C, "0", {"1", "4"})}));
  ASSERT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
  EXPECT_EQ(E.newVisibleThisRound(),
            Sorted({vs(C, "1", {"2", "4"}), vs(C, "0", {"1", "eps"})}));
  ASSERT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
  EXPECT_EQ(E.newVisibleThisRound(),
            Sorted({vs(C, "2", {"2", "5"}), vs(C, "3", {"2", "4"}),
                    vs(C, "1", {"2", "eps"})}));
  ASSERT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
  EXPECT_TRUE(E.newVisibleThisRound().empty()); // The k=3 plateau.
  ASSERT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
  EXPECT_EQ(E.newVisibleThisRound(), Sorted({vs(C, "0", {"1", "6"})}));
  ASSERT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
  EXPECT_EQ(E.newVisibleThisRound(), Sorted({vs(C, "1", {"2", "6"})}));
  ASSERT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
  EXPECT_TRUE(E.newVisibleThisRound().empty()); // Converged (k0 = 5).
}

TEST(CbaEngine, Fig1GlobalStatesOfRound2) {
  // Spot-check actual states, not just counts: R_2 \ R_1 from Fig. 1.
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  CbaEngine E(C, ResourceLimits::unlimited());
  E.advance();
  E.advance();
  std::vector<std::string> Got;
  for (const GlobalState &S : E.frontier())
    Got.push_back(toString(C, S));
  std::sort(Got.begin(), Got.end());
  std::vector<std::string> Want = {"<1 | 2, eps>", "<2 | 2, 5>",
                                   "<3 | 2, 4 6>"};
  EXPECT_EQ(Got, Want);
}

TEST(CbaEngine, ExpandAllProducesIdenticalRounds) {
  // Ablation A2: the frontier optimisation must not change any R_k.
  CpdsFile F = models::buildFig1();
  CbaEngine Fast(F.System, ResourceLimits::unlimited());
  CbaEngine Slow(F.System, ResourceLimits::unlimited());
  Slow.setExpandAll(true);
  for (unsigned K = 1; K <= 6; ++K) {
    ASSERT_EQ(Fast.advance(), CbaEngine::RoundStatus::Ok);
    ASSERT_EQ(Slow.advance(), CbaEngine::RoundStatus::Ok);
    EXPECT_EQ(Fast.reachedSize(), Slow.reachedSize()) << "k=" << K;
    EXPECT_EQ(Fast.visibleSize(), Slow.visibleSize()) << "k=" << K;
  }
}

TEST(CbaEngine, ExhaustsOnNonFcrSystem) {
  // Fig. 2's threads can grow their stacks without a context switch;
  // the explicit engine must hit the budget rather than diverge.
  CpdsFile F = models::buildFig2();
  ResourceLimits L;
  L.MaxStates = 10'000;
  L.MaxSteps = 1'000'000;
  L.MaxContexts = 8;
  L.MaxMillis = 0;
  CbaEngine E(F.System, L);
  CbaEngine::RoundStatus St = CbaEngine::RoundStatus::Ok;
  for (int K = 0; K < 8 && St == CbaEngine::RoundStatus::Ok; ++K)
    St = E.advance();
  EXPECT_EQ(St, CbaEngine::RoundStatus::Exhausted);
}

//===----------------------------------------------------------------------===//
// Z and the generator set (Ex. 13 / Ex. 14 / Fig. 3)
//===----------------------------------------------------------------------===//

namespace {

/// The VisibleState BFS over Cpds::abstractSuccessors that the packed
/// exploration replaced, with the charges computeZ documents: one
/// chargeStep(successors + 1) per (state, thread), one chargeState per
/// new state.  Sorted; empty on exhaustion.
std::vector<VisibleState> referenceZ(const Cpds &C,
                                     LimitTracker *Limits = nullptr) {
  std::vector<VisibleState> Queue = {project(C.initialState())};
  std::set<VisibleState> Seen(Queue.begin(), Queue.end());
  std::vector<VisibleState> Succs;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      Succs.clear();
      C.abstractSuccessors(Queue[Head], I, Succs);
      if (Limits && !Limits->chargeStep(Succs.size() + 1))
        return {};
      for (VisibleState &S : Succs) {
        if (!Seen.insert(S).second)
          continue;
        if (Limits && !Limits->chargeState())
          return {};
        Queue.push_back(std::move(S));
      }
    }
  }
  std::sort(Queue.begin(), Queue.end());
  return Queue;
}

/// computeZ and computeGeneratorsInZ against the reference on \p C.
void expectZMatchesReference(const Cpds &C, const std::string &Name) {
  std::vector<VisibleState> Z = computeZ(C);
  EXPECT_EQ(Z, referenceZ(C)) << Name;
  GeneratorSet G(C);
  std::optional<std::vector<VisibleState>> GZ = computeGeneratorsInZ(C, G);
  ASSERT_TRUE(GZ.has_value()) << Name;
  EXPECT_EQ(*GZ, G.intersect(Z)) << Name;
}

/// Steps the step budget, then the state budget, from 1 up to what the
/// reference needs: both entries must run out exactly where the
/// reference does, with their trackers stopped at the same counts.
void expectSameBudgetTrajectory(const Cpds &C, const std::string &Name) {
  LimitTracker Need(ResourceLimits::unlimited());
  ASSERT_FALSE(referenceZ(C, &Need).empty()) << Name;
  GeneratorSet G(C);
  for (bool StepAxis : {true, false}) {
    uint64_t Total = StepAxis ? Need.steps() : Need.states();
    for (uint64_t B = 1; B <= Total; ++B) {
      ResourceLimits L = ResourceLimits::unlimited();
      (StepAxis ? L.MaxSteps : L.MaxStates) = B;
      std::string At = Name + (StepAxis ? " steps " : " states ") +
                       std::to_string(B);
      LimitTracker Ref(L), Packed(L), Gen(L);
      bool Complete = !referenceZ(C, &Ref).empty();
      EXPECT_EQ(Complete, B == Total) << At;
      EXPECT_EQ(!computeZ(C, &Packed).empty(), Complete) << At;
      EXPECT_EQ(computeGeneratorsInZ(C, G, &Gen).has_value(), Complete)
          << At;
      for (const LimitTracker *T : {&Packed, &Gen}) {
        EXPECT_EQ(T->steps(), Ref.steps()) << At;
        EXPECT_EQ(T->states(), Ref.states()) << At;
      }
    }
  }
}

/// A CPDS whose visible states need 73 bits: one bit of shared state and
/// eight threads with 300-symbol alphabets (9 bits of top each).  Thread
/// 0 runs a push / pop / restart cycle, so Z has generators; thread 1 can
/// fire once, out of the shared state thread 0 leaves behind; the other
/// threads never move.
CpdsFile buildWideCpds() {
  CpdsFile F;
  Cpds &C = F.System;
  QState Q0 = C.addSharedState("q0");
  QState Q1 = C.addSharedState("q1");
  for (unsigned T = 0; T < 8; ++T) {
    unsigned I = C.addThread("t" + std::to_string(T));
    Pds &P = C.thread(I);
    std::vector<Sym> S;
    for (unsigned K = 0; K < 300; ++K)
      S.push_back(P.addSymbol("s" + std::to_string(K)));
    if (T == 0) {
      P.addAction({Q0, S[0], Q1, S[1], S[299], "push"});
      P.addAction({Q1, S[1], Q0, EpsSym, EpsSym, "pop"});
      P.addAction({Q0, S[299], Q0, S[0], EpsSym, "restart"});
    } else if (T == 1) {
      P.addAction({Q1, S[0], Q1, S[298], EpsSym, "step"});
    }
    C.setInitialStack(I, {S[0]});
  }
  EXPECT_TRUE(static_cast<bool>(C.freeze()));
  return F;
}

} // namespace

TEST(ZOverapprox, Fig1MatchesEx13) {
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  std::vector<VisibleState> Z = computeZ(C);
  std::vector<VisibleState> Want = {
      vs(C, "0", {"1", "4"}),   vs(C, "1", {"2", "4"}),
      vs(C, "2", {"2", "5"}),   vs(C, "3", {"2", "4"}),
      vs(C, "0", {"1", "eps"}), vs(C, "1", {"2", "eps"}),
      vs(C, "0", {"1", "6"}),   vs(C, "1", {"2", "6"})};
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Z, Want);
}

TEST(Generators, Fig1MembershipMatchesEx14) {
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  GeneratorSet G(C);
  // G = {<0|1,eps>, <0|1,6>, <0|2,eps>, <0|2,6>} per Ex. 14.
  EXPECT_TRUE(G.contains(vs(C, "0", {"1", "eps"})));
  EXPECT_TRUE(G.contains(vs(C, "0", {"1", "6"})));
  EXPECT_TRUE(G.contains(vs(C, "0", {"2", "eps"})));
  EXPECT_TRUE(G.contains(vs(C, "0", {"2", "6"})));
  // Not generators: wrong shared state or wrong emerging symbol.
  EXPECT_FALSE(G.contains(vs(C, "1", {"2", "eps"})));
  EXPECT_FALSE(G.contains(vs(C, "0", {"1", "4"})));
  EXPECT_FALSE(G.contains(vs(C, "0", {"1", "5"})));
  EXPECT_FALSE(G.contains(vs(C, "3", {"2", "4"})));
}

TEST(Generators, Fig1GIntersectZMatchesEx14) {
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  GeneratorSet G(C);
  std::vector<VisibleState> GZ = G.intersect(computeZ(C));
  std::vector<VisibleState> Want = {vs(C, "0", {"1", "eps"}),
                                    vs(C, "0", {"1", "6"})};
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(GZ, Want);
}

TEST(ZOverapprox, BudgetExhaustionReturnsEmpty) {
  // Z's abstract domain can dwarf the concretely reachable set (e.g.
  // Boolean-program translations with thousands of frame symbols), so
  // computeZ must honor its budget and signal exhaustion by returning
  // an empty set -- a completed exploration always contains the
  // projected initial state, so emptiness is unambiguous.
  CpdsFile F = models::buildFig1();
  LimitTracker StepBudget(ResourceLimits{0, 1, 0, 0});
  EXPECT_TRUE(computeZ(F.System, &StepBudget).empty());
  LimitTracker StateBudget(ResourceLimits{2, 0, 0, 0});
  EXPECT_TRUE(computeZ(F.System, &StateBudget).empty());
  // A sufficient budget reproduces the unlimited result.
  LimitTracker Ample(ResourceLimits{10'000, 1'000'000, 0, 0});
  EXPECT_EQ(computeZ(F.System, &Ample), computeZ(F.System));
  // The budget Z needs on Fig. 1, as the VisibleState BFS charged it:
  // 24 steps, and 7 states (Z's 8 minus the uncharged initial
  // one).  One unit less on either axis runs out.
  EXPECT_EQ(Ample.steps(), 24u);
  EXPECT_EQ(Ample.states(), 7u);
  for (uint64_t Steps : {24u - 1, 24u}) {
    LimitTracker T(ResourceLimits{0, Steps, 0, 0});
    EXPECT_EQ(computeZ(F.System, &T).empty(), Steps < 24u);
  }
  for (uint64_t States : {6u, 7u}) {
    LimitTracker T(ResourceLimits{States, 0, 0, 0});
    EXPECT_EQ(computeZ(F.System, &T).empty(), States < 7u);
  }
  // Every budget below those stops the packed exploration at the same
  // charge as the reference BFS.
  expectSameBudgetTrajectory(F.System, "fig1");
}

TEST(ZOverapprox, PackedMatchesReferenceOnPaperModels) {
  expectZMatchesReference(models::buildFig1().System, "fig1");
  expectZMatchesReference(models::buildFig2().System, "fig2");
  for (const auto &Row : models::table2Instances())
    expectZMatchesReference(Row.File.System, Row.Suite + " " + Row.Config);
}

TEST(ZOverapprox, PackedMatchesReferenceOnCorpus) {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CUBA_CORPUS_DIR))
    if (Entry.path().extension() == ".bp")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  EXPECT_GE(Paths.size(), 11u) << "corpus shrank below 11 models";
  for (const auto &P : Paths) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    auto File = bp::compileBooleanProgram(SS.str());
    ASSERT_TRUE(File) << P << ": " << File.error().str();
    expectZMatchesReference(File->System, P.filename().string());
  }
}

TEST(ZOverapprox, PackedMatchesReferenceOnRandomCpds) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    CpdsFile F = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    std::string Name = "seed " + std::to_string(Seed);
    expectZMatchesReference(F.System, Name);
    if (Seed <= 10)
      expectSameBudgetTrajectory(F.System, Name);
    if (HasFailure())
      break;
  }
}

TEST(ZOverapprox, WideSystemsTakeTheVisibleStateFallback) {
  // Too wide for one word: Z comes from the VisibleState BFS, with the
  // same result, generator filter and budget trajectory.
  CpdsFile F = buildWideCpds();
  ASSERT_FALSE(VisiblePacker(F.System).packable());
  expectZMatchesReference(F.System, "wide");
  expectSameBudgetTrajectory(F.System, "wide");
  GeneratorSet G(F.System);
  EXPECT_FALSE(computeGeneratorsInZ(F.System, G)->empty());
}

TEST(ZOverapprox, BackgroundBuildAnswersLikeTheSerialOne) {
  // GeneratorTest::start builds G cap Z on a worker and the first
  // coveredBy joins it.  Its answers and the det span emitted at the
  // join must be the serial build's, also under a budget that truncates
  // Z; a build the run cancels emits no span at all.
  exec::ThreadPool Pool(2);
  const CpdsFile Files[] = {models::buildFig1(),
                            models::buildBluetooth(1, 1, 1), buildWideCpds()};
  const ResourceLimits Budgets[] = {ResourceLimits::unlimited(),
                                    ResourceLimits{0, 20, 0, 0}};
  unsigned Truncated = 0;
  for (const CpdsFile &F : Files)
    for (const ResourceLimits &L : Budgets) {
      auto Answers = [&](exec::ThreadPool *P) {
        obs::Trace::begin();
        CbaEngine E(F.System, ResourceLimits::unlimited());
        GeneratorTest G(F.System, L, ThreadSymmetry(F.System));
        G.start(P);
        std::vector<bool> Covered;
        while (E.bound() < 4 && E.advance() == CbaEngine::RoundStatus::Ok)
          Covered.push_back(G.coveredBy(E));
        G.finish();
        obs::Trace::end();
        return std::make_pair(Covered, stripTrace(obs::Trace::render()));
      };
      auto Serial = Answers(nullptr);
      EXPECT_EQ(Serial == Answers(&Pool), true) << F.System.threadName(0);
      Truncated += Serial.second.find("\"exhausted\": 1") != std::string::npos;
    }
  EXPECT_GT(Truncated, 0u) << "no budget truncated Z";

  obs::Trace::begin();
  {
    GeneratorTest G(Files[1].System, ResourceLimits::unlimited(),
                    ThreadSymmetry(Files[1].System));
    G.start(&Pool);
    G.finish();
  }
  obs::Trace::end();
  EXPECT_EQ(obs::Trace::render().find("z-overapprox"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The word path: packed property, generator membership and coverage
//===----------------------------------------------------------------------===//

namespace {

/// A three-thread system with 3 shared states and alphabets of 2, 3 and
/// 1 symbols; no rules, as only its word layout matters.
CpdsFile buildLayoutCpds() {
  CpdsFile F;
  Cpds &C = F.System;
  for (const char *Q : {"a", "b", "c"})
    C.addSharedState(Q);
  for (unsigned Syms : {2u, 3u, 1u}) {
    Pds &P = C.thread(C.addThread("t" + std::to_string(Syms)));
    for (unsigned K = 0; K < Syms; ++K)
      P.addSymbol("s" + std::to_string(K));
  }
  EXPECT_TRUE(static_cast<bool>(C.freeze()));
  return F;
}

/// Every visible state of \p C's domain, in ascending order.
std::vector<VisibleState> allVisibleStates(const Cpds &C) {
  std::vector<VisibleState> Out = {VisibleState{0, {}}};
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    std::vector<VisibleState> Next;
    for (const VisibleState &V : Out)
      for (Sym S = 0; S <= C.thread(I).numSymbols(); ++S) {
        Next.push_back(V);
        Next.back().Tops.push_back(S);
      }
    Out = std::move(Next);
  }
  std::vector<VisibleState> All;
  for (QState Q = 0; Q < C.numSharedStates(); ++Q)
    for (VisibleState V : Out) {
      V.Q = Q;
      All.push_back(std::move(V));
    }
  std::sort(All.begin(), All.end());
  return All;
}

VisiblePattern pattern(std::optional<QState> Q,
                       std::vector<std::optional<Sym>> Tops) {
  return VisiblePattern{Q, std::move(Tops)};
}

/// formatTrace of core/Algorithms.cpp, for the reference loop below.
std::string renderTrace(const Cpds &C, const std::vector<TraceStep> &Steps) {
  std::string Out;
  for (const TraceStep &S : Steps)
    Out += Out.empty() ? "  initial:  " + toString(C, S.State) + "\n"
                       : "  " + C.threadName(S.Thread) + "/" + S.Label +
                             ": " + toString(C, S.State) + "\n";
  return Out;
}

/// The round loop of core/Algorithms.cpp on VisibleState values alone:
/// each round's new states sorted and tested with
/// SafetyProperty::violatedBy, and G cap Z as the sorted result of
/// computeGeneratorsInZ under \p ZSymmetry (on its own tracker over
/// \p Limits) probed with visibleReached.  Scheme 1 and Alg. 3 both
/// run; \p ZTruncated reports a G cap Z cut short by its budget.
template <typename EngineT>
RunResult referenceRounds(EngineT &E, const Cpds &C,
                          const SafetyProperty &Prop,
                          const ResourceLimits &Limits,
                          const ThreadSymmetry &ZSymmetry,
                          bool &ZTruncated) {
  RunResult R;
  ZTruncated = false;
  auto Check = [&] {
    if (R.BugBound || Prop.trivial())
      return;
    for (const VisibleState &V : E.newVisibleThisRound()) {
      if (!Prop.violatedBy(V))
        continue;
      R.BugBound = E.bound();
      R.Witness = toString(C, V);
      if constexpr (std::is_same_v<EngineT, CbaEngine>)
        R.Trace = renderTrace(C, E.traceToVisible(V));
      return;
    }
  };
  ObservationTracker Sizes;
  std::optional<std::vector<VisibleState>> Pending;
  bool Built = false;
  std::optional<unsigned> Rk, Tk;
  Sizes.record(E.visibleOrbits());
  Check();
  unsigned MaxK = Limits.MaxContexts ? Limits.MaxContexts : UINT32_MAX;
  while (E.bound() < MaxK && !R.BugBound) {
    if (E.advance() == EngineT::RoundStatus::Exhausted) {
      R.Exhausted = true;
      break;
    }
    Sizes.record(E.visibleOrbits());
    Check();
    if (!Rk && E.frontierEmpty())
      Rk = E.bound() - 1;
    if (!Tk && Sizes.newPlateauAtLatest()) {
      if (!Built) {
        LimitTracker ZLimits(Limits);
        Pending = computeGeneratorsInZ(C, GeneratorSet(C), &ZLimits,
                                       ZSymmetry);
        ZTruncated = !Pending;
        Built = true;
      }
      if (Pending) {
        std::erase_if(*Pending, [&](const VisibleState &V) {
          return E.visibleReached(V);
        });
        if (Pending->empty())
          Tk = E.bound() - 1;
      }
    }
    if (Rk || Tk)
      break;
  }
  R.ConvergedAt = Rk ? Rk : Tk;
  if (E.bound() >= MaxK && !R.ConvergedAt && !R.BugBound)
    R.Exhausted = true;
  R.KMax = E.bound();
  return R;
}

/// The answers the word path must keep.
std::string answers(const RunResult &R) {
  auto Bound = [](std::optional<unsigned> K) {
    return K ? std::to_string(*K) : std::string("-");
  };
  return "bug " + Bound(R.BugBound) + " converged " + Bound(R.ConvergedAt) +
         " kmax " + std::to_string(R.KMax) + " exhausted " +
         std::to_string(R.Exhausted) + " witness " + R.Witness +
         "\ntrace\n" + R.Trace;
}

/// What the agreement runs covered.
struct WordPathTally {
  unsigned Bugs = 0, Proved = 0;
  /// Explicit-route inputs with a thread class whose reduced and
  /// unreduced G cap Z both completed.
  unsigned OrbitChecks = 0;
};

/// Both drivers on \p F at jobs 1 and 4 against the reference loop, with
/// G cap Z on the orbits the drivers use.  On the explicit route, where
/// the engine stores every state, the unreduced G cap Z must answer the
/// same whenever neither build is truncated.
void expectWordPathAgrees(const CpdsFile &F, const ResourceLimits &L,
                          exec::ThreadPool &Pool, const std::string &Name,
                          WordPathTally &Tally) {
  const Cpds &C = F.System;
  const SafetyProperty &Prop = F.Property;
  ThreadSymmetry Symmetry(C, Prop);
  bool ZTruncated = false, FullZTruncated = false;
  CbaEngine RefE(C, L);
  RunResult RefRun = referenceRounds(RefE, C, Prop, L, Symmetry, ZTruncated);
  std::string WantE = answers(RefRun);
  Tally.Bugs += RefRun.BugBound.has_value();
  Tally.Proved += RefRun.ConvergedAt.has_value();
  CbaEngine FullE(C, L);
  std::string WantFull = answers(
      referenceRounds(FullE, C, Prop, L, ThreadSymmetry(C), FullZTruncated));
  if (!ZTruncated && !FullZTruncated) {
    EXPECT_EQ(WantE, WantFull) << Name << ": orbits of G cap Z";
    Tally.OrbitChecks += !Symmetry.classes().empty();
  }
  SymbolicEngine RefS(C, L, Symmetry);
  std::string WantS =
      answers(referenceRounds(RefS, C, Prop, L, Symmetry, ZTruncated));
  for (exec::ThreadPool *P : {static_cast<exec::ThreadPool *>(nullptr),
                              &Pool}) {
    RunOptions O;
    O.Limits = L;
    O.BuildTrace = true;
    O.Pool = P;
    std::string At = Name + (P ? " jobs 4" : " jobs 1");
    EXPECT_EQ(answers(runExplicitCombined(C, Prop, O).Run), WantE)
        << At << " explicit";
    O.BuildTrace = false;
    EXPECT_EQ(answers(runAlg3Symbolic(C, Prop, O).Run), WantS)
        << At << " symbolic";
  }
}

} // namespace

TEST(VisibleWords, CompiledPropertyMatchesViolatedByOnEveryWord) {
  CpdsFile F = buildLayoutCpds();
  const Cpds &C = F.System;
  VisiblePacker Packer(C);
  ASSERT_TRUE(Packer.packable());
  std::vector<VisibleState> All = allVisibleStates(C);
  ASSERT_EQ(All.size(), 3u * 3 * 4 * 2);

  SafetyProperty Prop;
  // A: a Q wildcard with an EpsSym top; B: per-thread wildcards; C: a
  // fully fixed pattern; D: a symbol past thread 2's one-bit field,
  // which can match nothing.
  Prop.addBadPattern(pattern(std::nullopt, {EpsSym, std::nullopt, 1}));
  Prop.addBadPattern(pattern(2, {std::nullopt, 3, std::nullopt}));
  Prop.addBadPattern(pattern(1, {2, EpsSym, EpsSym}));
  Prop.addBadPattern(pattern(0, {std::nullopt, std::nullopt, 7}));
  PackedProperty Bad(Prop, Packer);
  ASSERT_TRUE(Bad.compiled());
  std::vector<uint64_t> Words;
  unsigned Violating = 0;
  for (const VisibleState &V : All) {
    uint64_t W = Packer.pack(V);
    EXPECT_EQ(Bad.violatedBy(W), Prop.violatedBy(V)) << toString(C, V);
    Violating += Prop.violatedBy(V);
    Words.push_back(W);
  }
  EXPECT_EQ(Violating, 12u + 6 - 1 + 1); // A, B less their overlap, C.
  // The least violating word is the least violating state, whatever the
  // order of the scan.
  auto FirstBad = std::find_if(All.begin(), All.end(), [&](const auto &V) {
    return Prop.violatedBy(V);
  });
  std::reverse(Words.begin(), Words.end());
  ASSERT_TRUE(Bad.leastViolation(Words).has_value());
  EXPECT_EQ(Packer.unpack(*Bad.leastViolation(Words)), *FirstBad);
  EXPECT_FALSE(Bad.leastViolation(std::span(Words).first(0)).has_value());

  // The trivial property never fires; a pattern of the wrong arity does
  // not compile, and the round loop then tests VisibleStates.
  SafetyProperty None;
  PackedProperty Trivial(None, Packer);
  ASSERT_TRUE(Trivial.compiled());
  EXPECT_FALSE(Trivial.leastViolation(Words).has_value());
  SafetyProperty Short;
  Short.addBadPattern(pattern(0, {1, 1}));
  EXPECT_FALSE(PackedProperty(Short, Packer).compiled());
  EXPECT_FALSE(PackedProperty(Prop, VisiblePacker(buildWideCpds().System))
                   .compiled());
}

TEST(VisibleWords, GeneratorMembershipOnWordsMatchesContains) {
  for (const CpdsFile &F : {models::buildFig1(), models::buildFig2(),
                            models::buildBluetooth(1, 1, 1)}) {
    const Cpds &C = F.System;
    VisiblePacker Packer(C);
    GeneratorSet G(C);
    unsigned Members = 0;
    for (const VisibleState &V : allVisibleStates(C)) {
      EXPECT_EQ(G.containsWord(Packer.pack(V), Packer), G.contains(V))
          << toString(C, V);
      Members += G.contains(V);
    }
    EXPECT_GT(Members, 0u) << C.threadName(0);
  }
}

TEST(VisibleWords, RoundsAgreeWithTheVisibleStatePath) {
  // Word-level coverage and the violation scan against the loop on
  // VisibleStates: the differential seeds (the rotation and the
  // replicated-threads slot), the corpus, the paper models and a system
  // too wide to pack, at jobs 1 and 4.
  exec::ThreadPool Pool(4);
  const ResourceLimits Quick{10'000, 1'000'000, 8, 0};
  WordPathTally Tally;
  for (uint64_t Seed = 1; Seed <= 240 && !HasFailure(); ++Seed)
    expectWordPathAgrees(cuba::testing::generateRandomCpds(
                             Seed, cuba::testing::cornerShapeOptions(Seed)),
                         Quick, Pool, "seed " + std::to_string(Seed), Tally);
  for (uint64_t I = 1; I <= 64 && !HasFailure(); ++I) {
    uint64_t Seed = 8 * I + 7;
    expectWordPathAgrees(cuba::testing::generateRandomCpds(
                             Seed, cuba::testing::cornerShapeOptions(Seed)),
                         Quick, Pool,
                         "replicated seed " + std::to_string(Seed), Tally);
  }

  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CUBA_CORPUS_DIR))
    if (Entry.path().extension() == ".bp")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_GE(Paths.size(), 11u);
  const ResourceLimits Corpus{200'000, 20'000'000, 12, 0};
  for (const auto &P : Paths) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    auto File = bp::compileBooleanProgram(SS.str());
    ASSERT_TRUE(File) << P;
    expectWordPathAgrees(*File, Corpus, Pool, P.filename().string(), Tally);
  }

  for (const CpdsFile &F : {models::buildFig1(), models::buildDekker(),
                            models::buildBluetooth(1, 1, 1),
                            models::buildBluetooth(2, 1, 2)})
    expectWordPathAgrees(F, Corpus, Pool, F.System.threadName(0), Tally);
  EXPECT_GT(Tally.Bugs, 50u);
  EXPECT_GT(Tally.Proved, 50u);
  EXPECT_GT(Tally.OrbitChecks, 30u);

  // The wide system, with a property thread 1's single step violates.
  CpdsFile Wide = buildWideCpds();
  VisiblePattern Step = pattern(std::nullopt, std::vector<std::optional<Sym>>(
                                                  8, std::nullopt));
  Step.Tops[1] = Wide.System.thread(1).symbolByName("s298");
  Wide.Property.addBadPattern(Step);
  ASSERT_FALSE(VisiblePacker(Wide.System).packable());
  CbaEngine E(Wide.System, Corpus);
  bool ZTruncated = false;
  EXPECT_TRUE(referenceRounds(E, Wide.System, Wide.Property, Corpus,
                              ThreadSymmetry(Wide.System, Wide.Property),
                              ZTruncated)
                  .BugBound.has_value());
  expectWordPathAgrees(Wide, Corpus, Pool, "wide", Tally);
}

//===----------------------------------------------------------------------===//
// Alg. 3 and Scheme 1 end-to-end
//===----------------------------------------------------------------------===//

TEST(Alg3, Fig1ConvergesAtFive) {
  CpdsFile F = models::buildFig1();
  RunResult R = runAlg3Explicit(F.System, F.Property, fastOptions());
  EXPECT_EQ(R.outcome(), Outcome::Proved);
  ASSERT_TRUE(R.ConvergedAt.has_value());
  EXPECT_EQ(*R.ConvergedAt, 5u);
  EXPECT_EQ(R.KMax, 6u); // Detection needs T(R_6) = T(R_5).
  EXPECT_EQ(R.VisibleStates, 8u);
  EXPECT_FALSE(R.BugBound.has_value());
}

TEST(Alg3, Fig1FirstPlateauIsCorrectlySkipped) {
  // The k=2..3 plateau must not be mistaken for convergence: <0|1,6>
  // is a reachable generator not seen until k=4.  If Alg. 3 stopped at
  // the first plateau it would report k0=2; it must report 5.
  CpdsFile F = models::buildFig1();
  RunResult R = runAlg3Explicit(F.System, F.Property, fastOptions());
  ASSERT_TRUE(R.ConvergedAt.has_value());
  EXPECT_NE(*R.ConvergedAt, 2u);
}

TEST(Scheme1, Fig1DivergesUnderContextCap) {
  // (R_k) on Fig. 1 never plateaus (stacks grow forever): Scheme 1 must
  // run out of its context budget without an answer.
  CpdsFile F = models::buildFig1();
  RunResult R = runScheme1Explicit(F.System, F.Property, fastOptions(12));
  EXPECT_EQ(R.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(R.Exhausted);
  EXPECT_FALSE(R.ConvergedAt.has_value());
}

TEST(Combined, Fig1UsesAlg3Conclusion) {
  CpdsFile F = models::buildFig1();
  RoundsResult R = runExplicitCombined(F.System, F.Property, fastOptions(16));
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
  ASSERT_TRUE(R.TkCollapse.has_value());
  EXPECT_EQ(*R.TkCollapse, 5u);
  EXPECT_FALSE(R.RkCollapse.has_value()); // (R_k) had not collapsed.
}

TEST(Scheme1, DekkerConvergesAndIsSafe) {
  CpdsFile F = models::buildDekker();
  RunResult R = runScheme1Explicit(F.System, F.Property, fastOptions(32));
  EXPECT_EQ(R.outcome(), Outcome::Proved) << "kmax=" << R.KMax;
  EXPECT_FALSE(R.BugBound.has_value());
}

TEST(Alg3, DekkerSafe) {
  CpdsFile F = models::buildDekker();
  RunResult R = runAlg3Explicit(F.System, F.Property, fastOptions(32));
  EXPECT_EQ(R.outcome(), Outcome::Proved) << "kmax=" << R.KMax;
}

TEST(Combined, BstInsertSafeAtSmallBounds) {
  CpdsFile F = models::buildBstInsert(1, 1);
  RoundsResult R = runExplicitCombined(F.System, F.Property, fastOptions(32));
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << "kmax=" << R.Run.KMax;
  ASSERT_TRUE(R.Run.ConvergedAt.has_value());
  EXPECT_LE(*R.Run.ConvergedAt, 8u);
}

TEST(Combined, FileCrawlerSafe) {
  CpdsFile F = models::buildFileCrawler(2);
  RoundsResult R = runExplicitCombined(F.System, F.Property, fastOptions(32));
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << "kmax=" << R.Run.KMax;
}

TEST(Combined, BluetoothV1FindsBug) {
  CpdsFile F = models::buildBluetooth(1, 1, 1);
  RunOptions O = fastOptions(16);
  RoundsResult R = runExplicitCombined(F.System, F.Property, O);
  EXPECT_EQ(R.Run.outcome(), Outcome::BugFound) << "kmax=" << R.Run.KMax;
  ASSERT_TRUE(R.Run.BugBound.has_value());
  EXPECT_LE(*R.Run.BugBound, 8u);
  EXPECT_FALSE(R.Run.Witness.empty());
}

TEST(Combined, BluetoothV2FindsBug) {
  CpdsFile F = models::buildBluetooth(2, 1, 1);
  RoundsResult R = runExplicitCombined(F.System, F.Property, fastOptions(16));
  EXPECT_EQ(R.Run.outcome(), Outcome::BugFound) << "kmax=" << R.Run.KMax;
}

TEST(Combined, BluetoothV3IsProvedSafe) {
  CpdsFile F = models::buildBluetooth(3, 1, 1);
  RoundsResult R = runExplicitCombined(F.System, F.Property, fastOptions(24));
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << "kmax=" << R.Run.KMax;
}

TEST(Combined, BluetoothV1BugPersistsWithMoreAdders) {
  CpdsFile F = models::buildBluetooth(1, 1, 2);
  RoundsResult R = runExplicitCombined(F.System, F.Property, fastOptions(16));
  EXPECT_EQ(R.Run.outcome(), Outcome::BugFound);
}

TEST(Combined, ContinueAfterBugAlsoReportsConvergence) {
  CpdsFile F = models::buildBluetooth(1, 1, 1);
  RunOptions O = fastOptions(24);
  O.ContinueAfterBug = true;
  RoundsResult R = runExplicitCombined(F.System, F.Property, O);
  ASSERT_TRUE(R.Run.BugBound.has_value());
  // One of the two observation sequences still converges later (Table 2
  // reports both the bug bound and a convergence bound for the unsafe
  // Bluetooth rows).  Alg. 3 alone can be obstructed by unreachable
  // generators in G cap Z -- the incompleteness the paper notes -- which
  // is exactly why the Sec. 6 driver runs both procedures in parallel.
  ASSERT_TRUE(R.Run.ConvergedAt.has_value()) << "kmax=" << R.Run.KMax;
  EXPECT_GE(*R.Run.ConvergedAt, *R.Run.BugBound);
}

namespace {

/// Scheme 1 read off (R_k) by hand: k - 1 for the first round k with
/// |R_{k-1}| = |R_k|, or unset when the budget or MaxContexts ends the
/// run first.
std::optional<unsigned> referenceRkCollapse(const Cpds &C,
                                            const RunOptions &O) {
  CbaEngine E(C, O.Limits);
  E.setExpandAll(O.ExpandAll);
  ObservationTracker Rk;
  Rk.record(E.reachedSize());
  while (E.bound() < O.Limits.MaxContexts) {
    if (E.advance() == CbaEngine::RoundStatus::Exhausted)
      return std::nullopt;
    Rk.record(E.reachedSize());
    if (Rk.plateauAtLatest())
      return E.bound() - 1;
  }
  return std::nullopt;
}

} // namespace

TEST(Scheme1, EmptyFrontierIsThePlateauOfRk) {
  // Scheme 1 concludes on a round that stores no new state; that must be
  // exactly the first plateau of |R_k|, with and without the frontier
  // optimisation.  ContinueAfterBug keeps a bug from ending the run, so
  // only the budget and the context cap can stop either side early.
  std::vector<std::pair<std::string, CpdsFile>> Systems;
  Systems.emplace_back("fig1", models::buildFig1());
  Systems.emplace_back("fig2", models::buildFig2());
  Systems.emplace_back("dekker", models::buildDekker());
  for (auto &Row : models::table2Instances())
    Systems.emplace_back(Row.Suite + " " + Row.Config, std::move(Row.File));
  for (uint64_t Seed = 1; Seed <= 120; ++Seed)
    Systems.emplace_back("seed " + std::to_string(Seed),
                         cuba::testing::generateRandomCpds(
                             Seed, cuba::testing::cornerShapeOptions(Seed)));
  unsigned Concluded = 0, Unset = 0;
  for (bool ExpandAll : {false, true}) {
    for (const auto &[Name, F] : Systems) {
      RunOptions O;
      O.Limits = ResourceLimits{20'000, 2'000'000, 16, 0};
      O.ContinueAfterBug = true;
      O.ExpandAll = ExpandAll;
      std::optional<unsigned> Want = referenceRkCollapse(F.System, O);
      RunResult R = runScheme1Explicit(F.System, F.Property, O);
      EXPECT_EQ(R.ConvergedAt, Want)
          << Name << (ExpandAll ? " (expand all)" : "");
      ++(Want ? Concluded : Unset);
    }
  }
  // Both outcomes occur, so neither side can pass by never concluding.
  EXPECT_GT(Concluded, 100u);
  EXPECT_GT(Unset, 50u);
}

//===----------------------------------------------------------------------===//
// FCR (Sec. 5, Fig. 4)
//===----------------------------------------------------------------------===//

TEST(Fcr, Fig1Holds) {
  CpdsFile F = models::buildFig1();
  FcrResult R = checkFcr(F.System);
  EXPECT_TRUE(R.Complete);
  EXPECT_TRUE(R.Holds);
  EXPECT_EQ(R.ThreadFinite, (std::vector<bool>{true, true}));
}

TEST(Fcr, Fig2FailsForBothThreads) {
  CpdsFile F = models::buildFig2();
  FcrResult R = checkFcr(F.System);
  EXPECT_TRUE(R.Complete);
  EXPECT_FALSE(R.Holds);
  EXPECT_EQ(R.ThreadFinite, (std::vector<bool>{false, false}));
}

TEST(Fcr, Table2VerdictsMatchThePaper) {
  for (const auto &Row : models::table2Instances()) {
    FcrResult R = checkFcr(Row.File.System);
    EXPECT_TRUE(R.Complete) << Row.Suite << " " << Row.Config;
    EXPECT_EQ(R.Holds, Row.ExpectFcr) << Row.Suite << " " << Row.Config;
  }
}

TEST(Fcr, StefanIsNotFcrDekkerIs) {
  EXPECT_FALSE(checkFcr(models::buildStefan1(2).System).Holds);
  EXPECT_TRUE(checkFcr(models::buildDekker().System).Holds);
}

namespace {

/// The FCR verdict of a one-thread system over shared states 0 and 1
/// with the rules \p Rules, run without a budget.
FcrResult fcrOfRules(const std::string &Rules) {
  auto F = parseCpds("shared 2\nthread P {\n  alphabet a b c f m n r\n" +
                     Rules + "}\n");
  if (!F) {
    ADD_FAILURE() << F.error().str();
    return {};
  }
  FcrResult R = checkFcr(F->System);
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.ThreadFinite.size(), 1u);
  return R;
}

} // namespace

TEST(Fcr, DirectRecursionIsInfinite) {
  EXPECT_FALSE(fcrOfRules("(0, a) -> (0, a a)\n").Holds);
}

TEST(Fcr, RecursionThatClosesThroughAReturnIsInfinite) {
  // r pushes n, n becomes m, m calls f returning to r, and f returns:
  // every lap leaves one more r.  The return is the epsilon edge
  // (0, eps, h(0, f)), which the saturation pops before the helper edge
  // (h(0, f), r, h(0, n)) exists; the loop closes only when that helper
  // edge is composed with it.
  FcrResult R = fcrOfRules("(0, m) -> (0, f r)\n"
                           "(0, f) -> (0, eps)\n"
                           "(0, r) -> (0, n r)\n"
                           "(0, n) -> (0, m)\n");
  EXPECT_FALSE(R.Holds);
  EXPECT_EQ(R.Helpers, 2u);
}

TEST(Fcr, CallReturnLoopIsFinite) {
  // m calls f and f returns to m, forever: the stack never exceeds two
  // symbols.  The loop closes through the pop's epsilon edge, and the
  // helper graph has no edge at all.
  FcrResult R = fcrOfRules("(0, m) -> (1, f m)\n"
                           "(1, f) -> (0, eps)\n");
  EXPECT_TRUE(R.Holds);
  EXPECT_EQ(R.Helpers, 1u);
}

TEST(Fcr, RecursionEnteredThroughAnEmptyStackPushIsInfinite) {
  // The empty stack pushes r at 1, and r recurses; the empty-stack push
  // and the recursive one share the helper h(1, r).
  FcrResult R = fcrOfRules("(0, eps) -> (1, r)\n"
                           "(1, r) -> (1, r c)\n");
  EXPECT_FALSE(R.Holds);
  EXPECT_EQ(R.Helpers, 1u);
}

TEST(Fcr, BudgetChargesOneStepPerActionWithoutPushes) {
  // No push rules: the seed pass is the whole saturation, one step per
  // action.
  auto F = parseCpds("shared 2\nthread P {\n  alphabet a b\n  stack a\n"
                     "  (0, a) -> (1, b)\n"
                     "  (1, b) -> (0, eps)\n"
                     "  (0, eps) -> (1, eps)\n"
                     "}\n");
  ASSERT_TRUE(F) << F.error().str();
  const Cpds &C = F->System;
  uint64_t NumActions = C.thread(0).actions().size();
  ResourceLimits L = ResourceLimits::unlimited();

  L.MaxSteps = NumActions;
  LimitTracker Enough(L);
  FcrResult R = checkFcr(C, &Enough);
  EXPECT_TRUE(R.Complete);
  EXPECT_TRUE(R.Holds);
  EXPECT_EQ(Enough.steps(), NumActions);

  L.MaxSteps = NumActions - 1;
  LimitTracker Short(L);
  R = checkFcr(C, &Short);
  EXPECT_FALSE(R.Complete);
  EXPECT_FALSE(R.Holds);

  // Under that budget runCuba cannot establish FCR and routes to the
  // symbolic engine.
  DriverOptions O;
  O.Run.Limits = L;
  DriverResult D = runCuba(C, F->Property, O);
  EXPECT_FALSE(D.Fcr.Complete);
  EXPECT_EQ(D.Used, ApproachKind::Symbolic);
}

//===----------------------------------------------------------------------===//
// Counterexample traces
//===----------------------------------------------------------------------===//

namespace {

/// A trace is valid when it starts at the initial state, each step is a
/// real successor of its predecessor via the named thread, and the last
/// state projects to the expected witness.
void expectValidTrace(const Cpds &C, const std::vector<TraceStep> &Trace,
                      const VisibleState &Witness) {
  ASSERT_FALSE(Trace.empty());
  EXPECT_EQ(Trace.front().State, C.initialState());
  for (size_t I = 1; I < Trace.size(); ++I) {
    std::vector<GlobalState> Succs;
    C.threadSuccessors(Trace[I - 1].State, Trace[I].Thread, Succs);
    bool Found = false;
    for (const GlobalState &S : Succs)
      Found = Found || S == Trace[I].State;
    EXPECT_TRUE(Found) << "step " << I << " is not a valid successor";
    EXPECT_FALSE(Trace[I].Label.empty());
  }
  EXPECT_EQ(project(Trace.back().State), Witness);
}

/// Number of maximal same-thread blocks in a trace (its context count).
unsigned traceContexts(const std::vector<TraceStep> &Trace) {
  unsigned Contexts = 0;
  for (size_t I = 1; I < Trace.size(); ++I)
    if (I == 1 || Trace[I].Thread != Trace[I - 1].Thread)
      ++Contexts;
  return Contexts;
}

} // namespace

TEST(Trace, Fig1ReconstructsEveryVisibleState) {
  CpdsFile F = models::buildFig1();
  CbaEngine E(F.System, ResourceLimits::unlimited());
  for (int K = 0; K < 6; ++K)
    E.advance();
  for (const auto &[V, Round] : E.visibleFirstSeen()) {
    auto Trace = E.traceToVisible(V);
    expectValidTrace(F.System, Trace, V);
    // First-discovery parents bound the trace by the discovery round.
    EXPECT_LE(traceContexts(Trace), Round) << toString(F.System, V);
  }
}

TEST(Trace, UnreachedVisibleStateYieldsEmptyTrace) {
  CpdsFile F = models::buildFig1();
  CbaEngine E(F.System, ResourceLimits::unlimited());
  E.advance();
  VisibleState V;
  V.Q = F.System.sharedStateByName("3");
  V.Tops = {F.System.thread(0).symbolByName("2"),
            F.System.thread(1).symbolByName("4")};
  EXPECT_TRUE(E.traceToVisible(V).empty());
}

TEST(Trace, BluetoothBugTraceIsReported) {
  CpdsFile F = models::buildBluetooth(1, 1, 1);
  RunOptions O = fastOptions(16);
  O.BuildTrace = true;
  RoundsResult R = runExplicitCombined(F.System, F.Property, O);
  ASSERT_TRUE(R.Run.BugBound.has_value());
  ASSERT_FALSE(R.Run.Trace.empty());
  // The formatted trace starts at the initial state and ends in err.
  EXPECT_NE(R.Run.Trace.find("initial:"), std::string::npos);
  EXPECT_NE(R.Run.Trace.find("err"), std::string::npos);
  EXPECT_NE(R.Run.Trace.find("assert"), std::string::npos);
}

TEST(Trace, BugTraceRespectsTheReportedBound) {
  CpdsFile F = models::buildBluetooth(1, 1, 1);
  CbaEngine E(F.System, ResourceLimits::unlimited());
  std::optional<VisibleState> Bad;
  for (int K = 0; K < 12 && !Bad; ++K) {
    E.advance();
    for (const VisibleState &V : E.newVisibleThisRound())
      if (F.Property.violatedBy(V)) {
        Bad = V;
        break;
      }
  }
  ASSERT_TRUE(Bad.has_value());
  auto Trace = E.traceToVisible(*Bad);
  expectValidTrace(F.System, Trace, *Bad);
  EXPECT_LE(traceContexts(Trace), E.bound());
}
