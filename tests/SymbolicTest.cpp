//===-- tests/SymbolicTest.cpp - Tests for the symbolic engine -------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include "core/CbaEngine.h"
#include "core/CubaDriver.h"
#include "core/SymbolicEngine.h"
#include "models/Models.h"
#include "obs/Metrics.h"
#include "pds/CpdsIO.h"
#include "pds/ThreadSymmetry.h"

using namespace cuba;

namespace {

RunOptions fastOptions(unsigned MaxK = 24) {
  RunOptions O;
  O.Limits = ResourceLimits::unlimited();
  O.Limits.MaxContexts = MaxK;
  return O;
}

/// \p N identical threads, each of whose single stack symbol walks
/// a -> b -> c -> d within one context; bad: every top is d, first
/// reachable at k = N.  T(S_k) holds the tops in which at most k threads
/// have moved, sum_{j<=k} C(N, j) 3^j states, so for N = 40 the orbit
/// sum saturates at k = 18 while new orbits arrive until k = N.
CpdsFile buildWalkers(unsigned N) {
  CpdsFile F;
  Cpds &C = F.System;
  QState Q = C.addSharedState("q");
  C.setInitialShared(Q);
  VisiblePattern Bad;
  Bad.Q = Q;
  for (unsigned I = 0; I < N; ++I) {
    Pds &P = C.thread(C.addThread("W" + std::to_string(I + 1)));
    Sym A = P.addSymbol("a"), B = P.addSymbol("b"), Cs = P.addSymbol("c"),
        D = P.addSymbol("d");
    P.addAction({Q, A, Q, B, EpsSym, "ab"});
    P.addAction({Q, B, Q, Cs, EpsSym, "bc"});
    P.addAction({Q, Cs, Q, D, EpsSym, "cd"});
    C.setInitialStack(I, {A});
    Bad.Tops.emplace_back(D);
  }
  F.Property.addBadPattern(std::move(Bad));
  EXPECT_TRUE(static_cast<bool>(C.freeze()));
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cross-validation: on an FCR system both engines must compute exactly
// the same visible-state rounds (the symbolic sets S_k concretise to the
// same R_k the explicit engine enumerates).
//===----------------------------------------------------------------------===//

TEST(SymbolicEngine, Fig1VisibleRoundsMatchExplicitEngine) {
  CpdsFile F = models::buildFig1();
  CbaEngine Explicit(F.System, ResourceLimits::unlimited());
  SymbolicEngine Symbolic(F.System, ResourceLimits::unlimited());
  EXPECT_EQ(Explicit.newVisibleThisRound(), Symbolic.newVisibleThisRound());
  for (unsigned K = 1; K <= 7; ++K) {
    ASSERT_EQ(Explicit.advance(), CbaEngine::RoundStatus::Ok);
    ASSERT_EQ(Symbolic.advance(), SymbolicEngine::RoundStatus::Ok);
    EXPECT_EQ(Explicit.visibleSize(), Symbolic.visibleSize()) << "k=" << K;
    EXPECT_EQ(Explicit.newVisibleThisRound(),
              Symbolic.newVisibleThisRound())
        << "k=" << K;
  }
}

TEST(SymbolicEngine, Fig1VisibleSizesMatchPaperTable) {
  CpdsFile F = models::buildFig1();
  SymbolicEngine E(F.System, ResourceLimits::unlimited());
  const size_t TSizes[] = {1, 3, 6, 6, 7, 8, 8};
  EXPECT_EQ(E.visibleSize(), TSizes[0]);
  for (unsigned K = 1; K <= 6; ++K) {
    ASSERT_EQ(E.advance(), SymbolicEngine::RoundStatus::Ok);
    EXPECT_EQ(E.visibleSize(), TSizes[K]) << "k=" << K;
  }
}

TEST(SymbolicEngine, HandlesInfiniteRkOnFig2) {
  // The explicit engine exhausts on Fig. 2 (infinite R_1); the symbolic
  // engine must advance fine and keep finite per-round structures.
  CpdsFile F = models::buildFig2();
  SymbolicEngine E(F.System, ResourceLimits::unlimited());
  for (unsigned K = 1; K <= 5; ++K)
    ASSERT_EQ(E.advance(), SymbolicEngine::RoundStatus::Ok) << "k=" << K;
  EXPECT_GT(E.visibleSize(), 4u);
  EXPECT_LT(E.symbolicStateCount(), 2000u);
}

//===----------------------------------------------------------------------===//
// Alg. 3(T(S_k)) end-to-end
//===----------------------------------------------------------------------===//

TEST(Alg3Symbolic, Fig1ConvergesAtFive) {
  CpdsFile F = models::buildFig1();
  RoundsResult R = runAlg3Symbolic(F.System, F.Property, fastOptions());
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
  ASSERT_TRUE(R.Run.ConvergedAt.has_value());
  EXPECT_EQ(*R.Run.ConvergedAt, 5u);
}

TEST(Alg3Symbolic, KInductionProvedSafe) {
  // Table 2 row 6: not FCR, safe, T-sequence collapses at k=3.
  CpdsFile F = models::buildKInduction();
  RoundsResult R = runAlg3Symbolic(F.System, F.Property, fastOptions());
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << "kmax=" << R.Run.KMax;
  ASSERT_TRUE(R.Run.ConvergedAt.has_value());
  EXPECT_LE(*R.Run.ConvergedAt, 6u);
}

TEST(Alg3Symbolic, Proc2ProvedSafe) {
  CpdsFile F = models::buildProc2();
  RoundsResult R = runAlg3Symbolic(F.System, F.Property, fastOptions());
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << "kmax=" << R.Run.KMax;
}

TEST(Alg3Symbolic, Stefan2ProvedSafe) {
  CpdsFile F = models::buildStefan1(2);
  RoundsResult R = runAlg3Symbolic(F.System, F.Property, fastOptions());
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << "kmax=" << R.Run.KMax;
  ASSERT_TRUE(R.Run.ConvergedAt.has_value());
  EXPECT_LE(*R.Run.ConvergedAt, 6u);
}

TEST(Alg3Symbolic, BugDetectionAgreesWithExplicit) {
  // The symbolic engine must find the Bluetooth v1 bug at the same
  // bound as the explicit engine.
  CpdsFile F = models::buildBluetooth(1, 1, 1);
  RoundsResult E = runExplicitCombined(F.System, F.Property, fastOptions(16));
  RunOptions O = fastOptions(16);
  O.Limits.MaxStates = 200'000;
  O.Limits.MaxSteps = 20'000'000;
  RoundsResult S = runAlg3Symbolic(F.System, F.Property, O);
  ASSERT_TRUE(E.Run.BugBound.has_value());
  ASSERT_TRUE(S.Run.BugBound.has_value());
  EXPECT_EQ(*E.Run.BugBound, *S.Run.BugBound);
}

TEST(Alg3Symbolic, RespectsResourceLimits) {
  // Stefan-1/4's four identical threads form one class, so the run
  // explores one row per orbit: 1,036 steps to its proof at k = 5,
  // against 15,920 unreduced.  A budget below the reduced figure must
  // still stop it.
  CpdsFile F = models::buildStefan1(4);
  ThreadSymmetry Sym(F.System, F.Property);
  auto StepsToK5 = [&](const ThreadSymmetry &S) {
    SymbolicEngine E(F.System, ResourceLimits::unlimited(), S);
    while (E.bound() < 5)
      EXPECT_EQ(E.advance(), SymbolicEngine::RoundStatus::Ok);
    return E.limits().steps();
  };
  uint64_t Reduced = StepsToK5(Sym);
  EXPECT_GT(StepsToK5(ThreadSymmetry(F.System)), Reduced);
  RunOptions O = fastOptions(32);
  O.Limits.MaxSteps = 500;
  ASSERT_LT(O.Limits.MaxSteps, Reduced);
  RoundsResult R = runAlg3Symbolic(F.System, F.Property, O);
  EXPECT_EQ(R.Run.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(R.Run.Exhausted);
}

TEST(Alg3Symbolic, ReportsThreadSymmetryGauges) {
  struct Case {
    CpdsFile File;
    uint64_t Classes, Threads;
  } Cases[] = {{models::buildStefan1(4), 1, 4},
               {models::buildProc2(), 2, 4},
               {models::buildKInduction(), 0, 0}};
  for (const Case &K : Cases) {
    obs::Metrics::resetAll();
    runAlg3Symbolic(K.File.System, K.File.Property, fastOptions());
    EXPECT_EQ(obs::Metrics::value("symmetry.classes"), K.Classes);
    EXPECT_EQ(obs::Metrics::value("symmetry.threads"), K.Threads);
  }
}

TEST(Alg3Symbolic, PlateausStayExactWhenTheOrbitSumSaturates) {
  // Past 2^64 states visibleSize() saturates, so two rounds can report
  // the same |T(S_k)| while new orbits keep arriving.  Such a round must
  // not count as a plateau: the bug below, first reachable at k = 40,
  // would be missed, and Stefan-1/40 would converge at the wrong bound.
  const unsigned N = 40;
  CpdsFile W = buildWalkers(N);
  SymbolicEngine E(W.System, ResourceLimits::unlimited(),
                   ThreadSymmetry(W.System, W.Property));
  while (E.visibleSize() != UINT64_MAX)
    ASSERT_EQ(E.advance(), SymbolicEngine::RoundStatus::Ok);
  unsigned Saturated = E.bound();
  size_t Orbits = E.visibleOrbits();
  ASSERT_EQ(E.advance(), SymbolicEngine::RoundStatus::Ok);
  EXPECT_EQ(E.visibleSize(), UINT64_MAX);
  EXPECT_GT(E.visibleOrbits(), Orbits);
  EXPECT_LT(Saturated + 1, N);

  RoundsResult R = runAlg3Symbolic(W.System, W.Property, fastOptions(64));
  EXPECT_EQ(R.Run.outcome(), Outcome::BugFound);
  EXPECT_EQ(R.Run.BugBound, std::optional<unsigned>(N));
  EXPECT_FALSE(R.TkCollapse.has_value());

  // Stefan-1/N converges at k = N for every N (Stefan-1/8 in Table 2);
  // at N = 40 its orbit sum saturates at k = 23.
  CpdsFile S = models::buildStefan1(N);
  R = runAlg3Symbolic(S.System, S.Property, fastOptions(64));
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
  EXPECT_EQ(R.TkCollapse, std::optional<unsigned>(N));
  EXPECT_EQ(R.Run.ConvergedAt, std::optional<unsigned>(N));
  EXPECT_EQ(R.Run.VisibleStates, UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// The Sec. 6 driver
//===----------------------------------------------------------------------===//

TEST(CubaDriver, PicksExplicitForFcrSystems) {
  CpdsFile F = models::buildFig1();
  DriverOptions O;
  O.Run = fastOptions();
  DriverResult R = runCuba(F.System, F.Property, O);
  EXPECT_TRUE(R.Fcr.Holds);
  EXPECT_EQ(R.Used, ApproachKind::ExplicitCombined);
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
  ASSERT_TRUE(R.TkCollapse.has_value());
  EXPECT_EQ(*R.TkCollapse, 5u);
}

TEST(CubaDriver, PicksSymbolicForNonFcrSystems) {
  CpdsFile F = models::buildKInduction();
  DriverOptions O;
  O.Run = fastOptions();
  DriverResult R = runCuba(F.System, F.Property, O);
  EXPECT_FALSE(R.Fcr.Holds);
  EXPECT_EQ(R.Used, ApproachKind::Symbolic);
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(CubaDriver, ForceOverridesApproach) {
  CpdsFile F = models::buildFig1();
  DriverOptions O;
  O.Run = fastOptions();
  O.Force = ApproachKind::Symbolic;
  DriverResult R = runCuba(F.System, F.Property, O);
  EXPECT_EQ(R.Used, ApproachKind::Symbolic);
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(CubaDriver, Table2SafetyVerdictsMatchThePaper) {
  for (const auto &Row : models::table2Instances()) {
    // Stefan-1 with 8 threads is the paper's OOM row; cap it tightly.
    DriverOptions O;
    O.Run = fastOptions(24);
    O.Run.Limits.MaxStates = 500'000;
    O.Run.Limits.MaxSteps = 20'000'000;
    O.Run.Limits.MaxMillis = 20'000;
    DriverResult R = runCuba(Row.File.System, Row.File.Property, O);
    EXPECT_EQ(R.Fcr.Holds, Row.ExpectFcr) << Row.Suite << " " << Row.Config;
    if (Row.Suite == "Stefan-1" && Row.Config == "8") {
      // The paper's tool ran out of memory here (PSA state sets); our
      // canonical-DFA dedup handles it -- accept a proof or, under a
      // tight budget, resource exhaustion, but never a spurious bug.
      EXPECT_NE(R.Run.outcome(), Outcome::BugFound)
          << Row.Suite << " " << Row.Config;
      continue;
    }
    if (Row.ExpectSafe)
      EXPECT_EQ(R.Run.outcome(), Outcome::Proved)
          << Row.Suite << " " << Row.Config << " kmax=" << R.Run.KMax;
    else
      EXPECT_EQ(R.Run.outcome(), Outcome::BugFound)
          << Row.Suite << " " << Row.Config << " kmax=" << R.Run.KMax;
  }
}

namespace {

/// A 33-thread system whose bug needs thread 32 to hand over to thread 0:
/// thread 32 moves q0 -> q1, thread 0 moves q1 -> q2 (the bad state),
/// and thread 1 pushes without bound in the unreachable q3, so FCR fails
/// and runCuba takes the symbolic engine, while the explicit engine can
/// still enumerate every R_k.  Every thread has one symbol and starts on
/// it; the other threads never move.
CpdsFile buildThirtyThreeThreads() {
  CpdsFile F;
  Cpds &C = F.System;
  QState Q0 = C.addSharedState("q0");
  QState Q1 = C.addSharedState("q1");
  QState Q2 = C.addSharedState("q2");
  QState Q3 = C.addSharedState("q3");
  for (unsigned T = 0; T < 33; ++T) {
    unsigned I = C.addThread("t" + std::to_string(T));
    Pds &P = C.thread(I);
    Sym A = P.addSymbol("a");
    if (T == 0)
      P.addAction({Q1, A, Q2, A, EpsSym, "bad"});
    else if (T == 1)
      P.addAction({Q3, A, Q3, A, A, "recurse"});
    else if (T == 32)
      P.addAction({Q0, A, Q1, A, EpsSym, "handover"});
    C.setInitialStack(I, {A});
  }
  EXPECT_TRUE(static_cast<bool>(C.freeze()));
  VisiblePattern Bad;
  Bad.Q = Q2;
  Bad.Tops.assign(33, std::nullopt);
  F.Property.addBadPattern(std::move(Bad));
  return F;
}

} // namespace

TEST(CubaDriver, ThreadsPastThirtyOneStillExpandTheirSuccessors) {
  // Producer masks have 32 bits.  A state thread 32 produced must still
  // be expanded by thread 0: the bug is two contexts away.
  CpdsFile F = buildThirtyThreeThreads();
  DriverOptions O;
  O.Run = fastOptions(6);
  DriverResult R = runCuba(F.System, F.Property, O);
  EXPECT_FALSE(R.Fcr.Holds);
  EXPECT_EQ(R.Used, ApproachKind::Symbolic);
  EXPECT_EQ(R.Run.outcome(), Outcome::BugFound);
  ASSERT_TRUE(R.Run.BugBound.has_value());
  EXPECT_EQ(*R.Run.BugBound, 2u);

  // The explicit engine agrees on the bound (it keeps no producer mask).
  O.Force = ApproachKind::ExplicitCombined;
  DriverResult E = runCuba(F.System, F.Property, O);
  ASSERT_TRUE(E.Run.BugBound.has_value());
  EXPECT_EQ(*E.Run.BugBound, 2u);
}

//===----------------------------------------------------------------------===//
// Property sweep: on every FCR model, the explicit and symbolic engines
// must discover exactly the same visible states in exactly the same
// rounds (both compute the true R_k; only the representation differs).
//===----------------------------------------------------------------------===//

namespace {

struct EngineAgreementCase {
  const char *Name;
  CpdsFile (*Build)();
  unsigned Rounds;
};

CpdsFile buildBt1() { return models::buildBluetooth(1, 1, 1); }
CpdsFile buildBt3() { return models::buildBluetooth(3, 1, 1); }
CpdsFile buildBst11() { return models::buildBstInsert(1, 1); }
CpdsFile buildCrawler() { return models::buildFileCrawler(2); }
// Systems wider than four threads.
CpdsFile buildBst23() { return models::buildBstInsert(2, 3); }
CpdsFile buildBst33() { return models::buildBstInsert(3, 3); }
CpdsFile buildBt322() { return models::buildBluetooth(3, 2, 2); }
CpdsFile buildBt123() { return models::buildBluetooth(1, 2, 3); }
CpdsFile buildCrawler4() { return models::buildFileCrawler(4); }

const EngineAgreementCase AgreementCases[] = {
    {"Fig1", &models::buildFig1, 7},
    {"Bluetooth1", &buildBt1, 6},
    {"Bluetooth3", &buildBt3, 6},
    {"Bst11", &buildBst11, 6},
    {"FileCrawler", &buildCrawler, 6},
    {"Dekker", &models::buildDekker, 6},
    {"Bst23", &buildBst23, 6},
    {"Bst33", &buildBst33, 6},
    {"Bluetooth322", &buildBt322, 6},
    {"Bluetooth123", &buildBt123, 6},
    {"FileCrawler4", &buildCrawler4, 6},
};

} // namespace

class EngineAgreement
    : public ::testing::TestWithParam<EngineAgreementCase> {};

TEST_P(EngineAgreement, VisibleRoundsMatch) {
  const EngineAgreementCase &Case = GetParam();
  CpdsFile F = Case.Build();
  CbaEngine Explicit(F.System, ResourceLimits::unlimited());
  SymbolicEngine Symbolic(F.System, ResourceLimits::unlimited());
  EXPECT_EQ(Explicit.newVisibleThisRound(),
            Symbolic.newVisibleThisRound());
  for (unsigned K = 1; K <= Case.Rounds; ++K) {
    ASSERT_EQ(Explicit.advance(), CbaEngine::RoundStatus::Ok);
    ASSERT_EQ(Symbolic.advance(), SymbolicEngine::RoundStatus::Ok);
    EXPECT_EQ(Explicit.newVisibleThisRound(),
              Symbolic.newVisibleThisRound())
        << Case.Name << " diverges at k=" << K;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FcrModels, EngineAgreement, ::testing::ValuesIn(AgreementCases),
    [](const ::testing::TestParamInfo<EngineAgreementCase> &Info) {
      return Info.param.Name;
    });
