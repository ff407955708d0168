//===-- tests/RobustnessTest.cpp - Exhaustion and fault sweeps ------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The graceful-degradation contract, exercised exhaustively on the
/// paper models: every budget axis (steps, bytes) and every fault point
/// (allocation, budget accounting, worker task, I/O) is driven through
/// every index it can fire at, and each run must end in a clean verdict
/// -- truncation-not-error on exhaustion, EXHAUSTED(injected) on a
/// fault, never a crash and never torn state that a later clean run
/// could observe.  The sweeps size themselves from a disarmed counting
/// pass (fault::arm at a never-firing index tallies probes), so "every
/// index" stays literal as the engines evolve; a guard asserts the probe
/// counts stay small enough that nothing is silently skipped.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ReferencePostStar.h"
#include "core/Algorithms.h"
#include "core/CbaEngine.h"
#include "exec/ThreadPool.h"
#include "fa/Canonicalize.h"
#include "models/Models.h"
#include "pds/CpdsIO.h"
#include "psa/SaturationEngine.h"
#include "support/FaultInject.h"

using namespace cuba;

namespace {

/// Budgets generous enough for both small models to conclude, with the
/// context bound low so the sweeps stay fast.
ResourceLimits referenceLimits() {
  ResourceLimits L;
  L.MaxStates = 0;
  L.MaxSteps = 0;
  L.MaxContexts = 6;
  L.MaxMillis = 0;
  L.MaxBytes = 0;
  return L;
}

/// The comparable fields of a run (wall-clock excluded).
struct Summary {
  Outcome O;
  std::optional<unsigned> Bug;
  unsigned KMax;
  uint64_t States;
  uint64_t Visible;

  bool operator==(const Summary &R) const {
    return O == R.O && Bug == R.Bug && KMax == R.KMax && States == R.States &&
           Visible == R.Visible;
  }
};

Summary summarize(const RunResult &R) {
  return {R.outcome(), R.BugBound, R.KMax, R.StatesStored, R.VisibleStates};
}

std::string str(const Summary &S) {
  return std::string(outcomeName(S.O)) + " bug=" +
         (S.Bug ? std::to_string(*S.Bug) : "none") +
         " kmax=" + std::to_string(S.KMax) +
         " states=" + std::to_string(S.States) +
         " visible=" + std::to_string(S.Visible);
}

/// One engine run under \p L; \p Pool may be null (serial).
Summary runExplicit(const CpdsFile &F, const ResourceLimits &L,
                    RunResult *Out = nullptr,
                    exec::ThreadPool *Pool = nullptr) {
  RunOptions O;
  O.Limits = L;
  O.Pool = Pool;
  RoundsResult R = runExplicitCombined(F.System, F.Property, O);
  if (Out)
    *Out = R.Run;
  return summarize(R.Run);
}

Summary runSymbolic(const CpdsFile &F, const ResourceLimits &L,
                    RunResult *Out = nullptr,
                    exec::ThreadPool *Pool = nullptr) {
  RunOptions O;
  O.Limits = L;
  O.Pool = Pool;
  RoundsResult R = runAlg3Symbolic(F.System, F.Property, O);
  if (Out)
    *Out = R.Run;
  return summarize(R.Run);
}

/// The sweep models: the Fig. 1 running example (safe, converges) and
/// the buggy Bluetooth-1 driver (finds its bug within the bound).
std::vector<CpdsFile> sweepModels() {
  std::vector<CpdsFile> M;
  M.push_back(models::buildFig1());
  M.push_back(models::buildBluetooth(1, 1, 1));
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Exhaustion sweeps: stepping a budget axis through every value from
// starvation to sufficiency must yield monotone truncation -- never a
// crash, never a verdict that flips against the unstarved reference.
//===----------------------------------------------------------------------===//

TEST(Robustness, StepBudgetSweepTruncatesMonotonically) {
  for (const CpdsFile &F : sweepModels()) {
    RunResult RefE, RefS;
    Summary FullE = runExplicit(F, referenceLimits(), &RefE);
    Summary FullS = runSymbolic(F, referenceLimits(), &RefS);
    ASSERT_FALSE(RefE.Exhausted);
    ASSERT_FALSE(RefS.Exhausted);

    // Every budget 1..64, then doubling until both engines conclude.
    std::vector<uint64_t> Ladder;
    for (uint64_t B = 1; B <= 64; ++B)
      Ladder.push_back(B);
    for (uint64_t B = 128; B <= (1u << 22); B *= 2)
      Ladder.push_back(B);

    unsigned PrevKE = 0, PrevKS = 0;
    for (uint64_t B : Ladder) {
      ResourceLimits L = referenceLimits();
      L.MaxSteps = B;
      RunResult RE, RS;
      Summary SE = runExplicit(F, L, &RE);
      Summary SS = runSymbolic(F, L, &RS);
      // Exhausted runs name the starved axis; concluded runs match the
      // reference exactly.
      if (RE.Exhausted)
        EXPECT_EQ(RE.ExhaustedBy, ExhaustKind::Steps) << "budget " << B;
      else
        EXPECT_TRUE(SE == FullE)
            << "budget " << B << ": " << str(SE) << " vs " << str(FullE);
      if (RS.Exhausted)
        EXPECT_EQ(RS.ExhaustedBy, ExhaustKind::Steps) << "budget " << B;
      else
        EXPECT_TRUE(SS == FullS)
            << "budget " << B << ": " << str(SS) << " vs " << str(FullS);
      // A bigger budget never explores less.
      EXPECT_GE(RE.KMax, PrevKE) << "budget " << B;
      EXPECT_GE(RS.KMax, PrevKS) << "budget " << B;
      PrevKE = RE.KMax;
      PrevKS = RS.KMax;
      if (::testing::Test::HasFailure())
        return;
    }
  }
}

TEST(Robustness, MemoryBudgetSweepTruncatesMonotonically) {
  for (const CpdsFile &F : sweepModels()) {
    RunResult RefE, RefS;
    Summary FullE = runExplicit(F, referenceLimits(), &RefE);
    Summary FullS = runSymbolic(F, referenceLimits(), &RefS);

    // Step the byte budget down from sufficiency to starvation.
    unsigned PrevKE = UINT32_MAX, PrevKS = UINT32_MAX;
    bool SawMemE = false, SawMemS = false;
    for (uint64_t B = uint64_t(1) << 30; B >= 1; B /= 2) {
      ResourceLimits L = referenceLimits();
      L.MaxBytes = B;
      RunResult RE, RS;
      Summary SE = runExplicit(F, L, &RE);
      Summary SS = runSymbolic(F, L, &RS);
      if (RE.Exhausted) {
        EXPECT_EQ(RE.ExhaustedBy, ExhaustKind::Memory) << "budget " << B;
        SawMemE = true;
      } else {
        EXPECT_TRUE(SE == FullE)
            << "budget " << B << ": " << str(SE) << " vs " << str(FullE);
      }
      if (RS.Exhausted) {
        EXPECT_EQ(RS.ExhaustedBy, ExhaustKind::Memory) << "budget " << B;
        SawMemS = true;
      } else {
        EXPECT_TRUE(SS == FullS)
            << "budget " << B << ": " << str(SS) << " vs " << str(FullS);
      }
      // A smaller budget never explores more.
      EXPECT_LE(RE.KMax, PrevKE) << "budget " << B;
      EXPECT_LE(RS.KMax, PrevKS) << "budget " << B;
      PrevKE = RE.KMax;
      PrevKS = RS.KMax;
      if (::testing::Test::HasFailure())
        return;
    }
    // The ladder's bottom (1 byte) must actually starve both engines,
    // or the sweep proved nothing.
    EXPECT_TRUE(SawMemE);
    EXPECT_TRUE(SawMemS);
  }
}

TEST(Robustness, SharedPostStarHonorsStepAndByteBudgets) {
  CpdsFile F = models::buildFig1();
  const Cpds &C = F.System;
  for (unsigned T = 0; T < C.numThreads(); ++T) {
    // The thread saturates in place, with its built-in bottom marker.
    const Pds &P = C.thread(T);
    // The lifted initial stack, as the engine itself saturates it.
    CanonicalDfa Lang =
        reference::liftedWordLanguage(P, C.initialState().Stacks[T]);

    LimitTracker Free((ResourceLimits::unlimited()));
    SharedSaturationResult Full =
        sharedPostStar(P, C.numSharedStates(), Lang, &Free);
    ASSERT_TRUE(Full.Complete);
    uint64_t Pops = Free.steps();
    uint64_t Peak = Free.peakBytes();
    ASSERT_GT(Pops, 0u);
    ASSERT_GT(Peak, 0u);

    // Steps: every budget below the pop count truncates; the pop count
    // itself completes with a bit-identical relation.  (A budget of 0
    // means unlimited, so the ladder starts at one.)
    for (uint64_t S = 1; S < Pops; ++S) {
      LimitTracker L(ResourceLimits{0, S, 0, 0});
      SharedSaturationResult R = sharedPostStar(P, C.numSharedStates(),
                                                Lang, &L);
      EXPECT_FALSE(R.Complete) << "thread " << T << " steps " << S;
      EXPECT_EQ(L.reason(), ExhaustKind::Steps);
    }
    auto SameRelation = [&](const SharedSaturation &A,
                            const SharedSaturation &Bb) {
      if (A.numTransitions() != Bb.numTransitions() ||
          A.memoryBytes() != Bb.memoryBytes())
        return false;
      for (QState Q = 0; Q < C.numSharedStates(); ++Q)
        if (A.extractRoot(Q) != Bb.extractRoot(Q))
          return false;
      return true;
    };

    LimitTracker Exact(ResourceLimits{0, Pops, 0, 0});
    SharedSaturationResult Again =
        sharedPostStar(P, C.numSharedStates(), Lang, &Exact);
    EXPECT_TRUE(Again.Complete);
    EXPECT_TRUE(SameRelation(Again.Sat, Full.Sat));

    // Bytes: the recorded peak is the exact sufficiency threshold --
    // the footprint is a pure function of the pops, so one byte less
    // truncates and the peak itself completes.
    ResourceLimits Starved = ResourceLimits::unlimited();
    Starved.MaxBytes = Peak - 1;
    LimitTracker LS(Starved);
    SharedSaturationResult Cut =
        sharedPostStar(P, C.numSharedStates(), Lang, &LS);
    EXPECT_FALSE(Cut.Complete) << "thread " << T;
    EXPECT_EQ(LS.reason(), ExhaustKind::Memory);

    ResourceLimits Enough = ResourceLimits::unlimited();
    Enough.MaxBytes = Peak;
    LimitTracker LE(Enough);
    SharedSaturationResult Ok =
        sharedPostStar(P, C.numSharedStates(), Lang, &LE);
    EXPECT_TRUE(Ok.Complete) << "thread " << T;
    EXPECT_TRUE(SameRelation(Ok.Sat, Full.Sat));

    // Stepping the byte budget down to one byte: completeness is
    // monotone in the budget, and truncation always reports Memory.
    bool WasComplete = true;
    for (uint64_t Bytes = Peak; Bytes >= 1; Bytes /= 2) {
      ResourceLimits RL = ResourceLimits::unlimited();
      RL.MaxBytes = Bytes;
      LimitTracker LT(RL);
      SharedSaturationResult R =
          sharedPostStar(P, C.numSharedStates(), Lang, &LT);
      EXPECT_FALSE(R.Complete && !WasComplete)
          << "thread " << T << " bytes " << Bytes
          << ": completeness not monotone in the budget";
      if (!R.Complete) {
        EXPECT_EQ(LT.reason(), ExhaustKind::Memory);
      }
      WasComplete = R.Complete;
    }
  }
}

//===----------------------------------------------------------------------===//
// Fault sweeps: inject at EVERY probe index of a reference run and
// demand a clean verdict each time, then rerun disarmed and demand the
// reference result back -- a fault must never leave torn global state.
//===----------------------------------------------------------------------===//

namespace {

/// Sweeps point \p P across every index it can fire at during the two
/// engine runs on \p F; \p Pool routes the runs through a thread pool
/// (required for the Worker point, harmless otherwise).
void sweepEnginePoint(fault::Point P, const CpdsFile &F,
                      exec::ThreadPool *Pool) {
  // Keep the sweep quadratic-but-small: tight step budget, tiny bound.
  ResourceLimits L;
  L.MaxStates = 0;
  L.MaxSteps = 4000;
  L.MaxContexts = 3;
  L.MaxMillis = 0;

  RunResult RefE, RefS;
  Summary FullE = runExplicit(F, L, &RefE, Pool);
  Summary FullS = runSymbolic(F, L, &RefS, Pool);

  // Counting pass: an index no run reaches tallies probes without
  // firing.
  uint64_t Probes;
  {
    fault::ScopedArm Count(P, UINT64_MAX);
    runExplicit(F, L, nullptr, Pool);
    runSymbolic(F, L, nullptr, Pool);
    Probes = fault::probes(P);
    EXPECT_FALSE(fault::fired());
  }
  ASSERT_GT(Probes, 0u) << "point is not instrumented on this path";
  // "Every index" must stay literal -- if the engines ever probe this
  // much, shrink the budgets above rather than silently striding.
  ASSERT_LT(Probes, 60000u) << "sweep would silently take too long";

  for (uint64_t Idx = 0; Idx < Probes; ++Idx) {
    fault::ScopedArm Arm(P, Idx);
    RunResult RE, RS;
    Summary SE = runExplicit(F, L, &RE, Pool);
    Summary SS = runSymbolic(F, L, &RS, Pool);
    // At most one run observes the fault; each ends clean: either the
    // reference verdict (the fault hit the other run, or a step charge
    // that was failing anyway) or an injected-exhaustion truncation.
    if (!(SE == FullE)) {
      EXPECT_TRUE(RE.Exhausted && RE.ExhaustedBy == ExhaustKind::Injected)
          << "idx " << Idx << ": " << str(SE) << " vs " << str(FullE);
    }
    if (!(SS == FullS)) {
      EXPECT_TRUE(RS.Exhausted && RS.ExhaustedBy == ExhaustKind::Injected)
          << "idx " << Idx << ": " << str(SS) << " vs " << str(FullS);
    }
    EXPECT_TRUE(fault::fired()) << "idx " << Idx << " never reached";
    if (::testing::Test::HasFailure())
      return;
  }

  // The clean rerun: any torn state a fault left behind shows up here.
  RunResult RE, RS;
  Summary SE = runExplicit(F, L, &RE, Pool);
  Summary SS = runSymbolic(F, L, &RS, Pool);
  EXPECT_TRUE(SE == FullE) << str(SE) << " vs " << str(FullE);
  EXPECT_TRUE(SS == FullS) << str(SS) << " vs " << str(FullS);
}

} // namespace

TEST(Robustness, AllocFaultSweepEndsInCleanVerdicts) {
  CpdsFile F = models::buildFig1();
  sweepEnginePoint(fault::Point::Alloc, F, nullptr);
}

TEST(Robustness, StepFaultSweepEndsInCleanVerdicts) {
  CpdsFile F = models::buildFig1();
  sweepEnginePoint(fault::Point::Step, F, nullptr);
}

TEST(Robustness, WorkerFaultSweepEndsInCleanVerdicts) {
  // On a model this small the drivers dispatch no level: the Worker
  // probes are those of G cap Z's background build, one per run.
  CpdsFile F = models::buildFig1();
  exec::ThreadPool Pool(2);
  sweepEnginePoint(fault::Point::Worker, F, &Pool);
}

TEST(Robustness, WorkerFaultSweepOverDispatchedLevels) {
  // The explicit engine with every level dispatched: a fault at any
  // Worker probe of a level batch surfaces from advance() as the
  // injected fault (runGuarded's input), and a clean rerun on the same
  // pool finds the reference rounds again.
  CpdsFile F = models::buildBluetooth(1, 1, 1);
  exec::ThreadPool Pool(2);
  ResourceLimits L = referenceLimits();
  L.MaxContexts = 4;
  auto Run = [&](bool &Faulted) {
    CbaEngine E(F.System, L);
    E.setParallel(&Pool, /*MinLevel=*/1);
    Faulted = false;
    try {
      while (E.bound() < L.MaxContexts &&
             E.advance() == CbaEngine::RoundStatus::Ok)
        ;
    } catch (const fault::InjectedFault &) {
      Faulted = true;
    }
    return std::make_pair(E.reachedSize(), E.visibleFirstSeen());
  };
  bool Faulted = false;
  auto Ref = Run(Faulted);
  uint64_t Probes;
  {
    fault::ScopedArm Count(fault::Point::Worker, UINT64_MAX);
    Run(Faulted);
    Probes = fault::probes(fault::Point::Worker);
  }
  ASSERT_GT(Probes, 0u) << "no level was dispatched";
  ASSERT_LT(Probes, 60000u) << "sweep would silently take too long";
  for (uint64_t Idx = 0; Idx < Probes; ++Idx) {
    fault::ScopedArm Arm(fault::Point::Worker, Idx);
    Run(Faulted);
    EXPECT_TRUE(Faulted) << "idx " << Idx << " never surfaced";
    if (::testing::Test::HasFailure())
      return;
  }
  EXPECT_TRUE(Run(Faulted) == Ref);
  EXPECT_FALSE(Faulted);
}

TEST(Robustness, IoFaultTakesTheErrorPath) {
  CpdsFile F = models::buildFig1();
  std::string Text = printCpds(F);
  std::string Path = ::testing::TempDir() + "robustness-fig1.cpds";
  {
    FILE *Out = fopen(Path.c_str(), "w");
    ASSERT_NE(Out, nullptr);
    ASSERT_EQ(fwrite(Text.data(), 1, Text.size(), Out), Text.size());
    fclose(Out);
  }

  ErrorOr<CpdsFile> Ref = parseCpdsFile(Path);
  ASSERT_TRUE(static_cast<bool>(Ref)) << Ref.error().str();

  uint64_t Probes;
  {
    fault::ScopedArm Count(fault::Point::Io, UINT64_MAX);
    (void)parseCpdsFile(Path);
    Probes = fault::probes(fault::Point::Io);
  }
  ASSERT_GT(Probes, 0u);

  // Every index: the parse degrades to an ordinary diagnostic.
  for (uint64_t Idx = 0; Idx < Probes; ++Idx) {
    fault::ScopedArm Arm(fault::Point::Io, Idx);
    ErrorOr<CpdsFile> R = parseCpdsFile(Path);
    EXPECT_FALSE(static_cast<bool>(R)) << "idx " << Idx;
    EXPECT_TRUE(fault::fired());
  }

  // One index past the last probe: never fires, parse is unharmed.
  {
    fault::ScopedArm Arm(fault::Point::Io, Probes);
    ErrorOr<CpdsFile> R = parseCpdsFile(Path);
    ASSERT_TRUE(static_cast<bool>(R)) << R.error().str();
    EXPECT_FALSE(fault::fired());
    EXPECT_EQ(printCpds(*R), Text);
  }
  remove(Path.c_str());
}
