//===-- tests/ParallelDeterminismTest.cpp - jobs-N == jobs-1 pinning ------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of src/exec/: running the explicit engine on
/// a thread pool of any size must produce results bit-identical to the
/// serial path -- verdicts, round-by-round sizes, frontier contents in
/// discovery order (a proxy for dense id assignment), visibleFirstSeen
/// ordering and budget accounting.  Checked over 72 seeded random
/// instances (the fuzz generator's corner-shape presets) plus paper
/// models, at jobs 1 / 2 / 4 / 8, including runs whose budget exhausts
/// mid-round -- the trickiest path, since the dispatched commit must
/// stop at exactly the serial charge.  Every engine comparison runs
/// twice: with every level dispatched (CbaEngine::setParallel's MinLevel
/// of 1), and at the default threshold, under which these small levels
/// are expanded in place.  Both drivers are pinned across
/// RunOptions::Pool, which also builds G cap Z on a worker beside the
/// rounds; the symbolic one on systems with classes of identical threads
/// (run on orbits) with its det trace and det metrics too.
///
/// Symbolic rounds are serial at every job count, so that engine is
/// pinned against itself instead: a budget only stops or re-does work,
/// so every round a budgeted run completes -- under a step, state or
/// byte cap that truncates it, or a cache cap that evicts saturations --
/// holds exactly the states, visible sets and languages an unbudgeted
/// run finds there.  The per-fact taint folds are pinned both ways.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "core/Algorithms.h"
#include "core/CbaEngine.h"
#include "core/SymbolicEngine.h"
#include "dataflow/TaintFolds.h"
#include "exec/ThreadPool.h"
#include "models/Models.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "testing/DataflowOracle.h"
#include "testing/RandomCpds.h"

#include "DetTrace.h"

using namespace cuba;
using cuba::testing::DetMetrics;

namespace {

/// Budgets mirror the fuzz harness: tight enough that corner-shape
/// instances regularly exhaust (exercising mid-round truncation), with
/// no wall-clock cutoff so runs are machine-independent.
const ResourceLimits FuzzLimits{10'000, 1'000'000, 8, 0};
/// A much tighter budget that forces exhaustion inside a round on
/// almost every instance.
const ResourceLimits TinyLimits{40, 400, 8, 0};

constexpr unsigned MaxK = 6;

/// Everything observable about an explicit run, round by round.
struct ExplicitTrace {
  std::vector<int> Statuses;
  std::vector<size_t> Reached, Visible;
  std::vector<std::vector<GlobalState>> Frontiers;
  std::vector<std::pair<VisibleState, unsigned>> FirstSeen;
  uint64_t Steps = 0, States = 0, PeakBytes = 0;

  bool operator==(const ExplicitTrace &) const = default;
};

ExplicitTrace runExplicit(const Cpds &C, const ResourceLimits &L,
                          exec::ThreadPool *Pool,
                          size_t MinLevel = CbaEngine::MinParallelLevel) {
  CbaEngine E(C, L);
  E.setParallel(Pool, MinLevel);
  ExplicitTrace T;
  T.Frontiers.push_back(E.frontier());
  while (E.bound() < MaxK) {
    bool Exhausted = E.advance() == CbaEngine::RoundStatus::Exhausted;
    T.Statuses.push_back(Exhausted ? 1 : 0);
    T.Reached.push_back(E.reachedSize());
    T.Visible.push_back(E.visibleSize());
    T.Frontiers.push_back(E.frontier());
    if (Exhausted)
      break;
  }
  T.FirstSeen = E.visibleFirstSeen();
  T.Steps = E.limits().steps();
  T.States = E.limits().states();
  T.PeakBytes = E.limits().peakBytes();
  return T;
}

/// What a symbolic run found, round by round.  The per-round
/// language-arena size pins DfaId assignment: ids are dense and
/// append-only, so equal counts at every round plus equal visible sets
/// mean the interning schedule matched.
struct SymbolicTrace {
  std::vector<int> Statuses;
  std::vector<size_t> SymStates, Visible, Languages;
  std::vector<std::vector<VisibleState>> NewPerRound;
};

SymbolicTrace runSymbolic(const Cpds &C, const ResourceLimits &L,
                          unsigned Rounds = MaxK) {
  SymbolicEngine E(C, L);
  SymbolicTrace T;
  while (E.bound() < Rounds) {
    bool Exhausted = E.advance() == SymbolicEngine::RoundStatus::Exhausted;
    T.Statuses.push_back(Exhausted ? 1 : 0);
    T.SymStates.push_back(E.symbolicStateCount());
    T.Visible.push_back(E.visibleSize());
    T.Languages.push_back(E.languageStore().size());
    T.NewPerRound.push_back(E.newVisibleThisRound());
    if (Exhausted)
      break;
  }
  return T;
}

void expectSameExplicit(const ExplicitTrace &Serial, const ExplicitTrace &Par,
                        uint64_t Seed, const char *Tag) {
  EXPECT_EQ(Serial.Statuses, Par.Statuses) << Tag << " seed " << Seed;
  EXPECT_EQ(Serial.Reached, Par.Reached) << Tag << " seed " << Seed;
  EXPECT_EQ(Serial.Visible, Par.Visible) << Tag << " seed " << Seed;
  EXPECT_EQ(Serial.Frontiers == Par.Frontiers, true)
      << Tag << " frontier divergence at seed " << Seed;
  EXPECT_EQ(Serial.FirstSeen == Par.FirstSeen, true)
      << Tag << " first-seen divergence at seed " << Seed;
  EXPECT_EQ(Serial.Steps, Par.Steps) << Tag << " seed " << Seed;
  EXPECT_EQ(Serial.States, Par.States) << Tag << " seed " << Seed;
  EXPECT_EQ(Serial.PeakBytes, Par.PeakBytes) << Tag << " seed " << Seed;
}

/// Every round both \p Ref and the budgeted run \p Run completed (status
/// Ok) must hold the same symbolic states, visible states and language
/// arena: a budget stops work (truncation) or re-does it (eviction), but
/// never changes what a completed round found.  Returns the number of
/// rounds compared, which callers sum so the check cannot pass vacuously.
size_t expectSameCompletedRounds(const SymbolicTrace &Ref,
                                 const SymbolicTrace &Run, uint64_t Seed,
                                 const char *Tag) {
  size_t R = 0;
  for (; R < std::min(Ref.Statuses.size(), Run.Statuses.size()) &&
         !Ref.Statuses[R] && !Run.Statuses[R];
       ++R) {
    EXPECT_EQ(Ref.SymStates[R], Run.SymStates[R])
        << Tag << " seed " << Seed << " round " << R;
    EXPECT_EQ(Ref.Visible[R], Run.Visible[R])
        << Tag << " seed " << Seed << " round " << R;
    EXPECT_EQ(Ref.Languages[R], Run.Languages[R])
        << Tag << " seed " << Seed << " round " << R;
    EXPECT_EQ(Ref.NewPerRound[R] == Run.NewPerRound[R], true)
        << Tag << " per-round visible divergence at seed " << Seed
        << " round " << R;
  }
  return R;
}

/// The symbolic driver's results at two job counts must agree field by
/// field.
void expectSameSymbolicDriver(const RoundsResult &S1,
                              const RoundsResult &SP,
                              const std::string &Tag) {
  EXPECT_EQ(S1.Run.BugBound, SP.Run.BugBound) << Tag;
  EXPECT_EQ(S1.Run.ConvergedAt, SP.Run.ConvergedAt) << Tag;
  EXPECT_EQ(S1.Run.Exhausted, SP.Run.Exhausted) << Tag;
  EXPECT_EQ(S1.Run.KMax, SP.Run.KMax) << Tag;
  EXPECT_EQ(S1.Run.StatesStored, SP.Run.StatesStored) << Tag;
  EXPECT_EQ(S1.Run.VisibleStates, SP.Run.VisibleStates) << Tag;
  EXPECT_EQ(S1.Run.Witness, SP.Run.Witness) << Tag;
  EXPECT_EQ(S1.TkCollapse, SP.TkCollapse) << Tag;
  EXPECT_EQ(S1.RkCollapse, SP.RkCollapse) << Tag;
}

/// A symbolic driver run with its stripped det trace and det metrics.
struct TracedDriverRun {
  RoundsResult R;
  std::string DetTrace;
  DetMetrics Det;
};

TracedDriverRun runDriverTraced(const CpdsFile &File, const RunOptions &RO) {
  obs::Metrics::resetAll();
  obs::Trace::begin();
  TracedDriverRun T;
  T.R = runAlg3Symbolic(File.System, File.Property, RO);
  obs::Trace::end();
  T.DetTrace = cuba::testing::stripTrace(obs::Trace::render());
  T.Det = cuba::testing::detMetrics();
  return T;
}

using cuba::testing::AnnotatedProgram;

/// The dataflow oracle's seeded annotated program, analyzed.
std::optional<AnnotatedProgram> taintInstance(uint64_t Seed) {
  auto A = cuba::testing::reanalyze(
      cuba::testing::annotatedDataflowProgram(Seed));
  if (!A)
    return std::nullopt;
  return A.take();
}

/// Everything observable about one fold: its route, bound, counts and
/// visible set with first-seen rounds.
struct FoldTrace {
  int Fact = -1;
  bool Explicit = false;
  unsigned Bound = 0;
  bool Converged = false;
  uint64_t States = 0, Visible = 0;
  std::vector<std::pair<VisibleState, unsigned>> Seen;

  bool operator==(const FoldTrace &) const = default;
};

/// A run of the per-fact folds under \p L (on \p Pool when set), with
/// the metrics registry reset first so the run's own counters can be
/// read afterwards.
struct FoldsTrace {
  ExhaustKind Why = ExhaustKind::None;
  std::vector<FoldTrace> Folds;
  std::vector<SinkHit> Hits;
  std::vector<uint64_t> PeakBytes;
  DetMetrics Det;
};

FoldsTrace runFolds(const AnnotatedProgram &T, const ResourceLimits &L,
                    exec::ThreadPool *Pool = nullptr) {
  obs::Metrics::resetAll();
  TaintFoldOptions O;
  O.Limits = L;
  O.Pool = Pool;
  O.KeepVisible = true;
  auto R = runTaintFolds(T.Program, T.Info, O);
  EXPECT_TRUE(R) << R.error().str();
  FoldsTrace Out;
  Out.Det = cuba::testing::detMetrics();
  if (!R)
    return Out;
  Out.Why = R->ExhaustedBy;
  Out.Hits = R->Hits;
  for (FactFold &F : R->Folds) {
    Out.Folds.push_back({F.Fact, F.Explicit, F.Bound, F.Converged, F.States,
                         F.Visible, std::move(F.FirstSeen)});
    Out.PeakBytes.push_back(F.PeakBytes);
  }
  return Out;
}

/// The folds a budgeted run \p Run completed on \p Ref's route equal
/// \p Ref's.  The others agree with \p Ref's on the rounds both
/// completed: the fold the budget stopped in, and any whose FCR check
/// the budget cut short, which (as in runCuba) routes it to the
/// symbolic engine -- both engines' visible rounds are T(R_k).  Returns
/// the number of folds compared.
size_t expectSameCompletedFolds(const FoldsTrace &Ref, const FoldsTrace &Run,
                                uint64_t Seed, const char *Tag) {
  EXPECT_LE(Run.Folds.size(), Ref.Folds.size()) << Tag << " seed " << Seed;
  size_t N = std::min(Run.Folds.size(), Ref.Folds.size());
  for (size_t I = 0; I < N; ++I) {
    const FoldTrace &A = Ref.Folds[I], &B = Run.Folds[I];
    bool Stopped = I + 1 == Run.Folds.size() && Run.Why != ExhaustKind::None;
    if (A.Explicit == B.Explicit && !Stopped) {
      EXPECT_EQ(A == B, true) << Tag << " fold " << I << " diverges at seed "
                              << Seed;
      continue;
    }
    unsigned Bound = std::min(A.Bound, B.Bound);
    auto Completed = [&](const FoldTrace &F) {
      std::vector<std::pair<VisibleState, unsigned>> Out;
      for (const auto &E : F.Seen)
        if (E.second <= Bound)
          Out.push_back(E);
      return Out;
    };
    EXPECT_EQ(Completed(A) == Completed(B), true)
        << Tag << " completed rounds of fold " << I << " diverge at seed "
        << Seed;
  }
  return N;
}

/// Budgets whose stop point falls mid-level, inside a commit: awkward
/// (prime-ish) state and step caps, and byte caps, on top of FuzzLimits.
std::vector<ResourceLimits> midCommitBudgets() {
  std::vector<ResourceLimits> Budgets;
  for (uint64_t MaxStates : {23ull, 137ull}) {
    ResourceLimits L = FuzzLimits;
    L.MaxStates = MaxStates;
    Budgets.push_back(L);
  }
  {
    ResourceLimits L = FuzzLimits;
    L.MaxSteps = 311;
    Budgets.push_back(L);
  }
  for (uint64_t MaxBytes : {24ull * 1024, 48ull * 1024}) {
    ResourceLimits L = FuzzLimits;
    L.MaxBytes = MaxBytes;
    Budgets.push_back(L);
  }
  return Budgets;
}

/// The dispatch thresholds every engine comparison runs under: every
/// level dispatched, and the default.
constexpr size_t MinLevels[] = {1, CbaEngine::MinParallelLevel};

class ParallelDeterminismTest : public ::testing::Test {
protected:
  exec::ThreadPool Pool2{2};
  exec::ThreadPool Pool4{4};
  exec::ThreadPool Pool8{8};

  /// The explicit engine on \p C under \p L at jobs 2, 4 and 8, at each
  /// threshold, must equal its serial run.
  void expectExplicitMatches(const Cpds &C, const ResourceLimits &L,
                             uint64_t Seed, const char *Tag) {
    ExplicitTrace E1 = runExplicit(C, L, nullptr);
    for (exec::ThreadPool *Pool : {&Pool2, &Pool4, &Pool8})
      for (size_t MinLevel : MinLevels)
        expectSameExplicit(E1, runExplicit(C, L, Pool, MinLevel), Seed, Tag);
  }
};

TEST_F(ParallelDeterminismTest, EnginesMatchAcrossJobCountsOnRandomCpds) {
  size_t Compared = 0;
  for (uint64_t Seed = 1; Seed <= 72; ++Seed) {
    CpdsFile File = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    for (const ResourceLimits &L : {FuzzLimits, TinyLimits}) {
      const char *Tag = L.MaxStates == TinyLimits.MaxStates ? "tiny" : "fuzz";
      expectExplicitMatches(File.System, L, Seed, Tag);
    }
    // The symbolic engine's mid-round truncation: the tiny budget's
    // completed rounds are the fuzz budget's.
    Compared += expectSameCompletedRounds(
        runSymbolic(File.System, FuzzLimits),
        runSymbolic(File.System, TinyLimits), Seed, "tiny");
    if (HasFailure())
      break; // One seed's divergence is enough diagnostics.
  }
  EXPECT_GT(Compared, 0u) << "no tiny-budget symbolic round completed";
}

TEST_F(ParallelDeterminismTest, DriversMatchAcrossJobCounts) {
  for (uint64_t Seed = 101; Seed <= 130; ++Seed) {
    CpdsFile File = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    RunOptions Base;
    Base.Limits = FuzzLimits;

    RunOptions Jobs2 = Base, Jobs4 = Base, Jobs8 = Base;
    Jobs2.Pool = &Pool2;
    Jobs4.Pool = &Pool4;
    Jobs8.Pool = &Pool8;

    RoundsResult E1 = runExplicitCombined(File.System, File.Property, Base);
    RoundsResult S1 = runAlg3Symbolic(File.System, File.Property, Base);
    for (const RunOptions &RO : {Jobs2, Jobs4, Jobs8}) {
      RoundsResult EP = runExplicitCombined(File.System, File.Property, RO);
      EXPECT_EQ(E1.Run.BugBound, EP.Run.BugBound) << "seed " << Seed;
      EXPECT_EQ(E1.Run.ConvergedAt, EP.Run.ConvergedAt) << "seed " << Seed;
      EXPECT_EQ(E1.Run.Exhausted, EP.Run.Exhausted) << "seed " << Seed;
      EXPECT_EQ(E1.Run.KMax, EP.Run.KMax) << "seed " << Seed;
      EXPECT_EQ(E1.Run.StatesStored, EP.Run.StatesStored) << "seed " << Seed;
      EXPECT_EQ(E1.Run.VisibleStates, EP.Run.VisibleStates)
          << "seed " << Seed;
      EXPECT_EQ(E1.Run.Witness, EP.Run.Witness) << "seed " << Seed;
      EXPECT_EQ(E1.RkCollapse, EP.RkCollapse) << "seed " << Seed;
      EXPECT_EQ(E1.TkCollapse, EP.TkCollapse) << "seed " << Seed;

      expectSameSymbolicDriver(
          S1, runAlg3Symbolic(File.System, File.Property, RO),
          "seed " + std::to_string(Seed));
    }
    if (HasFailure())
      break;
  }
}

TEST_F(ParallelDeterminismTest, SymmetricModelsMatchAcrossJobCounts) {
  // Systems with classes of identical threads, which the symbolic driver
  // runs on orbits: Stefan-1/3..8 (one class), Proc-2 (two) and seeds of
  // the fuzzer's replicated-threads preset, every other one of which
  // keeps a drawn property that may split or dissolve the class.
  struct Instance {
    std::string Name;
    CpdsFile File;
    ResourceLimits Limits;
  };
  const ResourceLimits Loose{200'000, 50'000'000, 24, 0};
  std::vector<Instance> Instances;
  for (unsigned N = 3; N <= 8; ++N)
    Instances.push_back(
        {"Stefan-1/" + std::to_string(N), models::buildStefan1(N), Loose});
  Instances.push_back({"Proc-2", models::buildProc2(), Loose});
  for (uint64_t I = 0; I < 20; ++I) {
    uint64_t Seed = 8 * I + 7;
    Instances.push_back({"replicated seed " + std::to_string(Seed),
                         cuba::testing::generateRandomCpds(
                             Seed, cuba::testing::cornerShapeOptions(Seed)),
                         FuzzLimits});
  }
  for (const Instance &In : Instances) {
    RunOptions Base;
    Base.Limits = In.Limits;
    RunOptions Jobs2 = Base, Jobs4 = Base, Jobs8 = Base;
    Jobs2.Pool = &Pool2;
    Jobs4.Pool = &Pool4;
    Jobs8.Pool = &Pool8;
    TracedDriverRun S1 = runDriverTraced(In.File, Base);
    for (const RunOptions &RO : {Jobs2, Jobs4, Jobs8}) {
      TracedDriverRun SP = runDriverTraced(In.File, RO);
      expectSameSymbolicDriver(S1.R, SP.R, In.Name);
      EXPECT_EQ(S1.DetTrace, SP.DetTrace) << In.Name;
      EXPECT_EQ(S1.Det == SP.Det, true) << In.Name << ": det metrics differ";
    }
    if (HasFailure())
      break;
  }
}

TEST_F(ParallelDeterminismTest, PaperModelsMatchAcrossJobCounts) {
  // Deeper, wider instances than the random corner shapes: the
  // Bluetooth driver (both the narrow and the wide configuration) and
  // Fig. 1, with a budget loose enough to run all MaxK rounds.
  const ResourceLimits Loose{200'000, 50'000'000, 8, 0};
  CpdsFile Models[] = {models::buildFig1(), models::buildBluetooth(3, 1, 1),
                       models::buildBluetooth(3, 2, 2)};
  for (const CpdsFile &File : Models) {
    expectExplicitMatches(File.System, Loose, 0, "model");
  }
}

TEST_F(ParallelDeterminismTest, MemoryBudgetMatchesAcrossJobCounts) {
  // A MaxBytes budget tight enough that many corner-shape instances
  // exhaust on memory mid-run.  Logical byte accounting is checked only
  // at serially ordered commit points, so the exhaustion round, the peak
  // figure, and everything downstream must be bit-identical at any job
  // count.  The symbolic engine's byte budget only truncates: its
  // completed rounds are the fuzz budget's.
  ResourceLimits MemLimits = FuzzLimits;
  MemLimits.MaxBytes = 64 * 1024;
  size_t Compared = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    CpdsFile File = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    expectExplicitMatches(File.System, MemLimits, Seed, "mem");
    Compared += expectSameCompletedRounds(runSymbolic(File.System, FuzzLimits),
                                          runSymbolic(File.System, MemLimits),
                                          Seed, "mem");
    if (HasFailure())
      break;
  }
  EXPECT_GT(Compared, 0u);
}

TEST_F(ParallelDeterminismTest, EvictionScheduleMatchesAcrossJobCounts) {
  // A cache-retention budget small enough that the symbolic engine
  // evicts saturations at almost every round boundary.  Eviction only
  // forces work to be redone, so the rounds an evicting run completes
  // must be exactly the unevicting run's; re-running after eviction
  // exercises the cache-rebuild (SatCache remap) path.
  ResourceLimits EvictLimits = FuzzLimits;
  EvictLimits.MaxCacheBytes = 2 * 1024;
  uint64_t Evictions = 0;
  size_t Compared = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    CpdsFile File = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    uint64_t Before = obs::Metrics::value("symbolic.sat_evictions");
    SymbolicTrace S1 = runSymbolic(File.System, EvictLimits);
    Evictions += obs::Metrics::value("symbolic.sat_evictions") - Before;
    Compared += expectSameCompletedRounds(runSymbolic(File.System, FuzzLimits),
                                          S1, Seed, "evict");
    if (HasFailure())
      break;
  }
  // The paper models, deeper and wider than the random corner shapes,
  // under a budget loose enough to run every round but a cache small
  // enough to keep evicting.
  ResourceLimits Loose{200'000, 50'000'000, 8, 0};
  ResourceLimits ModelEvict = Loose;
  ModelEvict.MaxCacheBytes = 8 * 1024;
  CpdsFile Models[] = {models::buildFig1(), models::buildBluetooth(3, 2, 2)};
  for (const CpdsFile &File : Models) {
    uint64_t Before = obs::Metrics::value("symbolic.sat_evictions");
    SymbolicTrace S1 = runSymbolic(File.System, ModelEvict);
    Evictions += obs::Metrics::value("symbolic.sat_evictions") - Before;
    EXPECT_EQ(expectSameCompletedRounds(runSymbolic(File.System, Loose), S1,
                                        0, "model-evict"),
              MaxK);
  }
  EXPECT_GT(Evictions, 0u) << "the cache budget never evicted";
  EXPECT_GT(Compared, 0u);
}

TEST_F(ParallelDeterminismTest, ShardStressDegenerateShardCountsMatch) {
  // The commit-stress pin: corner-shape instances whose levels are tiny
  // (one parent, a handful of candidates) or wide, at jobs 1 / 2 / 8, so
  // chunking ranges from one candidate per worker to one chunk per
  // level.  The serial level commit must stay bit-identical to jobs-1,
  // including budget accounting.
  for (uint64_t Seed = 201; Seed <= 224; ++Seed) {
    CpdsFile File = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    for (const ResourceLimits &L : {FuzzLimits, TinyLimits}) {
      const char *Tag =
          L.MaxStates == TinyLimits.MaxStates ? "shard-tiny" : "shard-fuzz";
      expectExplicitMatches(File.System, L, Seed, Tag);
    }
    if (HasFailure())
      break;
  }
}

TEST_F(ParallelDeterminismTest, ShardStressMidCommitExhaustionMatches) {
  // Budget exhaustion landing *inside* a level's commit: the serial
  // commit pass must stop at exactly the serial charge -- same
  // exhaustion round, same Steps / States / PeakBytes -- whether the
  // charge that trips the limit is a step, a state, or a memory charge.
  // The step/state budgets are deliberately awkward (prime-ish,
  // mid-level) so the stop point falls mid-level rather than on a round
  // boundary.
  std::vector<ResourceLimits> Budgets = midCommitBudgets();
  for (uint64_t Seed = 201; Seed <= 216; ++Seed) {
    CpdsFile File = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    for (const ResourceLimits &L : Budgets) {
      expectExplicitMatches(File.System, L, Seed, "shard-exhaust");
    }
    if (HasFailure())
      break;
  }
}

TEST_F(ParallelDeterminismTest, WideSystemsMatch) {
  // Five to eight threads: wider than the corner shapes (at most four),
  // so every state row and visible tuple spans more words than the old
  // four-slot inline state layout held.
  std::vector<ResourceLimits> Budgets = {FuzzLimits, TinyLimits};
  for (const ResourceLimits &L : midCommitBudgets())
    Budgets.push_back(L);
  size_t Compared = 0;
  for (uint64_t Seed = 301; Seed <= 324; ++Seed) {
    cuba::testing::RandomCpdsOptions O =
        cuba::testing::cornerShapeOptions(Seed);
    O.MinThreads = 5;
    O.MaxThreads = 8;
    CpdsFile File = cuba::testing::generateRandomCpds(Seed, O);
    for (const ResourceLimits &L : Budgets) {
      expectExplicitMatches(File.System, L, Seed, "wide");
    }
    // Each budget's completed symbolic rounds are the fuzz budget's.
    SymbolicTrace Ref = runSymbolic(File.System, FuzzLimits);
    for (const ResourceLimits &L : Budgets)
      Compared += expectSameCompletedRounds(Ref, runSymbolic(File.System, L),
                                            Seed, "wide");
    if (HasFailure())
      break;
  }
  EXPECT_GT(Compared, 0u);
}

TEST_F(ParallelDeterminismTest, EvictionOnPipelinedRoundMatches) {
  // Eviction decisions stay at the round boundary: a cache budget tight
  // enough to evict at nearly every boundary, on instances deep enough
  // that rounds >= 2 carry cache pressure.  Any eviction that lost a
  // record, or a re-saturation that leaked into the wrong cache slot,
  // makes a completed round differ from the unevicting run's.
  size_t Compared = 0;
  for (uint64_t CacheBytes : {1ull * 1024, 4ull * 1024}) {
    ResourceLimits L = FuzzLimits;
    L.MaxCacheBytes = CacheBytes;
    for (uint64_t Seed = 201; Seed <= 220; ++Seed) {
      CpdsFile File = cuba::testing::generateRandomCpds(
          Seed, cuba::testing::cornerShapeOptions(Seed));
      Compared += expectSameCompletedRounds(
          runSymbolic(File.System, FuzzLimits), runSymbolic(File.System, L),
          Seed, "round-evict");
      if (HasFailure())
        break;
    }
  }
  EXPECT_GT(Compared, 0u);
  // The wide Bluetooth model under simultaneous cache pressure and a
  // step budget that exhausts mid-run: it evicts at the boundary after
  // round 6 and stops inside round 7 (75,951 and 135,851 steps into the
  // unbudgeted run), so eviction and truncation interact on one deep
  // instance.
  ResourceLimits Loose{200'000, 50'000'000, 8, 0};
  ResourceLimits Hard{200'000, 100'000, 8, 0};
  Hard.MaxCacheBytes = 6 * 1024;
  CpdsFile Wide = models::buildBluetooth(3, 2, 2);
  uint64_t Before = obs::Metrics::value("symbolic.sat_evictions");
  SymbolicTrace S1 = runSymbolic(Wide.System, Hard, 7);
  EXPECT_GT(obs::Metrics::value("symbolic.sat_evictions"), Before)
      << "the model run never evicted";
  EXPECT_EQ(S1.Statuses.back(), 1) << "the step budget never stopped it";
  EXPECT_EQ(expectSameCompletedRounds(runSymbolic(Wide.System, Loose, 7), S1,
                                      0, "round-evict-model"),
            6u);
}

TEST_F(ParallelDeterminismTest, ExpandAllAblationMatches) {
  // The ablation path (re-expanding every known state) shares the
  // closure loop; pin it on one model.
  CpdsFile File = models::buildBluetooth(3, 1, 1);
  auto Run = [&](exec::ThreadPool *Pool, size_t MinLevel) {
    CbaEngine E(File.System, FuzzLimits);
    E.setExpandAll(true);
    E.setParallel(Pool, MinLevel);
    while (E.bound() < 4 &&
           E.advance() == CbaEngine::RoundStatus::Ok)
      ;
    return std::make_tuple(E.reachedSize(), E.visibleSize(),
                           E.limits().steps(), E.visibleFirstSeen());
  };
  auto Serial = Run(nullptr, CbaEngine::MinParallelLevel);
  for (exec::ThreadPool *Pool : {&Pool2, &Pool4, &Pool8})
    for (size_t MinLevel : MinLevels)
      EXPECT_EQ(Serial == Run(Pool, MinLevel), true)
          << "jobs " << Pool->jobs() << " min level " << MinLevel;
}

TEST_F(ParallelDeterminismTest, SmallModelsRunNoLevelBatchAtJobs4) {
  // Levels below CbaEngine::MinParallelLevel parents are expanded in
  // place, so the verifier on a model whose levels are all small runs no
  // level batch on the pool; the pool only builds G cap Z beside the
  // rounds, which is not a batch.  Forcing dispatch through the engine
  // API does run batches on the same pool, so the probe can see them.
  auto Batches = [&] {
    uint64_t N = 0;
    for (const exec::WorkerStats &W : Pool4.workerStats())
      N += W.Batches;
    return N;
  };
  const ResourceLimits Loose{200'000, 50'000'000, 8, 0};
  CpdsFile File = models::buildBluetooth(3, 2, 2);
  RunOptions RO;
  RO.Limits = Loose;
  RO.Pool = &Pool4;
  uint64_t Before = Batches();
  RoundsResult R = runExplicitCombined(File.System, File.Property, RO);
  EXPECT_GT(R.Run.StatesStored, 500u);
  EXPECT_EQ(Batches(), Before) << "a small level was dispatched";

  CbaEngine E(File.System, Loose);
  E.setParallel(&Pool4, 1);
  while (E.bound() < 4 && E.advance() == CbaEngine::RoundStatus::Ok)
    ;
  EXPECT_GT(Batches(), Before) << "forced dispatch ran no batch";
}

TEST_F(ParallelDeterminismTest, DataflowRoundsMatchAcrossJobCounts) {
  // The per-fact folds of seeded annotated programs: at jobs 2 and 8
  // (explicit folds on the pool) every fold, hit, byte peak and det
  // metric equals the serial run's.  Under a budget that exhausts
  // mid-round, the folds completed before it and the completed rounds
  // of the fold it stops in equal the fuzz budget's; under a cache
  // budget tight enough that the symbolic folds' saturations are
  // evicted, every fold does.
  ResourceLimits Evict = FuzzLimits;
  Evict.MaxCacheBytes = 2 * 1024;
  struct Run {
    ResourceLimits L;
    const char *Tag;
  };
  const Run Runs[] = {{TinyLimits, "dataflow-tiny"},
                      {Evict, "dataflow-evict"}};
  uint64_t Evictions = 0;
  size_t Compared = 0;
  unsigned Checked = 0, Symbolic = 0;
  exec::ThreadPool Pool2(2), Pool8(8);
  for (uint64_t Seed = 0; Checked < 24; ++Seed) {
    ASSERT_LT(Seed, 200u) << "the frontend rejected too many seeds";
    std::optional<AnnotatedProgram> T = taintInstance(Seed);
    if (!T)
      continue;
    ++Checked;
    FoldsTrace Ref = runFolds(*T, FuzzLimits);
    for (exec::ThreadPool *Pool : {&Pool2, &Pool8}) {
      FoldsTrace Par = runFolds(*T, FuzzLimits, Pool);
      EXPECT_EQ(Ref.Why, Par.Why) << "seed " << Seed;
      EXPECT_EQ(Ref.Folds == Par.Folds, true) << "seed " << Seed;
      EXPECT_EQ(Ref.Hits == Par.Hits, true) << "seed " << Seed;
      EXPECT_EQ(Ref.PeakBytes, Par.PeakBytes) << "seed " << Seed;
      EXPECT_EQ(Ref.Det == Par.Det, true)
          << "det metrics diverge at seed " << Seed;
    }
    for (const FoldTrace &F : Ref.Folds)
      Symbolic += !F.Explicit;
    for (const Run &R : Runs) {
      FoldsTrace S1 = runFolds(*T, R.L);
      Evictions += obs::Metrics::value("symbolic.sat_evictions");
      Compared += expectSameCompletedFolds(Ref, S1, Seed, R.Tag);
    }
    if (HasFailure())
      break;
  }
  EXPECT_GT(Symbolic, 0u) << "no fold took the symbolic route";
  EXPECT_GT(Evictions, 0u) << "the cache budget never evicted";
  EXPECT_GT(Compared, 0u);
}

} // namespace
