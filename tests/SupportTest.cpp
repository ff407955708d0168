//===-- tests/SupportTest.cpp - Unit tests for the support library ---------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/Algorithms.h"
#include "exec/ThreadPool.h"
#include "models/Models.h"
#include "obs/Metrics.h"
#include "support/ErrorOr.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"
#include "support/Limits.h"
#include "support/StringUtils.h"
#include "support/SymbolTable.h"
#include "support/Timer.h"

using namespace cuba;

//===----------------------------------------------------------------------===//
// ErrorOr
//===----------------------------------------------------------------------===//

static ErrorOr<int> mightFail(bool Fail) {
  if (Fail)
    return Error("boom", 3, 7);
  return 42;
}

TEST(ErrorOr, ValueState) {
  auto R = mightFail(false);
  ASSERT_TRUE(R);
  EXPECT_EQ(*R, 42);
  EXPECT_EQ(R.take(), 42);
}

TEST(ErrorOr, ErrorState) {
  auto R = mightFail(true);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().message(), "boom");
  EXPECT_EQ(R.error().line(), 3u);
  EXPECT_EQ(R.error().column(), 7u);
  EXPECT_EQ(R.error().str(), "3:7: boom");
}

TEST(ErrorOr, ErrorWithoutLocation) {
  Error E("plain");
  EXPECT_FALSE(E.hasLocation());
  EXPECT_EQ(E.str(), "plain");
}

TEST(ErrorOr, VoidSpecialisation) {
  ErrorOr<void> Ok;
  EXPECT_TRUE(Ok);
  ErrorOr<void> Bad{Error("nope")};
  EXPECT_FALSE(Bad);
  EXPECT_EQ(Bad.error().message(), "nope");
}

TEST(ErrorOr, MovesNonCopyableValues) {
  ErrorOr<std::unique_ptr<int>> R(std::make_unique<int>(5));
  ASSERT_TRUE(R);
  std::unique_ptr<int> P = R.take();
  EXPECT_EQ(*P, 5);
}

TEST(ErrorOr, MoveConstructionTransfersOwnership) {
  ErrorOr<std::unique_ptr<int>> A(std::make_unique<int>(9));
  ErrorOr<std::unique_ptr<int>> B(std::move(A));
  ASSERT_TRUE(B);
  EXPECT_EQ(**B, 9);
  // The moved-from wrapper still holds an (empty) value, not an error.
  EXPECT_TRUE(A);      // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(*A, nullptr);
}

TEST(ErrorOr, MoveAssignmentAcrossStates) {
  ErrorOr<std::unique_ptr<int>> V(std::make_unique<int>(4));
  ErrorOr<std::unique_ptr<int>> E{Error("gone")};
  E = std::move(V);
  ASSERT_TRUE(E);
  EXPECT_EQ(**E, 4);
  V = ErrorOr<std::unique_ptr<int>>{Error("now empty")};
  ASSERT_FALSE(V);
  EXPECT_EQ(V.error().message(), "now empty");
}

TEST(ErrorOr, TakeLeavesMovedFromValue) {
  ErrorOr<std::vector<int>> R(std::vector<int>{1, 2, 3});
  std::vector<int> V = R.take();
  EXPECT_EQ(V, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(R);        // Still the value state...
  EXPECT_TRUE(R->empty()); // ...but the payload has been moved out.
}

TEST(ErrorOr, ErrorStateSurvivesMove) {
  ErrorOr<int> A{Error("original", 2, 5)};
  ErrorOr<int> B(std::move(A));
  ASSERT_FALSE(B);
  EXPECT_EQ(B.error().str(), "2:5: original");
}

//===----------------------------------------------------------------------===//
// SymbolTable
//===----------------------------------------------------------------------===//

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable T;
  EXPECT_EQ(T.intern("a"), 0u);
  EXPECT_EQ(T.intern("b"), 1u);
  EXPECT_EQ(T.intern("a"), 0u);
  EXPECT_EQ(T.size(), 2u);
}

TEST(SymbolTable, LookupMissReturnsSentinel) {
  SymbolTable T;
  T.intern("x");
  EXPECT_EQ(T.lookup("y"), UINT32_MAX);
  EXPECT_TRUE(T.contains("x"));
  EXPECT_FALSE(T.contains("y"));
}

TEST(SymbolTable, NameRoundTrip) {
  SymbolTable T;
  uint32_t Id = T.intern("hello");
  EXPECT_EQ(T.name(Id), "hello");
}

TEST(SymbolTable, NearCollidingNamesStayDistinct) {
  // Names differing only in case, length-one extensions, and embedded
  // NUL-free lookalikes must all intern to distinct ids.
  SymbolTable T;
  std::vector<std::string> Names = {"a",  "A",  "a0", "a00", "0a",
                                    "aa", "a_", "_a", "a.",  "a$"};
  std::vector<uint32_t> Ids;
  for (const std::string &N : Names)
    Ids.push_back(T.intern(N));
  EXPECT_EQ(T.size(), Names.size());
  for (size_t I = 0; I < Names.size(); ++I) {
    EXPECT_EQ(T.lookup(Names[I]), Ids[I]) << Names[I];
    EXPECT_EQ(T.name(Ids[I]), Names[I]);
  }
}

TEST(SymbolTable, StableAcrossRehashing) {
  // Interning enough names to force many rehashes of the backing map
  // must not invalidate earlier ids or lookups (the map keys own their
  // strings; ids are dense indices into the name vector).
  SymbolTable T;
  constexpr uint32_t N = 10'000;
  for (uint32_t I = 0; I < N; ++I)
    ASSERT_EQ(T.intern("sym" + std::to_string(I)), I);
  // Interleaved duplicates return the original ids.
  for (uint32_t I = 0; I < N; I += 97)
    EXPECT_EQ(T.intern("sym" + std::to_string(I)), I);
  EXPECT_EQ(T.size(), N);
  for (uint32_t I = 0; I < N; I += 131) {
    EXPECT_EQ(T.lookup("sym" + std::to_string(I)), I);
    EXPECT_EQ(T.name(I), "sym" + std::to_string(I));
  }
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hashing, OrderSensitive) {
  uint64_t A = hashCombine(hashCombine(0, 1), 2);
  uint64_t B = hashCombine(hashCombine(0, 2), 1);
  EXPECT_NE(A, B);
}

TEST(Hashing, RangeMatchesManualFold) {
  std::vector<uint32_t> V = {3, 1, 4, 1, 5};
  uint64_t H = 0x42;
  for (uint32_t X : V)
    H = hashCombine(H, X);
  EXPECT_EQ(hashRange(V.begin(), V.end()), H);
}

TEST(Hashing, EmptyRangeIsStable) {
  std::vector<uint32_t> V;
  EXPECT_EQ(hashRange(V.begin(), V.end()),
            hashRange(V.begin(), V.end()));
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  abc\t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtils, SplitNonEmpty) {
  auto P = splitNonEmpty("a,,b,c,", ',');
  ASSERT_EQ(P.size(), 3u);
  EXPECT_EQ(P[0], "a");
  EXPECT_EQ(P[1], "b");
  EXPECT_EQ(P[2], "c");
  EXPECT_TRUE(splitNonEmpty("", ',').empty());
}

TEST(StringUtils, ParseUnsigned) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("12345"), 12345u);
  EXPECT_FALSE(parseUnsigned("").has_value());
  EXPECT_FALSE(parseUnsigned("12a").has_value());
  EXPECT_FALSE(parseUnsigned("-1").has_value());
  // Overflow is rejected, not wrapped.
  EXPECT_FALSE(parseUnsigned("99999999999999999999999").has_value());
  EXPECT_EQ(parseUnsigned("18446744073709551615"), UINT64_MAX);
}

TEST(StringUtils, IsIdentifier) {
  EXPECT_TRUE(isIdentifier("abc"));
  EXPECT_TRUE(isIdentifier("_x1.y$z"));
  EXPECT_FALSE(isIdentifier("1abc"));
  EXPECT_FALSE(isIdentifier(""));
  EXPECT_FALSE(isIdentifier("a b"));
}

//===----------------------------------------------------------------------===//
// Statistics: the named counters of obs/Metrics.h
//===----------------------------------------------------------------------===//

TEST(Statistics, CountersAccumulateAndReset) {
  obs::Metrics::resetAll();
  obs::Counter Alpha("test.alpha");
  Alpha += 3;
  Alpha += 2;
  obs::Counter Beta("test.beta");
  Beta += 7;
  EXPECT_EQ(obs::Metrics::value("test.alpha"), 5u);

  bool SawAlpha = false, SawBeta = false;
  for (const obs::InstrumentSnapshot &S : obs::Metrics::snapshot()) {
    if (S.Name == "test.alpha") {
      SawAlpha = true;
      EXPECT_EQ(S.Value, 5u);
    }
    if (S.Name == "test.beta") {
      SawBeta = true;
      EXPECT_EQ(S.Value, 7u);
    }
  }
  EXPECT_TRUE(SawAlpha);
  EXPECT_TRUE(SawBeta);

  obs::Metrics::resetAll();
  EXPECT_EQ(obs::Metrics::value("test.alpha"), 0u);

  // Handles registered under the same name share one slot.
  obs::Counter AlphaAgain("test.alpha");
  ++AlphaAgain;
  ++Alpha;
  EXPECT_EQ(obs::Metrics::value("test.alpha"), 2u);
  obs::Metrics::resetAll();
}

TEST(Statistics, ShardsSumAcrossThreads) {
  obs::Metrics::resetAll();
  static obs::Counter Counter("test.threads");
  exec::ThreadPool Pool(4);
  Pool.run(1000, [&](unsigned, size_t) { ++Counter; });
  EXPECT_EQ(obs::Metrics::value("test.threads"), 1000u);
  obs::Metrics::resetAll();
}

//===----------------------------------------------------------------------===//
// Limits
//===----------------------------------------------------------------------===//

TEST(Limits, StateBudget) {
  ResourceLimits L;
  L.MaxStates = 2;
  L.MaxSteps = 0;
  L.MaxMillis = 0;
  LimitTracker T(L);
  EXPECT_TRUE(T.chargeState());
  EXPECT_TRUE(T.chargeState());
  EXPECT_FALSE(T.chargeState());
  EXPECT_TRUE(T.exhausted());
}

TEST(Limits, StepBudget) {
  ResourceLimits L;
  L.MaxStates = 0;
  L.MaxSteps = 10;
  L.MaxMillis = 0;
  LimitTracker T(L);
  EXPECT_TRUE(T.chargeStep(10));
  EXPECT_FALSE(T.chargeStep(1));
  EXPECT_TRUE(T.exhausted());
}

TEST(Limits, UnlimitedNeverExhausts) {
  LimitTracker T(ResourceLimits::unlimited());
  for (int I = 0; I < 100000; ++I)
    ASSERT_TRUE(T.chargeStep());
  for (int I = 0; I < 1000; ++I)
    ASSERT_TRUE(T.chargeState());
  EXPECT_FALSE(T.exhausted());
}

// Exhaustion mid-run is a verdict, not a crash: each budget axis cut
// down to almost nothing must still produce a well-formed bounded
// result from both engine families.

TEST(Limits, MaxContextsHitMidRunReturnsBoundedVerdict) {
  CpdsFile File = models::buildFig1();
  RunOptions Opts;
  Opts.Limits = ResourceLimits::unlimited();
  Opts.Limits.MaxContexts = 1; // Fig. 1 needs k >= 5 to converge.
  RoundsResult R = runExplicitCombined(File.System, File.Property, Opts);
  EXPECT_EQ(R.Run.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(R.Run.Exhausted);
  EXPECT_LE(R.Run.KMax, 1u);
  EXPECT_GT(R.Run.VisibleStates, 0u);
}

TEST(Limits, StepBudgetHitMidRunReturnsBoundedVerdict) {
  CpdsFile File = models::buildFig1();
  RunOptions Opts;
  Opts.Limits = ResourceLimits::unlimited();
  Opts.Limits.MaxSteps = 5; // Runs out inside the first closure.
  RoundsResult R = runExplicitCombined(File.System, File.Property, Opts);
  EXPECT_EQ(R.Run.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(R.Run.Exhausted);
}

TEST(Limits, StateBudgetHitMidRunReturnsBoundedVerdict) {
  CpdsFile File = models::buildFig1();
  RunOptions Opts;
  Opts.Limits = ResourceLimits::unlimited();
  Opts.Limits.MaxStates = 2;
  RoundsResult R = runExplicitCombined(File.System, File.Property, Opts);
  EXPECT_EQ(R.Run.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(R.Run.Exhausted);
  EXPECT_LE(R.Run.StatesStored, 3u); // The state over budget plus R_0.
}

TEST(Limits, SymbolicEngineExhaustsGracefully) {
  CpdsFile File = models::buildFig1();
  RunOptions Opts;
  Opts.Limits = ResourceLimits::unlimited();
  Opts.Limits.MaxSteps = 5;
  RoundsResult R = runAlg3Symbolic(File.System, File.Property, Opts);
  EXPECT_EQ(R.Run.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(R.Run.Exhausted);
  EXPECT_EQ(R.Run.ExhaustedBy, ExhaustKind::Steps);
}

// Pin the window-*crossing* time probe: batch charges whose size does
// not divide 4096 never leave the counter exactly on a window boundary,
// so a `(Steps & 0xfff) == 0` probe would not fire until the counters
// happen to align (lcm(5, 4096) = 20480 steps here).  Crossing detection
// must time out within one window's worth of batch charges.
TEST(Limits, BatchChargeStillProbesTimeAcrossWindow) {
  ResourceLimits L = ResourceLimits::unlimited();
  L.MaxMillis = 1;
  LimitTracker T(L);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The deadline is already past; the first probe must catch it.  One
  // window is 4096 steps = 820 charges of 5; allow one extra window.
  unsigned Charges = 0;
  while (T.chargeStep(5) && Charges < 2000)
    ++Charges;
  EXPECT_LT(Charges, 1700u) << "time probe skipped by batch charges";
  EXPECT_TRUE(T.exhausted());
  EXPECT_EQ(T.reason(), ExhaustKind::Time);
}

TEST(Limits, MemoryBudgetIsStickyAndRecordsPeak) {
  ResourceLimits L = ResourceLimits::unlimited();
  L.MaxBytes = 1000;
  LimitTracker T(L);
  EXPECT_TRUE(T.checkMemory(400));
  EXPECT_TRUE(T.checkMemory(900));
  EXPECT_EQ(T.peakBytes(), 900u);
  EXPECT_FALSE(T.checkMemory(1001));
  EXPECT_EQ(T.peakBytes(), 1001u);
  // Sticky: shrinking the footprint does not un-exhaust the run, and
  // every other charge now fails too.
  EXPECT_FALSE(T.checkMemory(10));
  EXPECT_FALSE(T.chargeStep());
  EXPECT_FALSE(T.chargeState());
  EXPECT_TRUE(T.exhausted());
  EXPECT_EQ(T.reason(), ExhaustKind::Memory);
}

TEST(Limits, MemoryBudgetHitMidRunReturnsBoundedVerdict) {
  CpdsFile File = models::buildFig1();
  RunOptions Opts;
  Opts.Limits = ResourceLimits::unlimited();
  Opts.Limits.MaxBytes = 512; // A handful of states already exceeds this.
  RoundsResult E = runExplicitCombined(File.System, File.Property, Opts);
  EXPECT_EQ(E.Run.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(E.Run.Exhausted);
  EXPECT_EQ(E.Run.ExhaustedBy, ExhaustKind::Memory);
  RoundsResult S = runAlg3Symbolic(File.System, File.Property, Opts);
  EXPECT_EQ(S.Run.outcome(), Outcome::ResourceLimit);
  EXPECT_TRUE(S.Run.Exhausted);
  EXPECT_EQ(S.Run.ExhaustedBy, ExhaustKind::Memory);
}

//===----------------------------------------------------------------------===//
// FaultInject
//===----------------------------------------------------------------------===//

TEST(FaultInject, DisarmedProbesAreFree) {
  fault::disarm();
  EXPECT_FALSE(fault::fire(fault::Point::Alloc));
  EXPECT_NO_THROW(fault::checkAlloc());
}

TEST(FaultInject, FiresExactlyAtTheArmedIndexAndOnlyOnce) {
  fault::ScopedArm Arm(fault::Point::Io, 2);
  EXPECT_FALSE(fault::fire(fault::Point::Io));   // probe 0
  EXPECT_FALSE(fault::fire(fault::Point::Alloc)); // other point never fires
  EXPECT_FALSE(fault::fire(fault::Point::Io));   // probe 1
  EXPECT_TRUE(fault::fire(fault::Point::Io));    // probe 2: the armed one
  EXPECT_TRUE(fault::fired());
  EXPECT_FALSE(fault::fire(fault::Point::Io)); // at most once per arm
  EXPECT_EQ(fault::probes(fault::Point::Io), 4u);
  EXPECT_EQ(fault::probes(fault::Point::Alloc), 1u);
}

TEST(FaultInject, CheckAllocThrowsABadAlloc) {
  fault::ScopedArm Arm(fault::Point::Alloc, 0);
  // InjectedFault is-a bad_alloc, so the handler under test is the one a
  // real allocation failure would reach.
  EXPECT_THROW(fault::checkAlloc(), std::bad_alloc);
}

TEST(FaultInject, StepPointFlowsTheNormalTruncationPath) {
  fault::ScopedArm Arm(fault::Point::Step, 1);
  LimitTracker T(ResourceLimits::unlimited());
  EXPECT_TRUE(T.chargeStep()); // probe 0: not yet
  EXPECT_FALSE(T.chargeStep()); // probe 1: injected exhaustion
  EXPECT_TRUE(T.exhausted());
  EXPECT_EQ(T.reason(), ExhaustKind::Injected);
}

TEST(FaultInject, NeverFiringIndexCountsProbesForSweepSizing) {
  // A sweep first runs with an unreachable index to tally how many
  // probes a clean run makes, then replays each index.  Pin the tally
  // mechanics here.
  fault::ScopedArm Arm(fault::Point::Worker, UINT64_MAX);
  for (int I = 0; I < 5; ++I)
    EXPECT_FALSE(fault::fire(fault::Point::Worker));
  EXPECT_EQ(fault::probes(fault::Point::Worker), 5u);
  EXPECT_FALSE(fault::fired());
}

TEST(Timer, RSSProbesReportPlausibleValues) {
  // On Linux both probes should be positive and peak >= current.
  double Peak = peakRSSMegabytes();
  double Cur = currentRSSMegabytes();
  EXPECT_GT(Peak, 0.0);
  EXPECT_GT(Cur, 0.0);
  EXPECT_GE(Peak + 0.5, Cur);
}
