//===-- tests/DifferentialTest.cpp - Randomized cross-engine tests ---------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of the explicit engine, the symbolic engine, the
/// baselines, and the top-level drivers over seeded random CPDS
/// workloads (testing/RandomCpds + testing/DifferentialOracle).
///
/// Every failure message carries the instance seed; rerun one seed with
///
///   CUBA_FUZZ_SEED=<seed> ./build/tools/cuba fuzz --count 1
///
/// or change the base seed of the whole suite via the same variable.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>

#include "fa/Canonicalize.h"
#include "models/Models.h"
#include "pds/ThreadSymmetry.h"
#include "support/StringUtils.h"
#include "testing/DifferentialOracle.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using namespace cuba::testing;

namespace {

/// Base seed for the whole suite; overridable for reproduction and for
/// CI seed rotation.
uint64_t baseSeed() {
  if (const char *Env = std::getenv("CUBA_FUZZ_SEED"))
    if (auto V = parseUnsigned(Env))
      return *V;
  return 1;
}

/// Budget per instance: small enough that non-FCR blowups get cut off
/// quickly, large enough that most instances complete all rounds.
OracleOptions quickOracle() {
  OracleOptions O;
  O.MaxK = 4;
  // State/step budgets only -- a wall-clock cutoff would make coverage
  // (and thus mismatch detection) machine-dependent.
  O.Limits = ResourceLimits{10'000, 1'000'000, 8, 0};
  return O;
}

/// Runs \p Count consecutive seeds starting at \p First through the
/// corner-shape rotation and the full oracle.
void runSeedRange(uint64_t First, uint64_t Count) {
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t Seed = First + I; // Wraps modulo 2^64 near UINT64_MAX.
    CpdsFile File = generateRandomCpds(Seed, cornerShapeOptions(Seed));
    OracleReport Rep = runDifferentialOracle(File, quickOracle());
    EXPECT_TRUE(Rep.ok())
        << "seed " << Seed << " (rerun: CUBA_FUZZ_SEED=" << Seed
        << " cuba fuzz --count 1)\n"
        << Rep.str() << "\ninstance:\n"
        << printCpds(File);
  }
}

// 240 seeded instances split into shards so `ctest -j` runs them in
// parallel; together with the corner-shape rotation every shape preset
// is hit by every shard.
TEST(Differential, RandomInstancesShard0) { runSeedRange(baseSeed(), 60); }
TEST(Differential, RandomInstancesShard1) {
  runSeedRange(baseSeed() + 60, 60);
}
TEST(Differential, RandomInstancesShard2) {
  runSeedRange(baseSeed() + 120, 60);
}
TEST(Differential, RandomInstancesShard3) {
  runSeedRange(baseSeed() + 180, 60);
}

// The symbolic-heavy corner shape (deep recursion, wide visible
// alphabets) concentrates work in the symbolic engine's canonicalizeNfa;
// run it explicitly so every suite execution exercises the flat
// automata plane hard, not just the 1-in-8 rotation slots.
TEST(Differential, SymbolicHeavyPreset) {
  cuba::testing::RandomCpdsOptions O =
      cornerShapeOptions(6); // The %8 == 6 slot.
  ASSERT_EQ(O.MaxSymbols, 5u) << "preset rotation changed; fix this test";
  for (uint64_t I = 0; I < 40; ++I) {
    uint64_t Seed = baseSeed() + I;
    CpdsFile File = generateRandomCpds(Seed, O);
    OracleReport Rep = runDifferentialOracle(File, quickOracle());
    EXPECT_TRUE(Rep.ok())
        << "seed " << Seed << " (symbolic-heavy preset)\n"
        << Rep.str() << "\ninstance:\n"
        << printCpds(File);
  }
}

// The replicated-threads corner shape (thread 0's rules on 2-4 threads):
// the symbolic driver of phase 4 runs these on orbits of the class
// permutations, against the unreduced explicit driver.  Consecutive
// seeds of the slot (Seed % 8 == 7) alternate between a property closed
// under the copies' permutations and one left as drawn, which may split
// the class.
TEST(Differential, ReplicatedThreadsPreset) {
  unsigned WithClass = 0;
  for (uint64_t I = 0; I < 64; ++I) {
    uint64_t Seed = 8 * (baseSeed() + I) + 7;
    cuba::testing::RandomCpdsOptions O = cornerShapeOptions(Seed);
    ASSERT_TRUE(O.ReplicateFirstThread)
        << "preset rotation changed; fix this test";
    CpdsFile File = generateRandomCpds(Seed, O);
    WithClass += !ThreadSymmetry(File.System, File.Property).classes().empty();
    OracleReport Rep = runDifferentialOracle(File, quickOracle());
    EXPECT_TRUE(Rep.ok())
        << "seed " << Seed << " (replicated-threads preset; rerun: "
        << "CUBA_FUZZ_SEED=" << Seed << " cuba fuzz --count 1)\n"
        << Rep.str() << "\ninstance:\n"
        << printCpds(File);
  }
  EXPECT_GE(WithClass, 32u) << "too few instances kept a thread class";
}

// The oracle also holds on the hand-built paper models, tying the
// randomized harness back to the known-good benchmarks.
TEST(Differential, PaperModels) {
  CpdsFile Models[] = {models::buildFig1(), models::buildFig2(),
                       models::buildDekker()};
  for (const CpdsFile &File : Models) {
    OracleOptions O = quickOracle();
    O.MaxK = 5;
    OracleReport Rep = runDifferentialOracle(File, O);
    EXPECT_TRUE(Rep.ok()) << Rep.str() << "\ninstance:\n" << printCpds(File);
  }
}

// The mutation check: a simulated engine bug (the explicit engine
// "loses" its first discovered visible state) must trip the oracle.
// This pins the oracle's sensitivity -- a vacuous oracle that compares
// nothing would pass every differential shard above.
TEST(Differential, OracleCatchesInjectedEngineBug) {
  OracleOptions O = quickOracle();
  O.InjectDropVisible = 1;
  CpdsFile File = models::buildFig1();
  OracleReport Rep = runDifferentialOracle(File, O);
  EXPECT_FALSE(Rep.ok())
      << "the oracle accepted an engine that lost a visible state";
}

// The symbolic-plane mutation check: an under-refining canonicalizeNfa
// (injected via the fa_testing hook) conflates distinct stack
// languages, so the symbolic engine's canonical dedup merges states it
// must not and T(S_k) diverges from T(R_k).  The oracle has to catch
// this on the paper's Fig. 1 model and on a healthy majority of fixed
// symbolic-heavy seeds (fixed literals, not baseSeed: tiny instances
// may legitimately be insensitive to the mutation, so the set is
// pinned to stay deterministic under CI seed rotation).
TEST(Differential, OracleCatchesInjectedMinimizeBug) {
  fa_testing::InjectMinimizeUnderRefine = true;
  OracleOptions O = quickOracle();
  O.CheckBaselines = false; // The mutation is engine-side; phase 1
  O.CheckDrivers = false;   // (T(R_k) vs T(S_k)) is the detector.
  OracleReport Fig1 = runDifferentialOracle(models::buildFig1(), O);
  unsigned Caught = Fig1.ok() ? 0 : 1;
  cuba::testing::RandomCpdsOptions Shape = cornerShapeOptions(6);
  for (uint64_t Seed = 500; Seed < 520; ++Seed)
    Caught += !runDifferentialOracle(generateRandomCpds(Seed, Shape), O).ok();
  fa_testing::InjectMinimizeUnderRefine = false;
  EXPECT_FALSE(Fig1.ok())
      << "the oracle accepted an under-refining minimize on Fig. 1";
  EXPECT_GE(Caught, 12u) << "only " << Caught
                         << "/21 mutated runs were flagged";
}

TEST(Differential, OracleCatchesInjectedBugOnRandomInstances) {
  unsigned Caught = 0;
  for (uint64_t I = 0; I < 20; ++I) {
    uint64_t Seed = baseSeed() + I;
    OracleOptions O = quickOracle();
    O.InjectDropVisible = 1; // Every instance has >= 1 visible state.
    CpdsFile File = generateRandomCpds(Seed, cornerShapeOptions(Seed));
    Caught += !runDifferentialOracle(File, O).ok();
  }
  EXPECT_EQ(Caught, 20u);
}

// Exhaustion is a bounded verdict, not a crash: a one-state budget must
// come back with KCompared == 0 and no spurious mismatches from the
// truncated rounds.
TEST(Differential, TinyBudgetTruncatesCleanly) {
  OracleOptions O;
  O.MaxK = 4;
  O.Limits = ResourceLimits{1, 50, 2, 0};
  O.CheckBaselines = false;
  O.CheckDrivers = false;
  for (uint64_t I = 0; I < 10; ++I) {
    uint64_t Seed = baseSeed() + I;
    CpdsFile File = generateRandomCpds(Seed, cornerShapeOptions(Seed));
    OracleReport Rep = runDifferentialOracle(File, O);
    EXPECT_TRUE(Rep.ok()) << "seed " << Seed << "\n" << Rep.str();
  }
}

} // namespace
