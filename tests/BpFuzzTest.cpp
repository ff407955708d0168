//===-- tests/BpFuzzTest.cpp - Randomized Boolean-program pipeline tests ---=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Program-level differential testing: seeded random Boolean programs
/// (testing/RandomBp) pushed through print/parse, Sema, Translate,
/// CpdsIO, and the cross-engine oracle (testing/BpOracle).
///
/// Every failure message carries the instance seed; rerun one seed with
///
///   CUBA_FUZZ_SEED=<seed> ./build/tools/cuba fuzz --mode bp --count 1
///
/// or change the base seed of the whole suite via the same variable.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "support/StringUtils.h"
#include "testing/BpOracle.h"
#include "testing/RandomBp.h"

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

/// Budget per instance, matching the CPDS fuzz suite: state/step caps
/// only, so coverage is machine-independent.
BpOracleOptions quickOracle() {
  BpOracleOptions O;
  O.Engine.MaxK = 4;
  O.Engine.Limits = ResourceLimits{10'000, 1'000'000, 8, 0};
  return O;
}

/// Runs \p Count consecutive seeds starting at \p First through the
/// shape rotation and the full pipeline oracle.
void runSeedRange(uint64_t First, uint64_t Count) {
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t Seed = First + I;
    BpOracleReport Rep = checkBpSeed(Seed, quickOracle());
    EXPECT_TRUE(Rep.ok())
        << "seed " << Seed << " (rerun: CUBA_FUZZ_SEED=" << Seed
        << " cuba fuzz --mode bp --count 1)\n"
        << Rep.str() << "\nprogram:\n"
        << Rep.Source;
  }
}

// 240 seeded instances split into shards so `ctest -j` runs them in
// parallel; the shape rotation (%6) means every preset is hit by every
// shard.
TEST(BpFuzz, RandomProgramsShard0) { runSeedRange(baseSeed(), 60); }
TEST(BpFuzz, RandomProgramsShard1) { runSeedRange(baseSeed() + 60, 60); }
TEST(BpFuzz, RandomProgramsShard2) { runSeedRange(baseSeed() + 120, 60); }
TEST(BpFuzz, RandomProgramsShard3) { runSeedRange(baseSeed() + 180, 60); }

// The generator-set overapproximation Z ranges over the abstract
// domain |Q| x prod(|Sigma_i|+1); Boolean-program translations put
// thousands of frame symbols in each Sigma_i, so an unbudgeted Z
// exploration allocates without bound long before the engines hit
// their limits.  Seed 128 under the atomic-heavy preset is the
// instance that surfaced this (gigabytes of memory, minutes of wall
// clock); with Z charged against the run's budget it completes in
// milliseconds.  This test hangs, not fails, on regression -- the
// suite timeout is the detector.
TEST(BpFuzz, WideAlphabetInstanceStaysWithinBudget) {
  BpOracleReport Rep = checkBpSeed(128, quickOracle());
  EXPECT_TRUE(Rep.ok()) << Rep.str() << "\nprogram:\n" << Rep.Source;
}

// Print -> parse -> print must be a fixpoint for every generated
// program under every preset (stressed beyond the oracle shards: this
// sweep is frontend-only and therefore cheap).
TEST(BpFuzz, PrintParsePrintFixpoint) {
  for (uint64_t I = 0; I < 300; ++I) {
    uint64_t Seed = baseSeed() + I;
    bp::Program P = generateRandomBp(Seed, bpShapeOptions(Seed));
    std::string S1 = bp::printProgram(P);
    auto Re = bp::parseProgram(S1);
    ASSERT_TRUE(Re) << "seed " << Seed << ": " << Re.error().str() << "\n"
                    << S1;
    EXPECT_EQ(bp::printProgram(*Re), S1) << "seed " << Seed;
  }
}

// Adversarial control flow: force unstructured gotos into EVERY
// generated function and run the full pipeline oracle.  The widened
// generator places labels anywhere outside atomics (branch arms
// included, some labels deliberately untargeted) and emits guarded
// multi-target jumps, so this sweep covers back edges, forward edges,
// and jumps into and out of branch arms.  Structural counters pin the
// widening's teeth: the sweep must actually contain multi-target
// jumps and labels inside branch arms, or a generator regression
// would quietly turn this into a structured-control-flow test.
TEST(BpFuzz, GotoHeavyProgramsSurviveThePipeline) {
  unsigned WithGoto = 0, MultiTarget = 0, ArmLabels = 0;
  auto Walk = [&](auto &&Self, const std::vector<bp::StmtPtr> &Body,
                  bool InArm) -> void {
    for (const bp::StmtPtr &S : Body) {
      if (S->Kind == bp::StmtKind::Goto) {
        ++WithGoto;
        if (S->GotoTargets.size() > 1)
          ++MultiTarget;
      }
      if (InArm && !S->Label.empty())
        ++ArmLabels;
      bool Arm = S->Kind == bp::StmtKind::If || S->Kind == bp::StmtKind::While;
      Self(Self, S->Body, InArm || Arm);
      Self(Self, S->ElseBody, true);
    }
  };
  for (uint64_t I = 0; I < 40; ++I) {
    uint64_t Seed = baseSeed() + I;
    RandomBpOptions O = bpShapeOptions(Seed);
    O.GotoLoopProb = 1.0;
    bp::Program P = generateRandomBp(Seed, O);
    for (const bp::Function &F : P.Functions)
      Walk(Walk, F.Body, false);
    BpOracleOptions OO = quickOracle();
    BpOracleReport Rep = runBpOracle(P, OO);
    EXPECT_TRUE(Rep.ok()) << "seed " << Seed << "\n"
                          << Rep.str() << "\nprogram:\n"
                          << Rep.Source;
    if (::testing::Test::HasFailure())
      return;
  }
  EXPECT_GT(WithGoto, 40u);
  EXPECT_GT(MultiTarget, 5u);
  EXPECT_GT(ArmLabels, 5u);
}

// The translate-level mutation check: a simulated translation bug
// (the first assignment rule is dropped from the second compile) must
// trip the oracle on any program whose threads can reach an
// assignment.  This pins the pipeline oracle's sensitivity the same
// way InjectDropVisible pins the engine oracle's -- a vacuous
// byte-compare would pass every shard above.  Fixed literal seeds,
// not baseSeed: programs without a reachable assignment are
// legitimately insensitive, so the eligible set must stay
// deterministic under CI seed rotation.
TEST(BpFuzz, OracleCatchesInjectedTranslateBug) {
  // Eligibility = a function reachable from a thread entry over the call
  // graph has a plain assignment statement.  Translation emits only
  // reachable frames, so an assignment in an uncalled helper emits no
  // rule and the hook has nothing to drop.  Call result bindings also
  // print ":=" but emit call/bind rules, which the hook leaves alone.
  auto HasReachableAssign = [](const bp::Program &P) {
    std::map<std::string, const bp::Function *> Fns;
    for (const bp::Function &F : P.Functions)
      Fns[F.Name] = &F;
    std::set<std::string> Seen(P.ThreadEntries.begin(),
                               P.ThreadEntries.end());
    std::vector<std::string> Work(Seen.begin(), Seen.end());
    bool Assigns = false;
    auto Walk = [&](auto &&Self,
                    const std::vector<bp::StmtPtr> &Body) -> void {
      for (const bp::StmtPtr &S : Body) {
        Assigns |= S->Kind == bp::StmtKind::Assign;
        if (S->Kind == bp::StmtKind::Call && Seen.insert(S->Callee).second)
          Work.push_back(S->Callee);
        Self(Self, S->Body);
        Self(Self, S->ElseBody);
      }
    };
    while (!Work.empty()) {
      std::string Name = std::move(Work.back());
      Work.pop_back();
      Walk(Walk, Fns.at(Name)->Body);
    }
    return Assigns;
  };
  unsigned Eligible = 0, Caught = 0;
  for (uint64_t Seed = 300; Seed < 330; ++Seed) {
    bp::Program P = generateRandomBp(Seed, bpShapeOptions(Seed));
    if (!HasReachableAssign(P))
      continue;
    ++Eligible;
    BpOracleOptions O = quickOracle();
    O.InjectTranslateBug = true;
    BpOracleReport Rep = runBpOracle(P, O);
    if (!Rep.ok())
      ++Caught;
  }
  ASSERT_GE(Eligible, 20u) << "generator no longer emits assignments; "
                              "pick new seeds for this test";
  EXPECT_EQ(Caught, Eligible)
      << "the oracle missed " << (Eligible - Caught) << "/" << Eligible
      << " injected translation bugs";
}

} // namespace
