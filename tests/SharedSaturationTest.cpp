//===-- tests/SharedSaturationTest.cpp - Shared vs per-root post* ---------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property suite for the shared-saturation layer (psa/SaturationEngine):
/// one masked saturation per (thread, language) must produce, for every
/// shared root, exactly the successor languages the retained per-root
/// reference pipeline (tests/ReferencePostStar.h: rootedInput -> postStar
/// -> rootedNfa -> the reference canonicalizer of tests/ReferenceFa.h)
/// computes.  Instances are (thread, language, root-set) triples drawn
/// from the seeded random CPDS generator's corner shapes, with languages
/// both engine-realistic (the lifted initial stack) and adversarial
/// (random NFAs over the bottomed alphabet).  An injected mask-growth
/// mutation pins the suite's teeth: the differential comparison must
/// catch it.
///
/// Every failure message carries the instance seed; rerun one seed by
/// fixing the loop bounds or via CUBA_FUZZ_SEED to shift the base.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "ReferencePostStar.h"
#include "ReferenceSharedSaturation.h"
#include "fa/Canonicalize.h"
#include "psa/SaturationEngine.h"
#include "support/StringUtils.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using cuba::testing::SplitMix64;

namespace {

/// Base seed, overridable for CI rotation (same contract as the
/// differential suite).
uint64_t baseSeed() {
  if (const char *Env = std::getenv("CUBA_FUZZ_SEED"))
    if (auto V = parseUnsigned(Env))
      return *V;
  return 1;
}

/// A random non-empty canonical language over exactly the thread's
/// bottom-lifted alphabet 1..bottom().
CanonicalDfa randomLanguage(SplitMix64 &Rng, const Pds &P) {
  uint32_t NSyms = P.bottom();
  for (int Attempt = 0; Attempt < 16; ++Attempt) {
    unsigned NStates = static_cast<unsigned>(Rng.range(1, 6));
    Nfa A(NSyms);
    for (unsigned S = 0; S < NStates; ++S)
      A.addState();
    A.setInitial(static_cast<uint32_t>(Rng.below(NStates)));
    for (unsigned S = 0; S < NStates; ++S) {
      if (Rng.chance(0.4))
        A.setAccepting(S);
      unsigned Degree = static_cast<unsigned>(Rng.below(4));
      for (unsigned E = 0; E < Degree; ++E)
        A.addEdge(S, static_cast<Sym>(Rng.range(1, NSyms)),
                  static_cast<uint32_t>(Rng.below(NStates)));
    }
    CanonicalDfa D = canonicalizeNfa(A);
    if (D.Start != CanonicalDfa::NoState)
      return D;
  }
  // Fall back to the lifted empty stack -- never empty.
  return reference::liftedWordLanguage(P, {});
}

/// Compares shared extraction against the per-root reference for every
/// root in \p Roots; returns the number of mismatching roots and
/// reports details through gtest on \p Report.
unsigned compareRoots(const Pds &P, uint32_t NumShared,
                      const CanonicalDfa &Lang,
                      const std::vector<QState> &Roots, uint64_t Seed,
                      bool Report) {
  SharedSaturationResult R = sharedPostStar(P, NumShared, Lang);
  EXPECT_TRUE(R.Complete);
  // The reference saturates the classical bottomed copy, as the engine
  // did before the marker was built in.
  reference::BottomedPds B =
      reference::eliminateEmptyStackRules(P, NumShared);
  unsigned Mismatches = 0;
  for (QState Root : Roots) {
    auto Shared = R.Sat.extractRoot(Root);
    auto Reference = reference::perRootPostStar(B.P, NumShared, Lang, Root);
    if (Shared == Reference)
      continue;
    ++Mismatches;
    if (Report) {
      ADD_FAILURE() << "shared-saturation extraction diverged from the "
                       "per-root reference: seed "
                    << Seed << ", root " << Root << " ("
                    << Shared.size() << " vs " << Reference.size()
                    << " successor rows)";
    }
  }
  return Mismatches;
}

struct Instance {
  /// The generated system, shared by its threads' instances: the thread
  /// PDS saturates in place, with its built-in bottom marker.
  std::shared_ptr<const CpdsFile> File;
  unsigned Thread = 0;
  uint32_t NumShared = 0;
  CanonicalDfa Lang;
  std::vector<QState> Roots;
  uint64_t Seed = 0;

  const Pds &pds() const { return File->System.thread(Thread); }
};

/// Materialises (thread, language, root-set) instances from the random
/// CPDS corner shapes until \p Count are collected.
std::vector<Instance> makeInstances(uint64_t Base, unsigned Count) {
  std::vector<Instance> Out;
  for (uint64_t Seed = Base; Out.size() < Count; ++Seed) {
    auto File = std::make_shared<const CpdsFile>(
        cuba::testing::generateRandomCpds(
            Seed, cuba::testing::cornerShapeOptions(Seed)));
    const Cpds &C = File->System;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0x5a);
    for (unsigned I = 0; I < C.numThreads() && Out.size() < Count; ++I) {
      const Pds &P = C.thread(I);
      Instance Inst;
      Inst.File = File;
      Inst.Thread = I;
      Inst.NumShared = C.numSharedStates();
      Inst.Seed = Seed;
      // Alternate engine-realistic and adversarial languages.
      Inst.Lang =
          (Out.size() % 2 == 0)
              ? reference::liftedWordLanguage(P, C.initialState().Stacks[I])
              : randomLanguage(Rng, P);
      // Root sets alternate between every shared root and a random
      // non-empty subset.
      if (Out.size() % 3 == 0) {
        Inst.Roots.push_back(
            static_cast<QState>(Rng.below(Inst.NumShared)));
        if (Rng.chance(0.5))
          Inst.Roots.push_back(
              static_cast<QState>(Rng.below(Inst.NumShared)));
      } else {
        for (QState Q = 0; Q < Inst.NumShared; ++Q)
          Inst.Roots.push_back(Q);
      }
      Out.push_back(std::move(Inst));
    }
  }
  return Out;
}

constexpr unsigned NumInstances = 160;

} // namespace

//===----------------------------------------------------------------------===//
// The headline property: one shared saturation answers every root
// exactly as the per-root reference pipeline does.
//===----------------------------------------------------------------------===//

TEST(SharedSaturation, ExtractionMatchesPerRootReference) {
  for (const Instance &Inst : makeInstances(baseSeed(), NumInstances)) {
    compareRoots(Inst.pds(), Inst.NumShared, Inst.Lang, Inst.Roots, Inst.Seed,
                 /*Report=*/true);
    if (::testing::Test::HasFailure())
      break; // One instance's divergence is enough diagnostics.
  }
}

//===----------------------------------------------------------------------===//
// Structural sanity: the root's own view always contains the input
// language at the root (post* includes the start set), and extraction
// order is ascending with no duplicate targets.
//===----------------------------------------------------------------------===//

TEST(SharedSaturation, RootViewContainsInputLanguage) {
  for (const Instance &Inst : makeInstances(baseSeed() + 7777, 40)) {
    SharedSaturationResult R =
        sharedPostStar(Inst.pds(), Inst.NumShared, Inst.Lang);
    ASSERT_TRUE(R.Complete);
    for (QState Root : Inst.Roots) {
      auto Rows = R.Sat.extractRoot(Root);
      QState Prev = 0;
      bool First = true;
      bool SawRoot = false;
      for (const auto &[Q2, D] : Rows) {
        EXPECT_TRUE(First || Q2 > Prev) << "seed " << Inst.Seed;
        First = false;
        Prev = Q2;
        EXPECT_NE(D.Start, CanonicalDfa::NoState);
        if (Q2 == Root)
          SawRoot = true;
      }
      EXPECT_TRUE(SawRoot)
          << "root " << Root << " lost its own input language, seed "
          << Inst.Seed;
    }
    if (::testing::Test::HasFailure())
      break;
  }
}

//===----------------------------------------------------------------------===//
// Budget accounting: an unlimited tracker records the saturation's pop
// count, and a budget one step short of it reports an incomplete run --
// the contract the symbolic engine's charge replay leans on.
//===----------------------------------------------------------------------===//

TEST(SharedSaturation, BudgetTruncationIsDetected) {
  Instance Inst = makeInstances(baseSeed() + 424242, 1).front();
  LimitTracker Free((ResourceLimits::unlimited()));
  SharedSaturationResult Full =
      sharedPostStar(Inst.pds(), Inst.NumShared, Inst.Lang, &Free);
  ASSERT_TRUE(Full.Complete);
  uint64_t Pops = Free.steps();
  ASSERT_GT(Pops, 0u);

  ResourceLimits Tight;
  Tight.MaxStates = 0;
  Tight.MaxSteps = Pops - 1;
  Tight.MaxContexts = 0;
  Tight.MaxMillis = 0;
  LimitTracker Short(Tight);
  SharedSaturationResult Cut =
      sharedPostStar(Inst.pds(), Inst.NumShared, Inst.Lang, &Short);
  EXPECT_FALSE(Cut.Complete);
  EXPECT_TRUE(Short.exhausted());

  LimitTracker Exact(ResourceLimits{0, Pops, 0, 0});
  SharedSaturationResult Ok =
      sharedPostStar(Inst.pds(), Inst.NumShared, Inst.Lang, &Exact);
  EXPECT_TRUE(Ok.Complete);
}

//===----------------------------------------------------------------------===//
// The production saturator must be bit-identical to the independent
// pre-refactor mask engine -- same transitions in the same
// creation order, same mask rows, same acceptance, the same Complete
// flag, and the same number of budget steps charged -- on every
// instance of the suite, both unbounded and under a truncating budget.
//===----------------------------------------------------------------------===//

namespace {

/// Runs both engines on one instance under equal budgets and asserts
/// word-for-word equality of the retained relations and charges.  The
/// production engine saturates the thread in place; the pre-refactor
/// engine saturates the classical bottomed copy.
void expectBitIdentical(const Instance &Inst, const ResourceLimits &RL) {
  LimitTracker ProdLimits(RL), RefLimits(RL);
  SharedSaturationResult Prod =
      sharedPostStar(Inst.pds(), Inst.NumShared, Inst.Lang, &ProdLimits);
  reference::BottomedPds B =
      reference::eliminateEmptyStackRules(Inst.pds(), Inst.NumShared);
  reference::RefSaturation Ref = reference::refSharedPostStar(
      B.P, Inst.NumShared, Inst.Lang, &RefLimits);

  ASSERT_EQ(Prod.Complete, Ref.Complete) << "seed " << Inst.Seed;
  ASSERT_EQ(ProdLimits.steps(), RefLimits.steps()) << "seed " << Inst.Seed;
  ASSERT_EQ(ProdLimits.exhausted(), RefLimits.exhausted())
      << "seed " << Inst.Seed;
  ASSERT_EQ(Prod.Sat.numStates(), Ref.NumStates) << "seed " << Inst.Seed;
  ASSERT_EQ(Prod.Sat.numShared(), Ref.NumShared);
  ASSERT_EQ(Prod.Sat.numSymbols(), Ref.NumSymbols);
  ASSERT_EQ(Prod.Sat.maskWords(), Ref.MaskWords);
  ASSERT_EQ(Prod.Sat.memoryBytes(), Ref.memoryBytes()) << "seed " << Inst.Seed;
  ASSERT_EQ(Prod.Sat.numTransitions(), Ref.TFrom.size())
      << "seed " << Inst.Seed;
  for (size_t T = 0; T < Ref.TFrom.size(); ++T) {
    ASSERT_EQ(Prod.Sat.transFrom(T), Ref.TFrom[T])
        << "seed " << Inst.Seed << ", transition " << T;
    ASSERT_EQ(Prod.Sat.transLabel(T), Ref.TLabel[T])
        << "seed " << Inst.Seed << ", transition " << T;
    ASSERT_EQ(Prod.Sat.transTo(T), Ref.TTo[T])
        << "seed " << Inst.Seed << ", transition " << T;
  }
  ASSERT_EQ(Prod.Sat.maskRows(), Ref.Masks) << "seed " << Inst.Seed;
}

} // namespace

TEST(SharedSaturation, BitIdenticalToPreRefactorEngine) {
  for (const Instance &Inst : makeInstances(baseSeed(), NumInstances)) {
    expectBitIdentical(Inst, ResourceLimits::unlimited());
    if (::testing::Test::HasFailure())
      break;
  }
}

TEST(SharedSaturation, BitIdenticalUnderTruncatingBudgets) {
  // Charge parity must hold at every truncation point, not just at the
  // fixpoint: sweep a few budgets through each instance, including one
  // that cuts the run mid-saturation.
  for (const Instance &Inst : makeInstances(baseSeed() + 31337, 24)) {
    LimitTracker Free((ResourceLimits::unlimited()));
    SharedSaturationResult Full =
        sharedPostStar(Inst.pds(), Inst.NumShared, Inst.Lang, &Free);
    ASSERT_TRUE(Full.Complete);
    uint64_t Pops = Free.steps();
    for (uint64_t Budget : {uint64_t(1), Pops / 2, Pops}) {
      if (!Budget)
        continue;
      ResourceLimits RL = ResourceLimits::unlimited();
      RL.MaxSteps = Budget;
      expectBitIdentical(Inst, RL);
    }
    if (::testing::Test::HasFailure())
      break;
  }
}

//===----------------------------------------------------------------------===//
// The injected-mutation sensitivity check: a saturation that drops mask
// growth on existing transitions under-saturates some roots, and the
// differential comparison against the reference must notice (pins the
// suite's teeth, like the oracle's InjectDropVisible check).
//===----------------------------------------------------------------------===//

TEST(SharedSaturation, ComparisonCatchesInjectedUnderSaturation) {
  std::vector<Instance> Instances = makeInstances(1000, 60);
  psa_testing::InjectDropMaskGrowth = true;
  unsigned Mismatching = 0;
  for (const Instance &Inst : Instances)
    if (compareRoots(Inst.pds(), Inst.NumShared, Inst.Lang, Inst.Roots,
                     Inst.Seed, /*Report=*/false) > 0)
      ++Mismatching;
  psa_testing::InjectDropMaskGrowth = false;
  EXPECT_GE(Mismatching, 5u)
      << "an under-saturating mask bug went largely unnoticed";
}
