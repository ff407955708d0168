//===-- tests/BddTest.cpp - Tests for the BDD package and baseline ---------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "baseline/CbaBaseline.h"
#include "bdd/Bdd.h"
#include "bdd/BddSet.h"
#include "bdd/VisibleCodec.h"
#include "bp/Translate.h"
#include "core/Algorithms.h"
#include "models/Models.h"

using namespace cuba;

namespace {

/// Compiles every committed examples/corpus model, path-sorted.
std::vector<std::pair<std::string, CpdsFile>> compiledCorpus() {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CUBA_CORPUS_DIR))
    if (Entry.path().extension() == ".bp")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  EXPECT_GE(Paths.size(), 10u) << "corpus shrank below 10 models";
  std::vector<std::pair<std::string, CpdsFile>> Out;
  for (const auto &P : Paths) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    auto File = bp::compileBooleanProgram(SS.str());
    EXPECT_TRUE(File) << P << ": " << File.error().str();
    if (File)
      Out.emplace_back(P.string(), std::move(*File));
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// BDD core
//===----------------------------------------------------------------------===//

TEST(Bdd, TerminalsAndVars) {
  BddManager M(2);
  EXPECT_EQ(M.bddNot(M.falseRef()), M.trueRef());
  EXPECT_EQ(M.bddNot(M.trueRef()), M.falseRef());
  BddRef X = M.var(0);
  EXPECT_EQ(M.bddNot(M.bddNot(X)), X);
  EXPECT_EQ(M.nvar(0), M.bddNot(X));
}

TEST(Bdd, HashConsingCanonicalises) {
  BddManager M(2);
  BddRef A = M.bddAnd(M.var(0), M.var(1));
  BddRef B = M.bddAnd(M.var(1), M.var(0));
  BddRef C = M.bddNot(M.bddOr(M.bddNot(M.var(0)), M.bddNot(M.var(1))));
  EXPECT_EQ(A, B); // Commutativity.
  EXPECT_EQ(A, C); // De Morgan.
}

TEST(Bdd, EvaluateAgainstTruthTable) {
  BddManager M(3);
  BddRef F = M.bddXor(M.bddAnd(M.var(0), M.var(1)), M.var(2));
  for (int Bits = 0; Bits < 8; ++Bits) {
    std::vector<bool> A = {(Bits & 1) != 0, (Bits & 2) != 0,
                           (Bits & 4) != 0};
    bool Want = (A[0] && A[1]) != A[2];
    EXPECT_EQ(M.evaluate(F, A), Want) << Bits;
  }
}

TEST(Bdd, SatCount) {
  BddManager M(3);
  EXPECT_DOUBLE_EQ(M.satCount(M.falseRef()), 0.0);
  EXPECT_DOUBLE_EQ(M.satCount(M.trueRef()), 8.0);
  EXPECT_DOUBLE_EQ(M.satCount(M.var(0)), 4.0);
  BddRef F = M.bddAnd(M.var(0), M.var(2)); // skips level 1
  EXPECT_DOUBLE_EQ(M.satCount(F), 2.0);
  BddRef G = M.bddOr(M.var(0), M.var(1));
  EXPECT_DOUBLE_EQ(M.satCount(G), 6.0);
}

TEST(Bdd, ExistsAndRestrict) {
  BddManager M(2);
  BddRef F = M.bddAnd(M.var(0), M.var(1));
  EXPECT_EQ(M.exists(F, 0), M.var(1));
  EXPECT_EQ(M.exists(M.exists(F, 0), 1), M.trueRef());
  EXPECT_EQ(M.restrict(F, 0, true), M.var(1));
  EXPECT_EQ(M.restrict(F, 0, false), M.falseRef());
}

TEST(Bdd, CubeEncodesMinterm) {
  BddManager M(4);
  BddRef C = M.cube(0b1010, 0, 4); // var0=0 var1=1 var2=0 var3=1.
  EXPECT_DOUBLE_EQ(M.satCount(C), 1.0);
  std::vector<bool> A = {false, true, false, true};
  EXPECT_TRUE(M.evaluate(C, A));
  A[0] = true;
  EXPECT_FALSE(M.evaluate(C, A));
}

TEST(Bdd, IteIsConsistentWithEvaluate) {
  BddManager M(4);
  BddRef F = M.bddXor(M.var(0), M.var(2));
  BddRef G = M.bddOr(M.var(1), M.var(3));
  BddRef H = M.bddAnd(M.var(0), M.var(3));
  BddRef R = M.ite(F, G, H);
  for (int Bits = 0; Bits < 16; ++Bits) {
    std::vector<bool> A;
    for (int B = 0; B < 4; ++B)
      A.push_back((Bits >> B) & 1);
    bool Want = M.evaluate(F, A) ? M.evaluate(G, A) : M.evaluate(H, A);
    EXPECT_EQ(M.evaluate(R, A), Want) << Bits;
  }
}

//===----------------------------------------------------------------------===//
// BddSet property sweep: the BDD set behaves exactly like a hash set.
//===----------------------------------------------------------------------===//

class BddSetSweep : public ::testing::TestWithParam<int> {};

TEST_P(BddSetSweep, MatchesReferenceSet) {
  unsigned Width = 8;
  BddManager M;
  BddSet S(M, Width);
  std::set<uint64_t> Ref;
  // A deterministic pseudo-random insertion sequence per seed.
  uint64_t X = static_cast<uint64_t>(GetParam()) * 2654435761u + 1;
  for (int I = 0; I < 200; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t V = (X >> 33) & 0xff;
    EXPECT_EQ(S.insert(V), Ref.insert(V).second);
  }
  EXPECT_EQ(S.size(), Ref.size());
  for (uint64_t V = 0; V < 256; ++V)
    EXPECT_EQ(S.contains(V), Ref.count(V) != 0) << V;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddSetSweep, ::testing::Range(0, 8));

TEST(VisibleCodec, RoundTrip) {
  CpdsFile F = models::buildFig1();
  VisibleCodec Codec(F.System);
  VisibleState V;
  V.Q = 3;
  V.Tops = {2, 0};
  EXPECT_EQ(Codec.decode(Codec.encode(V), 2), V);
  VisibleState W;
  W.Q = 0;
  W.Tops = {1, 3};
  EXPECT_EQ(Codec.decode(Codec.encode(W), 2), W);
  EXPECT_NE(Codec.encode(V), Codec.encode(W));
}

//===----------------------------------------------------------------------===//
// The CBA baseline
//===----------------------------------------------------------------------===//

namespace {

ResourceLimits noLimits() { return ResourceLimits::unlimited(); }

} // namespace

TEST(Baseline, FindsBluetoothBugAtSameBoundAsCuba) {
  CpdsFile F = models::buildBluetooth(1, 1, 1);
  RunOptions O;
  O.Limits = noLimits();
  O.Limits.MaxContexts = 16;
  RoundsResult Cuba = runExplicitCombined(F.System, F.Property, O);
  ASSERT_TRUE(Cuba.Run.BugBound.has_value());

  for (BaselineEngine E : {BaselineEngine::Explicit,
                           BaselineEngine::ExplicitBdd}) {
    BaselineResult B =
        runCbaBaseline(F.System, F.Property, 16, noLimits(), E);
    ASSERT_TRUE(B.BugBound.has_value());
    EXPECT_EQ(*B.BugBound, *Cuba.Run.BugBound);
  }
}

TEST(Baseline, CannotProveSafetyOnlyExhaustTheBound) {
  // On the safe driver the baseline merely reports "no bug within K";
  // it has no convergence notion (the Fig. 5 contrast).
  CpdsFile F = models::buildBluetooth(3, 1, 1);
  BaselineResult B = runCbaBaseline(F.System, F.Property, 8, noLimits(),
                                    BaselineEngine::Explicit);
  EXPECT_FALSE(B.BugBound.has_value());
  EXPECT_TRUE(B.CompletedToBound);
  EXPECT_EQ(B.KReached, 8u);
}

TEST(Baseline, SymbolicEngineHandlesNonFcr) {
  CpdsFile F = models::buildKInduction();
  BaselineResult B = runCbaBaseline(F.System, F.Property, 6, noLimits(),
                                    BaselineEngine::Symbolic);
  EXPECT_FALSE(B.BugBound.has_value());
  EXPECT_TRUE(B.CompletedToBound);
}

TEST(Baseline, BddMirrorAgreesWithExplicitVisibleCount) {
  CpdsFile F = models::buildFig1();
  BaselineResult B = runCbaBaseline(F.System, F.Property, 6, noLimits(),
                                    BaselineEngine::ExplicitBdd);
  // |T(R_6)| = 8 per the Fig. 1 table.
  EXPECT_EQ(B.VisibleStates, 8u);
  EXPECT_GT(B.BddNodes, 0u);
}

//===----------------------------------------------------------------------===//
// The Boolean-program corpus through the BDD layer
//===----------------------------------------------------------------------===//

TEST(VisibleCodec, RoundTripsCorpusVisibleStates) {
  // Translated Boolean programs are the widest CPDSs in the tree (one
  // frame symbol per program point x local valuation), so they exercise
  // the codec's field layout far beyond the hand-built models.  A
  // seeded sample of the full visible domain must round-trip, and
  // distinct states must get distinct codes.
  for (const auto &[Path, File] : compiledCorpus()) {
    const Cpds &C = File.System;
    VisibleCodec Codec(C);
    ASSERT_LE(Codec.width(), 63u) << Path;
    std::set<uint64_t> Codes;
    std::set<VisibleState> States;
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (int I = 0; I < 500; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      VisibleState V;
      V.Q = static_cast<QState>((X >> 32) % C.numSharedStates());
      uint64_t Y = X;
      for (unsigned T = 0; T < C.numThreads(); ++T) {
        Y = Y * 6364136223846793005ull + 1442695040888963407ull;
        // Including 0 = EpsSym: terminated threads have no top frame.
        V.Tops.push_back(
            static_cast<Sym>((Y >> 32) % (C.thread(T).numSymbols() + 1)));
      }
      EXPECT_EQ(Codec.decode(Codec.encode(V), C.numThreads()), V) << Path;
      Codes.insert(Codec.encode(V));
      States.insert(V);
    }
    EXPECT_EQ(Codes.size(), States.size()) << Path;
  }
}

TEST(Baseline, BddMirrorAgreesOnBooleanProgramCorpus) {
  // The generalisation of BddMirrorAgreesWithExplicitVisibleCount: on
  // every corpus model the BDD-backed visible set must see exactly the
  // states the hash-set engine sees, and reach the same verdict.
  unsigned Compared = 0;
  for (const auto &[Path, File] : compiledCorpus()) {
    ResourceLimits Budget{500'000, 50'000'000, 0, 0};
    BaselineResult Plain = runCbaBaseline(File.System, File.Property, 4,
                                          Budget, BaselineEngine::Explicit);
    BaselineResult Bdd = runCbaBaseline(File.System, File.Property, 4,
                                        Budget, BaselineEngine::ExplicitBdd);
    EXPECT_EQ(Plain.BugBound, Bdd.BugBound) << Path;
    EXPECT_EQ(Plain.CompletedToBound, Bdd.CompletedToBound) << Path;
    if (!Plain.CompletedToBound && !Plain.BugBound)
      continue; // Budget-truncated: counts are not comparable.
    EXPECT_EQ(Plain.VisibleStates, Bdd.VisibleStates) << Path;
    EXPECT_GT(Bdd.BddNodes, 0u) << Path;
    ++Compared;
  }
  EXPECT_GE(Compared, 8u) << "too many corpus models fell off the budget "
                             "for the comparison to mean anything";
}
