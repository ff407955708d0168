//===-- tests/ThreadSymmetryTest.cpp - Thread-symmetry reduction -----------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classes of interchangeable threads (pds/ThreadSymmetry.h) and the
/// exactness of the symbolic engine and of G cap Z reduced by them: run
/// side by side with the unreduced engine, every round must report the
/// same visibleSize(), and the canonical image of the unreduced round's
/// new visible states must be the reduced round's; the reduced G cap Z
/// must be the canonical image of the unreduced one.  Checked on the
/// Table 2 rows, Stefan-1/2..9, the Boolean-program corpus, the golden
/// randombp programs and the fuzzer's replicated-threads preset.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bp/AstPrinter.h"
#include "bp/Translate.h"
#include "core/Generators.h"
#include "core/SymbolicEngine.h"
#include "core/ZOverapprox.h"
#include "models/Models.h"
#include "pds/ThreadSymmetry.h"
#include "pds/VisibleSet.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;

namespace {

std::vector<std::vector<unsigned>> classesOf(const CpdsFile &F) {
  return ThreadSymmetry(F.System, F.Property).classes();
}

/// \p States in canonical form, sorted and without duplicates.
std::vector<VisibleState> canonicalImage(const ThreadSymmetry &Symmetry,
                                         std::vector<VisibleState> States) {
  for (VisibleState &V : States)
    Symmetry.canonicalize(V);
  std::sort(States.begin(), States.end());
  States.erase(std::unique(States.begin(), States.end()), States.end());
  return States;
}

/// Runs the unreduced and the reduced engine on \p F side by side for up
/// to \p MaxK rounds, comparing every round, then compares G cap Z.
/// Returns false when \p F has no class (nothing to compare).
bool expectReducedMatches(const CpdsFile &F, const std::string &Name,
                          unsigned MaxK) {
  const Cpds &C = F.System;
  ThreadSymmetry Symmetry(C, F.Property);
  if (Symmetry.classes().empty())
    return false;
  ResourceLimits L = ResourceLimits::unlimited();
  L.MaxSteps = 20'000'000;
  SymbolicEngine Full(C, L), Red(C, L, Symmetry);
  while (true) {
    std::vector<VisibleState> NewFull = Full.newVisibleThisRound();
    EXPECT_EQ(Full.visibleSize(), Red.visibleSize())
        << Name << " k=" << Full.bound();
    EXPECT_EQ(canonicalImage(Symmetry, NewFull) == Red.newVisibleThisRound(),
              true)
        << Name << " k=" << Full.bound() << ": the new visible states differ";
    for (const VisibleState &V : NewFull)
      if (!Red.visibleReached(V)) {
        ADD_FAILURE() << Name << " k=" << Full.bound()
                      << ": a reached state is not reached reduced";
        break;
      }
    if (Full.bound() >= MaxK || (Full.frontierEmpty() && Red.frontierEmpty()))
      break;
    if (Full.advance() != SymbolicEngine::RoundStatus::Ok ||
        Red.advance() != SymbolicEngine::RoundStatus::Ok)
      break; // A truncated round is incomplete on either side.
  }

  GeneratorSet G(C);
  LimitTracker FullZ(L), RedZ(L);
  std::optional<std::vector<VisibleState>> GZ =
      computeGeneratorsInZ(C, G, &FullZ);
  std::optional<std::vector<VisibleState>> GZRed =
      computeGeneratorsInZ(C, G, &RedZ, Symmetry);
  if (GZ) {
    EXPECT_TRUE(GZRed.has_value()) << Name;
    if (GZRed) {
      EXPECT_EQ(canonicalImage(Symmetry, *GZ) == *GZRed, true)
          << Name << ": G cap Z differs";
    }
    EXPECT_LE(RedZ.steps(), FullZ.steps()) << Name;
  }
  return true;
}

} // namespace

TEST(ThreadSymmetry, ClassesOfThePaperModels) {
  using Classes = std::vector<std::vector<unsigned>>;
  EXPECT_EQ(classesOf(models::buildStefan1(4)), (Classes{{0, 1, 2, 3}}));
  EXPECT_EQ(classesOf(models::buildProc2()), (Classes{{0, 1}, {2, 3}}));
  EXPECT_TRUE(classesOf(models::buildKInduction()).empty());
  EXPECT_TRUE(classesOf(models::buildFig1()).empty());
  // The turn token names the threads, so no two BST-Insert PDSs agree.
  EXPECT_TRUE(classesOf(models::buildBstInsert(2, 2)).empty());
}

TEST(ThreadSymmetry, APropertyThatNamesAThreadSplitsItsClass) {
  CpdsFile F = models::buildStefan1(3);
  Sym S0 = F.System.thread(0).symbolByName("s0");
  auto OnThread = [&](unsigned T) {
    VisiblePattern P;
    P.Tops.assign(3, std::nullopt);
    P.Tops[T] = S0;
    return P;
  };
  SafetyProperty One;
  One.addBadPattern(OnThread(0));
  EXPECT_EQ(ThreadSymmetry(F.System, One).classes(),
            (std::vector<std::vector<unsigned>>{{1, 2}}));
  SafetyProperty All;
  for (unsigned T : {2u, 0u, 1u})
    All.addBadPattern(OnThread(T));
  EXPECT_EQ(ThreadSymmetry(F.System, All).classes(),
            (std::vector<std::vector<unsigned>>{{0, 1, 2}}));
}

TEST(ThreadSymmetry, CanonicalFormsAndOrbitSizes) {
  CpdsFile F = models::buildStefan1(4);
  ThreadSymmetry S(F.System, F.Property);
  VisibleState V{2, {3, 1, 2, 1}};
  VisiblePacker Packer(F.System);
  uint64_t Word = S.canonicalize(Packer.pack(V), Packer);
  S.canonicalize(V);
  EXPECT_EQ(V, (VisibleState{2, {1, 1, 2, 3}}));
  EXPECT_EQ(Word, Packer.pack(V));
  EXPECT_EQ(S.orbitSize(V.Tops.data()), 12u); // 4! / 2!.
  EXPECT_EQ(S.orbitSize(std::vector<Sym>(4, 1).data()), 1u);

  // C(64, 32) still fits in 64 bits; 70 threads over four tops do not.
  CpdsFile Wide = models::buildStefan1(64);
  ThreadSymmetry WideSym(Wide.System, Wide.Property);
  std::vector<Sym> Half(64, 1);
  std::fill(Half.begin() + 32, Half.end(), 2);
  EXPECT_EQ(WideSym.orbitSize(Half.data()), 1832624140942590534ull);
  CpdsFile Wider = models::buildStefan1(70);
  ThreadSymmetry WiderSym(Wider.System, Wider.Property);
  std::vector<Sym> Spread(70);
  for (unsigned I = 0; I < 70; ++I)
    Spread[I] = I * 4 / 70;
  EXPECT_EQ(WiderSym.orbitSize(Spread.data()), UINT64_MAX);
}

TEST(ThreadSymmetry, ReducedRoundsMatchUnreducedOnTheModels) {
  unsigned Compared = 0;
  for (const models::BenchmarkInstance &R : models::table2Instances())
    Compared += expectReducedMatches(R.File, R.Suite + " " + R.Config, 12);
  for (unsigned N = 2; N <= 9; ++N)
    Compared += expectReducedMatches(models::buildStefan1(N),
                                     "Stefan-1/" + std::to_string(N), 12);
  // Bluetooth 1+2 and 2+1 (three suites), FileCrawler, Proc-2, the
  // three Stefan-1 rows, and Stefan-1/2..9.
  EXPECT_EQ(Compared, 19u);
}

TEST(ThreadSymmetry, ReducedRoundsMatchUnreducedOnPrograms) {
  std::vector<std::pair<std::string, std::string>> Sources;
  std::vector<std::filesystem::path> Paths;
  for (const auto &E : std::filesystem::directory_iterator(CUBA_CORPUS_DIR))
    if (E.path().extension() == ".bp")
      Paths.push_back(E.path());
  std::sort(Paths.begin(), Paths.end());
  for (const std::filesystem::path &P : Paths) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    Sources.emplace_back(P.filename().string(), SS.str());
  }
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    Sources.emplace_back("gen-" + std::to_string(Seed),
                         bp::printProgram(cuba::testing::generateRandomBp(
                             Seed, cuba::testing::bpShapeOptions(Seed))));
  unsigned Compared = 0;
  for (const auto &[Name, Source] : Sources) {
    auto F = bp::compileBooleanProgram(Source);
    if (F)
      Compared += expectReducedMatches(*F, Name, 4);
  }
  // 44 of the 111 programs have a class of identical threads.
  EXPECT_EQ(Compared, 44u);
}

TEST(ThreadSymmetry, ReducedRoundsMatchUnreducedOnReplicatedThreads) {
  unsigned Compared = 0;
  for (uint64_t I = 0; I < 40; ++I) {
    uint64_t Seed = 8 * I + 7;
    Compared += expectReducedMatches(
        cuba::testing::generateRandomCpds(
            Seed, cuba::testing::cornerShapeOptions(Seed)),
        "replicated seed " + std::to_string(Seed), 6);
  }
  EXPECT_GE(Compared, 20u);
}
