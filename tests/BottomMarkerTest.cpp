//===-- tests/BottomMarkerTest.cpp - In-place bottom marker vs the copy ----=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The saturations read the empty stack through each PDS's built-in
/// bottom marker (Pds::bottom), firing the empty-stack rules on a popped
/// marker transition in place.  Before that, every caller first copied
/// the PDS through the classical bottom transform; that copy survives as
/// reference::eliminateEmptyStackRules, and this suite holds the
/// in-place saturations to it on every system shape the project has:
/// Fig. 1/2, the Table 2 models, the Boolean-program corpus translations
/// and seeded random instances (every corner preset, the empty-start
/// one included).  Per thread it checks that
///
///   - classic post* accepts the same language at every shared root, from
///     the FCR start set and from the lifted initial and empty stacks;
///   - shared post* builds the same transition arrays and mask rows, word
///     for word, from the lifted initial and empty stacks;
///   - checkFcr gives the same per-thread answers as the FCR test on the
///     copy.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ReferencePostStar.h"
#include "bp/Translate.h"
#include "core/FcrCheck.h"
#include "fa/Canonicalize.h"
#include "models/Models.h"
#include "psa/SaturationEngine.h"
#include "testing/RandomCpds.h"

using namespace cuba;

namespace {

struct NamedSystem {
  std::string Name;
  CpdsFile File;
};

/// Every system the suite covers, in a fixed order.
std::vector<NamedSystem> allSystems() {
  std::vector<NamedSystem> Out;
  Out.push_back({"fig1", models::buildFig1()});
  Out.push_back({"fig2", models::buildFig2()});
  for (models::BenchmarkInstance &Row : models::table2Instances())
    Out.push_back({Row.Suite + " " + Row.Config, std::move(Row.File)});

  std::vector<std::filesystem::path> Corpus;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CUBA_CORPUS_DIR))
    if (Entry.path().extension() == ".bp")
      Corpus.push_back(Entry.path());
  std::sort(Corpus.begin(), Corpus.end());
  EXPECT_EQ(Corpus.size(), 11u);
  for (const auto &Path : Corpus) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    auto F = bp::compileBooleanProgram(SS.str());
    EXPECT_TRUE(F) << Path << ": " << F.error().str();
    if (F)
      Out.push_back({Path.filename().string(), F.take()});
  }

  // Seeds cycle through all eight corner presets, the empty-start one
  // (all behaviour through empty-stack rules) every eighth seed.
  for (uint64_t Seed = 1; Seed <= 105; ++Seed)
    Out.push_back({"random seed " + std::to_string(Seed),
                   cuba::testing::generateRandomCpds(
                       Seed, cuba::testing::cornerShapeOptions(Seed))});
  return Out;
}

/// Checks that post* from \p Start accepts the same language at every
/// shared root in place as on the bottomed copy.
void expectSamePostStar(const Pds &P, const reference::BottomedPds &B,
                        uint32_t NumShared, const PAutomaton &Start,
                        const std::string &What) {
  PostStarResult InPlace = postStar(P, Start);
  PostStarResult Copy = postStar(B.P, Start);
  ASSERT_TRUE(InPlace.Complete && Copy.Complete) << What;
  for (QState Q = 0; Q < NumShared; ++Q)
    ASSERT_EQ(canonicalizeNfa(InPlace.Automaton.nfa(), {Q}),
              canonicalizeNfa(Copy.Automaton.nfa(), {Q}))
        << What << ", root " << Q;
}

/// Checks that shared post* from \p Lang is word-for-word identical in
/// place and on the bottomed copy.
void expectSameSharedPostStar(const Pds &P, const reference::BottomedPds &B,
                              uint32_t NumShared, const CanonicalDfa &Lang,
                              const std::string &What) {
  SharedSaturationResult InPlace = sharedPostStar(P, NumShared, Lang);
  SharedSaturationResult Copy = sharedPostStar(B.P, NumShared, Lang);
  ASSERT_TRUE(InPlace.Complete && Copy.Complete) << What;
  const SharedSaturation &X = InPlace.Sat, &Y = Copy.Sat;
  ASSERT_EQ(X.numStates(), Y.numStates()) << What;
  ASSERT_EQ(X.numSymbols(), Y.numSymbols()) << What;
  ASSERT_EQ(X.numTransitions(), Y.numTransitions()) << What;
  for (size_t T = 0; T < X.numTransitions(); ++T)
    ASSERT_TRUE(X.transFrom(T) == Y.transFrom(T) &&
                X.transLabel(T) == Y.transLabel(T) &&
                X.transTo(T) == Y.transTo(T))
        << What << ", transition " << T;
  ASSERT_EQ(X.maskRows(), Y.maskRows()) << What;
}

} // namespace

TEST(BottomMarker, InPlaceSaturationMatchesTheBottomedCopy) {
  unsigned Threads = 0, WithEmptyRules = 0;
  for (const NamedSystem &S : allSystems()) {
    const Cpds &C = S.File.System;
    uint32_t NumShared = C.numSharedStates();
    GlobalState Init = C.initialState();
    FcrResult Fcr = checkFcr(C);
    ASSERT_EQ(Fcr.ThreadFinite.size(), C.numThreads()) << S.Name;
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      const Pds &P = C.thread(I);
      std::string What = S.Name + ", thread " + std::to_string(I);
      reference::BottomedPds B =
          reference::eliminateEmptyStackRules(P, NumShared);
      ASSERT_EQ(B.Bottom, P.bottom()) << What;
      ++Threads;
      WithEmptyRules += std::any_of(
          P.actions().begin(), P.actions().end(),
          [](const Action &A) { return A.SrcSym == EpsSym; });

      // Classic post*: the FCR start set, then the lifted initial and
      // empty stacks at the initial shared state.
      expectSamePostStar(P, B, NumShared,
                         shortStackAutomaton(NumShared, P.bottom()),
                         What + ", short-stack start");
      std::vector<Sym> TopFirst(Init.Stacks[I].rbegin(),
                                Init.Stacks[I].rend());
      TopFirst.push_back(P.bottom());
      expectSamePostStar(P, B, NumShared,
                         singleStateAutomaton(NumShared, P.bottom(), Init.Q,
                                              TopFirst),
                         What + ", initial stack");
      expectSamePostStar(P, B, NumShared,
                         singleStateAutomaton(NumShared, P.bottom(), Init.Q,
                                              {P.bottom()}),
                         What + ", empty stack");

      // Shared post*, word for word.
      expectSameSharedPostStar(
          P, B, NumShared,
          reference::liftedWordLanguage(P, Init.Stacks[I]),
          What + ", initial stack");
      expectSameSharedPostStar(P, B, NumShared,
                               reference::liftedWordLanguage(P, {}),
                               What + ", empty stack");

      // The FCR verdict per thread.
      auto [Finite, Complete] = reference::copiedThreadFinite(P, NumShared);
      ASSERT_TRUE(Complete) << What;
      EXPECT_EQ(Fcr.ThreadFinite[I], Finite) << What;
      if (::testing::Test::HasFailure())
        return;
    }
  }
  // The suite must have exercised the marker, not just ordinary rules.
  EXPECT_GE(Threads, 200u);
  EXPECT_GE(WithEmptyRules, 50u);
}
