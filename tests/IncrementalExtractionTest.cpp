//===-- tests/IncrementalExtractionTest.cpp - Cached extraction pins ------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property suite for the incremental per-root extraction layer
/// (SharedSaturation::extractRootCached): on seeded
/// (thread, language) instances drawn from the random CPDS corner
/// shapes, the cached pipeline must be byte-identical to the plain
/// extractRoot pipeline -- first and repeated extraction -- and a
/// repeated root must be served entirely from the cache (every target
/// counted as skipped).  A final test pins the engine-level
/// `extract.skipped_unchanged` counter above zero on real models.
///
/// Every failure message carries the instance seed; rerun one seed via
/// CUBA_FUZZ_SEED to shift the base.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "ReferencePostStar.h"
#include "core/SymbolicEngine.h"
#include "fa/Canonicalize.h"
#include "obs/Metrics.h"
#include "psa/SaturationEngine.h"
#include "support/StringUtils.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using cuba::testing::SplitMix64;

namespace {

uint64_t baseSeed() {
  if (const char *Env = std::getenv("CUBA_FUZZ_SEED"))
    if (auto V = parseUnsigned(Env))
      return *V;
  return 1;
}

/// A random non-empty canonical language over the bottom-lifted alphabet
/// (adversarial input shape, including empty-word acceptance so the
/// self-accept key component is exercised).
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
  return reference::liftedWordLanguage(P, {});
}

struct Instance {
  /// The generated system, shared by its threads' instances: the thread
  /// PDS saturates in place, with its built-in bottom marker.
  std::shared_ptr<const CpdsFile> File;
  unsigned Thread = 0;
  uint32_t NumShared = 0;
  CanonicalDfa Lang;
  uint64_t Seed = 0;

  const Pds &pds() const { return File->System.thread(Thread); }
};

std::vector<Instance> makeInstances(uint64_t Base, unsigned Count) {
  std::vector<Instance> Out;
  for (uint64_t Seed = Base; Out.size() < Count; ++Seed) {
    auto File = std::make_shared<const CpdsFile>(
        cuba::testing::generateRandomCpds(
            Seed, cuba::testing::cornerShapeOptions(Seed)));
    const Cpds &C = File->System;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0x1e);
    for (unsigned I = 0; I < C.numThreads() && Out.size() < Count; ++I) {
      const Pds &P = C.thread(I);
      Instance Inst;
      Inst.File = File;
      Inst.Thread = I;
      Inst.NumShared = C.numSharedStates();
      Inst.Seed = Seed;
      Inst.Lang =
          (Out.size() % 2 == 0)
              ? reference::liftedWordLanguage(P, C.initialState().Stacks[I])
              : randomLanguage(Rng, P);
      Out.push_back(std::move(Inst));
    }
  }
  return Out;
}

/// Extracts \p Root through \p Cache, expects the result to match the
/// plain pipeline byte for byte, and returns the reused-target count.
uint64_t extractMatchingPlain(const SharedSaturation &Sat, QState Root,
                              SharedSaturation::ExtractionCache &Cache,
                              uint64_t Seed, const char *Flow) {
  std::vector<std::pair<QState, CanonicalDfa>> Langs;
  std::vector<uint64_t> Hashes;
  uint64_t Reused = Sat.extractRootCached(Root, Cache, Langs, Hashes);
  auto Plain = Sat.extractRoot(Root);
  EXPECT_EQ(Langs, Plain) << Flow << " diverged from extractRoot: seed "
                          << Seed << ", root " << Root;
  EXPECT_EQ(Hashes.size(), Langs.size());
  for (size_t I = 0; I < Plain.size() && I < Hashes.size(); ++I)
    EXPECT_EQ(Hashes[I], Plain[I].second.hash())
        << Flow << " hash drift: seed " << Seed << ", root " << Root;
  return Reused;
}

constexpr unsigned NumInstances = 120;

} // namespace

//===----------------------------------------------------------------------===//
// The headline property: the cached extraction is byte-identical to the
// plain pipeline on the first pass, and a repeated root is served
// entirely from the cache -- every one of its targets counted skipped.
//===----------------------------------------------------------------------===//

TEST(IncrementalExtraction, CachedMatchesPlainAndRepeatsSkipEverything) {
  for (const Instance &Inst : makeInstances(baseSeed(), NumInstances)) {
    SharedSaturationResult R =
        sharedPostStar(Inst.pds(), Inst.NumShared, Inst.Lang);
    ASSERT_TRUE(R.Complete);
    const SharedSaturation &Sat = R.Sat;
    SharedSaturation::ExtractionCache Cache;
    for (QState Root = 0; Root < Inst.NumShared; ++Root)
      extractMatchingPlain(Sat, Root, Cache, Inst.Seed, "first pass");
    for (QState Root = 0; Root < Inst.NumShared; ++Root)
      EXPECT_EQ(
          extractMatchingPlain(Sat, Root, Cache, Inst.Seed, "repeat pass"),
          Inst.NumShared)
          << "a repeated root left the cache partially cold: seed "
          << Inst.Seed << ", root " << Root;
    if (::testing::Test::HasFailure())
      break; // One instance's divergence is enough diagnostics.
  }
}

//===----------------------------------------------------------------------===//
// Engine-level wiring: running the symbolic engine on real models must
// actually exercise the cache -- the deterministic
// extract.skipped_unchanged counter ends above zero.
//===----------------------------------------------------------------------===//

TEST(IncrementalExtraction, EngineCountsSkippedTargets) {
  uint64_t Before = obs::Metrics::value("extract.skipped_unchanged");
  ResourceLimits Limits;
  Limits.MaxStates = 2000;
  Limits.MaxSteps = 200000;
  Limits.MaxContexts = 6;
  for (uint64_t Seed = baseSeed(); Seed < baseSeed() + 10; ++Seed) {
    CpdsFile File = cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed));
    SymbolicEngine E(File.System, Limits);
    for (unsigned K = 0; K < 6 && !E.frontierEmpty(); ++K)
      if (E.advance() != SymbolicEngine::RoundStatus::Ok)
        break;
  }
  EXPECT_GT(obs::Metrics::value("extract.skipped_unchanged"), Before)
      << "ten seeded models never hit the extraction cache";
}
