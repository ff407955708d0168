//===-- tests/FaPropertyTest.cpp - Language-equivalence properties ---------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the library's one canonicalizer: seeded random
/// NFAs run through canonicalizeNfa (fa/Canonicalize.h) and are checked
/// against a brute-force language-membership oracle (bounded word
/// enumeration), against algebraic properties (canonical forms ignore
/// useless structure and are equal iff the sampled languages agree),
/// and bit-for-bit against the independent complete-DFA reference
/// canonicalizer kept in tests/ReferenceFa.h.
///
/// Every failure message carries the instance seed; rerun one seed by
/// fixing the loop bounds or via CUBA_FUZZ_SEED to shift the base.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>

#include "ReferenceFa.h"
#include "fa/Canonicalize.h"
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

/// A random NFA: up to \p MaxStates states over up to \p MaxSymbols
/// symbols, random edge density with epsilon moves, at least one
/// initial state (accepting states may be absent: the empty language is
/// a corner worth hitting).
Nfa randomNfa(SplitMix64 &Rng, unsigned MaxStates = 8,
              unsigned MaxSymbols = 3, unsigned MinSymbols = 1) {
  unsigned NStates = static_cast<unsigned>(Rng.range(1, MaxStates));
  unsigned NSyms = static_cast<unsigned>(Rng.range(MinSymbols, MaxSymbols));
  Nfa A(NSyms);
  for (unsigned S = 0; S < NStates; ++S)
    A.addState();
  A.setInitial(static_cast<uint32_t>(Rng.below(NStates)));
  if (Rng.chance(0.3))
    A.setInitial(static_cast<uint32_t>(Rng.below(NStates)));
  for (unsigned S = 0; S < NStates; ++S) {
    if (Rng.chance(0.4))
      A.setAccepting(S);
    unsigned Degree = static_cast<unsigned>(Rng.below(NSyms + 2));
    for (unsigned E = 0; E < Degree; ++E) {
      Sym Label = Rng.chance(0.15)
                      ? EpsSym
                      : static_cast<Sym>(Rng.range(1, NSyms));
      A.addEdge(S, Label, static_cast<uint32_t>(Rng.below(NStates)));
    }
  }
  return A;
}

/// All words over 1..NumSymbols of length <= MaxLen, in odometer order.
std::vector<std::vector<Sym>> allWords(uint32_t NumSymbols, unsigned MaxLen) {
  std::vector<std::vector<Sym>> Words;
  Words.push_back({});
  for (size_t Head = 0; Head < Words.size(); ++Head) {
    if (Words[Head].size() == MaxLen)
      continue;
    for (Sym X = 1; X <= NumSymbols; ++X) {
      std::vector<Sym> W = Words[Head];
      W.push_back(X);
      Words.push_back(std::move(W));
    }
  }
  return Words;
}

/// Membership in a canonical (partial) DFA: walk the table, NoState
/// rejects.
bool canonicalAccepts(const CanonicalDfa &C, const std::vector<Sym> &Word) {
  uint32_t S = C.Start;
  if (S == CanonicalDfa::NoState)
    return false;
  for (Sym X : Word) {
    S = C.Table[static_cast<size_t>(S) * C.NumSymbols + (X - 1)];
    if (S == CanonicalDfa::NoState)
      return false;
  }
  return C.Accepting[S] != 0;
}

/// A language-preserving disguise of \p A: useless structure (dead
/// states, epsilon cycles, unreachable accepting states) that must not
/// change the canonical form.
Nfa padded(const Nfa &A) {
  Nfa B(A.numSymbols());
  for (uint32_t S = 0; S < A.numStates(); ++S) {
    B.addState();
    if (A.isInitial(S))
      B.setInitial(S);
    if (A.isAccepting(S))
      B.setAccepting(S);
  }
  for (uint32_t S = 0; S < A.numStates(); ++S)
    for (const Nfa::Edge &E : A.edgesFrom(S))
      B.addEdge(S, E.Label, E.To);
  uint32_t Dead = B.addState(); // Pumpable but useless.
  B.addEdge(Dead, 1, Dead);
  uint32_t Orphan = B.addState(); // Accepting but unreachable.
  B.setAccepting(Orphan);
  uint32_t Eps = B.addState(); // Epsilon round trip through state 0.
  B.addEdge(0, EpsSym, Eps);
  B.addEdge(Eps, EpsSym, 0);
  return B;
}

/// A copy of \p A's edges whose initial states are exactly \p Roots and
/// whose accepting states are exactly those with an \p Accepting flag.
Nfa withFlags(const Nfa &A, const std::vector<uint32_t> &Roots,
              const std::vector<uint8_t> &Accepting) {
  Nfa B(A.numSymbols());
  for (uint32_t S = 0; S < A.numStates(); ++S)
    B.setAccepting(B.addState(), Accepting[S] != 0);
  for (uint32_t S = 0; S < A.numStates(); ++S)
    for (const Nfa::Edge &E : A.edgesFrom(S))
      B.addEdge(S, E.Label, E.To);
  for (uint32_t S : Roots)
    B.setInitial(S);
  return B;
}

constexpr unsigned NumInstances = 150;
constexpr unsigned MaxWordLen = 5;

} // namespace

//===----------------------------------------------------------------------===//
// Membership oracle: the canonical form accepts exactly the words the
// NFA accepts, over every word up to MaxWordLen.
//===----------------------------------------------------------------------===//

TEST(FaProperty, PipelinePreservesLanguage) {
  for (unsigned I = 0; I < NumInstances; ++I) {
    uint64_t Seed = baseSeed() + I;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0xfa);
    Nfa A = randomNfa(Rng);
    CanonicalDfa C = canonicalizeNfa(A);
    for (const std::vector<Sym> &W : allWords(A.numSymbols(), MaxWordLen))
      EXPECT_EQ(canonicalAccepts(C, W), A.accepts(W))
          << "canonicalizeNfa, seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Algebraic properties.
//===----------------------------------------------------------------------===//

TEST(FaProperty, CanonicalizeIsInvariantUnderPadding) {
  for (unsigned I = 0; I < NumInstances; ++I) {
    uint64_t Seed = baseSeed() + I;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0xfc);
    Nfa A = randomNfa(Rng);
    CanonicalDfa CA = canonicalizeNfa(A);
    CanonicalDfa CB = canonicalizeNfa(padded(A));
    EXPECT_EQ(CA, CB) << "padding changed the canonical form, seed " << Seed;
    EXPECT_EQ(CA.hash(), CB.hash());
  }
}

TEST(FaProperty, CanonicalEqualityMatchesSampledLanguage) {
  // Soundness of canonical equality as a language key, on pairs: equal
  // canonical forms accept the same sample; a differing sample forces
  // differing canonical forms.  (Sample agreement with different forms
  // is possible in principle -- the sample is finite -- but then the
  // forms must disagree on some longer word, which structural equality
  // correctly reflects; we only assert the sound directions.)
  for (unsigned I = 0; I < NumInstances; ++I) {
    uint64_t Seed = baseSeed() + I;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0xfd);
    // Pin both instances to one alphabet so the sampled languages are
    // comparable.
    unsigned NSyms = static_cast<unsigned>(Rng.range(1, 3));
    Nfa A = randomNfa(Rng, 6, NSyms, NSyms);
    Nfa B = randomNfa(Rng, 6, NSyms, NSyms);
    ASSERT_EQ(A.numSymbols(), B.numSymbols());
    CanonicalDfa CA = canonicalizeNfa(A);
    CanonicalDfa CB = canonicalizeNfa(B);
    bool SampleEqual = true;
    for (const std::vector<Sym> &W : allWords(A.numSymbols(), MaxWordLen))
      if (A.accepts(W) != B.accepts(W)) {
        SampleEqual = false;
        break;
      }
    if (CA == CB) {
      EXPECT_TRUE(SampleEqual)
          << "equal canonical forms but different languages, seed " << Seed;
    }
    if (!SampleEqual) {
      EXPECT_NE(CA, CB)
          << "different languages but equal canonical forms, seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// Bit-for-bit agreement with the reference canonicalizer: the canonical
// form is unique per language, so the fused subset-construction /
// partial-Hopcroft pass must reproduce the complete-DFA reference
// exactly, and any divergence is a bug in the fused pass.
//===----------------------------------------------------------------------===//

TEST(FaProperty, CanonicalizeMatchesReferenceBitForBit) {
  for (unsigned I = 0; I < NumInstances; ++I) {
    uint64_t Seed = baseSeed() + I;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0x100);
    Nfa A = randomNfa(Rng);
    EXPECT_EQ(canonicalizeNfa(A),
              reference::canonicalize(reference::determinize(A)))
        << "canonicalizeNfa diverged from the reference, seed " << Seed;
  }
}

TEST(FaProperty, DirectCanonicalizationMatchesPipeline) {
  // Wide alphabets: the sparse-row path the fused pass exists for,
  // against the staged reference pipeline's dense sink-completed rows.
  for (unsigned I = 0; I < NumInstances; ++I) {
    uint64_t Seed = baseSeed() + I;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0x1a);
    Nfa A = randomNfa(Rng, 8, 12, 4);
    CanonicalDfa Direct = canonicalizeNfa(A);
    CanonicalDfa Staged = reference::canonicalize(reference::determinize(A));
    EXPECT_EQ(Direct, Staged) << "fused canonicalization diverged, seed "
                              << Seed;
    if (Direct == Staged) {
      EXPECT_EQ(Direct.hash(), Staged.hash());
    }
  }
}

TEST(FaProperty, DirectCanonicalizationHonoursExplicitRoots) {
  for (unsigned I = 0; I < NumInstances; ++I) {
    uint64_t Seed = baseSeed() + I;
    SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0x1b);
    Nfa A = randomNfa(Rng);
    // Read from a root set, and accept at a state set, chosen
    // independently of A's own flags.
    std::vector<uint32_t> Roots;
    for (uint32_t S = 0; S < A.numStates(); ++S)
      if (Rng.chance(0.4))
        Roots.push_back(S);
    std::vector<uint8_t> Own(A.numStates()), Accepting(A.numStates());
    for (uint32_t S = 0; S < A.numStates(); ++S) {
      Own[S] = A.isAccepting(S) ? 1 : 0;
      Accepting[S] = Rng.chance(0.4) ? 1 : 0;
    }
    EXPECT_EQ(canonicalizeNfa(A, Roots),
              reference::canonicalize(
                  reference::determinize(withFlags(A, Roots, Own))))
        << "explicit-roots canonicalization diverged, seed " << Seed;
    EXPECT_EQ(canonicalizeNfa(A, Roots, Accepting),
              reference::canonicalize(
                  reference::determinize(withFlags(A, Roots, Accepting))))
        << "explicit-acceptance canonicalization diverged, seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// The injected-mutation sensitivity check: an under-refining
// canonicalizeNfa must be caught by the reference comparison (pins the
// suite's teeth, like the differential oracle's InjectDropVisible
// check).  The reference does not read the hook.  The instances are
// wider than randomNfa's default (up to 12 states over 2-4 symbols): on
// small ones acceptance alone often separates the minimal DFA's states,
// which leaves an acceptance-only partition nothing to get wrong.
//===----------------------------------------------------------------------===//

TEST(FaProperty, ReferenceComparisonCatchesInjectedMinimizeBug) {
  fa_testing::InjectMinimizeUnderRefine = true;
  unsigned Caught = 0;
  for (unsigned I = 0; I < 40; ++I) {
    SplitMix64 Rng((1000 + I) * 0x9e3779b97f4a7c15ull + 0xff);
    Nfa A = randomNfa(Rng, /*MaxStates=*/12, /*MaxSymbols=*/4,
                      /*MinSymbols=*/2);
    if (canonicalizeNfa(A) !=
        reference::canonicalize(reference::determinize(A)))
      ++Caught;
  }
  fa_testing::InjectMinimizeUnderRefine = false;
  RecordProperty("caught", static_cast<int>(Caught));
  EXPECT_GE(Caught, 10u)
      << "an under-refining canonicalizeNfa went largely unnoticed";
}
