//===-- testing/RandomCpds.cpp - Seeded random CPDS workloads -------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "testing/RandomCpds.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace cuba;
using namespace cuba::testing;

namespace {

/// One random action for thread \p P under \p Opts; \p NShared and
/// \p NSyms describe the frozen-to-be system.
Action randomAction(SplitMix64 &Rng, const RandomCpdsOptions &Opts,
                    unsigned NShared, unsigned NSyms) {
  Action A;
  A.SrcQ = static_cast<QState>(Rng.below(NShared));
  A.DstQ = static_cast<QState>(Rng.below(NShared));
  bool FromEmpty = Opts.AllowEmptyRules && Rng.chance(0.2);
  if (FromEmpty) {
    A.SrcSym = EpsSym;
    // Case (b) of the semantics: at most one written symbol.
    if (Rng.chance(0.6))
      A.Dst0 = static_cast<Sym>(Rng.range(1, NSyms)); // EmptyPush.
    return A;                                         // Else EmptyChange.
  }
  A.SrcSym = static_cast<Sym>(Rng.range(1, NSyms));
  double Shape = static_cast<double>(Rng.below(100)) / 100.0;
  if (Opts.AllowPush && Shape < 0.30) {
    A.Dst0 = static_cast<Sym>(Rng.range(1, NSyms)); // Push: new top...
    A.Dst1 = static_cast<Sym>(Rng.range(1, NSyms)); // ...over the rho1.
  } else if (Shape < 0.60) {
    A.Dst0 = static_cast<Sym>(Rng.range(1, NSyms)); // Overwrite.
  }
  return A; // Otherwise a Pop: target word stays eps.
}

} // namespace

CpdsFile cuba::testing::generateRandomCpds(uint64_t Seed,
                                           const RandomCpdsOptions &Opts) {
  // Decouple the stream from trivially correlated user seeds (0, 1, 2...).
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0xc0ffee);
  CpdsFile File;
  Cpds &C = File.System;

  unsigned NShared =
      static_cast<unsigned>(Rng.range(Opts.MinShared, Opts.MaxShared));
  for (unsigned Q = 0; Q < NShared; ++Q)
    C.addSharedState(std::to_string(Q));
  C.setInitialShared(static_cast<QState>(Rng.below(NShared)));

  unsigned NThreads =
      static_cast<unsigned>(Rng.range(Opts.MinThreads, Opts.MaxThreads));
  unsigned Replicas = Opts.ReplicateFirstThread && NThreads >= 2
                          ? static_cast<unsigned>(Rng.range(2, NThreads))
                          : 1;
  std::vector<Sym> FirstInit;
  for (unsigned T = 0; T < NThreads; ++T) {
    unsigned TI = C.addThread("P" + std::to_string(T));
    Pds &P = C.thread(TI);
    if (T > 0 && T < Replicas) {
      // A copy of thread 0, labels included.
      const Pds &First = C.thread(0);
      for (Sym S = 1; S <= First.numSymbols(); ++S)
        P.addSymbol(First.symbolName(S));
      for (uint32_t AI = 0; AI < First.actions().size(); ++AI) {
        Action A = First.actions()[AI];
        A.Label = P.internLabel(First.label(AI));
        P.addAction(A);
      }
      C.setInitialStack(TI, FirstInit);
      continue;
    }
    unsigned NSyms =
        static_cast<unsigned>(Rng.range(Opts.MinSymbols, Opts.MaxSymbols));
    for (unsigned S = 1; S <= NSyms; ++S)
      P.addSymbol("g" + std::to_string(S));

    std::vector<Sym> InitTopFirst;
    if (Opts.MaxInitDepth > 0)
      for (uint64_t D = Rng.range(0, Opts.MaxInitDepth); D > 0; --D)
        InitTopFirst.push_back(static_cast<Sym>(Rng.range(1, NSyms)));
    C.setInitialStack(TI, InitTopFirst);
    if (T == 0)
      FirstInit = InitTopFirst;

    unsigned NRules = std::max<unsigned>(
        1, static_cast<unsigned>(
               std::lround(Opts.RuleDensity * NShared * (NSyms + 1))));
    for (unsigned R = 0; R < NRules; ++R) {
      Action A = randomAction(Rng, Opts, NShared, NSyms);
      if (R == 0) {
        // Root the thread in its own initial configuration so most
        // instances have at least one enabled action to fire.
        Sym Top = InitTopFirst.empty() ? EpsSym : InitTopFirst.front();
        if (Top != EpsSym) {
          A.SrcQ = C.initialShared();
          A.SrcSym = Top;
        } else if (Opts.AllowEmptyRules) {
          A.SrcQ = C.initialShared();
          A.SrcSym = EpsSym;
          A.Dst1 = EpsSym;
          if (A.Dst0 == EpsSym && NSyms > 0 && Rng.chance(0.6))
            A.Dst0 = static_cast<Sym>(Rng.range(1, NSyms));
        }
      }
      if (Rng.chance(0.5))
        A.Label = P.internLabel("r" + std::to_string(R));
      P.addAction(A);
    }
  }

  if (Rng.chance(Opts.BadPatternProb)) {
    unsigned NPatterns = Rng.chance(0.3) ? 2 : 1;
    std::vector<VisiblePattern> Patterns;
    for (unsigned N = 0; N < NPatterns; ++N) {
      VisiblePattern Pat;
      if (Rng.chance(0.7))
        Pat.Q = static_cast<QState>(Rng.below(NShared));
      for (unsigned T = 0; T < NThreads; ++T) {
        double Kind = static_cast<double>(Rng.below(100)) / 100.0;
        if (Kind < 0.5)
          Pat.Tops.emplace_back(std::nullopt); // Wildcard.
        else if (Kind < 0.7)
          Pat.Tops.emplace_back(EpsSym); // Empty stack.
        else
          Pat.Tops.emplace_back(
              static_cast<Sym>(Rng.range(1, C.thread(T).numSymbols())));
      }
      Patterns.push_back(std::move(Pat));
    }
    if (Opts.SymmetricPatterns && Replicas >= 2) {
      // Add every permutation of each pattern's first Replicas entries.
      std::vector<unsigned> Perm(Replicas);
      for (size_t N = 0, Drawn = Patterns.size(); N < Drawn; ++N) {
        for (unsigned I = 0; I < Replicas; ++I)
          Perm[I] = I;
        while (std::next_permutation(Perm.begin(), Perm.end())) {
          VisiblePattern Pat = Patterns[N];
          for (unsigned I = 0; I < Replicas; ++I)
            Pat.Tops[I] = Patterns[N].Tops[Perm[I]];
          Patterns.push_back(std::move(Pat));
        }
      }
    }
    for (VisiblePattern &Pat : Patterns)
      File.Property.addBadPattern(std::move(Pat));
  }

  // Unconditional (not an assert): a generator emitting an invalid
  // instance must fail loudly even in NDEBUG builds, not hand the
  // engines an unfrozen system.
  if (auto R = C.freeze(); !R) {
    std::fprintf(stderr, "RandomCpds: seed %llu produced an invalid CPDS: %s\n",
                 static_cast<unsigned long long>(Seed),
                 R.error().str().c_str());
    std::abort();
  }
  return File;
}

RandomCpdsOptions cuba::testing::cornerShapeOptions(uint64_t Seed) {
  RandomCpdsOptions O;
  switch (Seed % 8) {
  case 0: // The default mixed shape.
    break;
  case 1: // Recursion-free: stacks never grow, R_k always finite.
    O.AllowPush = false;
    O.MaxInitDepth = 1;
    break;
  case 2: // Single thread: context bounds are vacuous after round 1.
    O.MinThreads = O.MaxThreads = 1;
    O.MaxSymbols = 4;
    O.RuleDensity = 0.6;
    break;
  case 3: // Empty-start: all behaviour flows through empty-stack rules.
    O.MaxInitDepth = 0;
    O.RuleDensity = 0.5;
    break;
  case 4: // Dense two-state systems: high interleaving pressure.
    O.MinShared = O.MaxShared = 2;
    O.MinThreads = 2;
    O.RuleDensity = 1.0;
    break;
  case 5: // Wide shared space, sparse rules: long reachability chains.
    O.MinShared = 5;
    O.MaxShared = 7;
    O.RuleDensity = 0.25;
    break;
  case 6: // Symbolic-heavy: deep recursion over wide visible alphabets,
          // so stack languages get big and the symbolic engine's
          // canonicalizeNfa dominates.
    O.MinThreads = 2;
    O.MinSymbols = 3;
    O.MaxSymbols = 5;
    O.MaxInitDepth = 4;
    O.RuleDensity = 0.6;
    break;
  case 7: // Replicated threads: thread 0's rules and initial stack on 2-4
          // threads.  Even seeds of the slot's own sequence (Seed / 8)
          // close the bad patterns under the copies' permutations; odd
          // ones keep the drawn patterns, which may break the class.
    O.MinThreads = 2;
    O.MaxThreads = 4;
    O.ReplicateFirstThread = true;
    O.SymmetricPatterns = Seed / 8 % 2 == 0;
    break;
  }
  return O;
}
