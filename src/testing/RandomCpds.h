//===-- testing/RandomCpds.h - Seeded random CPDS workloads -----*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generator of well-formed random CPDS instances, the workload
/// side of the differential-testing harness (testing/DifferentialOracle).
/// Instances are built through the same public Cpds/Pds API the parser
/// uses and are guaranteed to freeze() successfully and to round-trip
/// through the .cpds text format.  The same (seed, options) pair always
/// yields the same instance, on every platform: the generator uses its
/// own SplitMix64 stream rather than <random> distributions, whose
/// output is implementation-defined.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTING_RANDOMCPDS_H
#define CUBA_TESTING_RANDOMCPDS_H

#include <cstdint>

#include "pds/CpdsIO.h"

namespace cuba::testing {

/// A small deterministic PRNG (SplitMix64) used by the generator and
/// available to tests that need reproducible randomness.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : X(Seed) {}

  uint64_t next() {
    uint64_t Z = (X += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  /// Uniform value in [0, Bound); Bound must be positive.
  uint64_t below(uint64_t Bound) { return next() % Bound; }

  /// Uniform value in [Lo, Hi] (inclusive).
  uint64_t range(uint64_t Lo, uint64_t Hi) {
    return Lo + below(Hi - Lo + 1);
  }

  /// True with probability \p P (clamped to [0, 1]).
  bool chance(double P) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < P;
  }

private:
  uint64_t X;
};

/// Knobs for the random generator.  All ranges are inclusive.
struct RandomCpdsOptions {
  unsigned MinThreads = 1;
  unsigned MaxThreads = 3;
  unsigned MinShared = 2;
  unsigned MaxShared = 4;
  /// Per-thread stack-alphabet size.
  unsigned MinSymbols = 1;
  unsigned MaxSymbols = 3;
  /// Expected number of rules per thread, as a fraction of the source
  /// domain |Q| * (|Sigma| + 1); at least one rule is always emitted.
  double RuleDensity = 0.4;
  /// Allow push rules (q, s) -> (q', r0 r1).  Disabling them yields the
  /// recursion-free corner shape whose stacks never grow.
  bool AllowPush = true;
  /// Allow rules firing on the empty stack ((q, eps) -> ...).
  bool AllowEmptyRules = true;
  /// Maximum depth of each thread's initial stack (0 = all start empty).
  unsigned MaxInitDepth = 2;
  /// Probability that the instance carries a safety property (one or two
  /// random bad patterns).
  double BadPatternProb = 0.6;
  /// Copy thread 0's alphabet, rules and initial stack to threads
  /// 1..R-1, for R drawn from [2, number of threads] (a one-thread
  /// instance stays as drawn).
  bool ReplicateFirstThread = false;
  /// With ReplicateFirstThread: close the bad patterns under the
  /// permutations of the R copies, so they form one class of
  /// interchangeable threads (pds/ThreadSymmetry.h).  Without it the
  /// drawn patterns may split or dissolve that class.
  bool SymmetricPatterns = false;
};

/// Generates one frozen, well-formed CPDS (plus property) from \p Seed.
/// Never fails: every instance the generator can emit passes freeze().
CpdsFile generateRandomCpds(uint64_t Seed, const RandomCpdsOptions &Opts = {});

/// Derives one of eight rotating corner-shape option presets from
/// \p Seed % 8 (default mix, recursion-free, single-thread, empty-start
/// with empty-stack rules, dense two-state, wide shared space,
/// symbolic-heavy deep recursion over wide alphabets, replicated
/// threads).  Feeding consecutive seeds through this covers the corner
/// shapes evenly while staying fully reproducible.
RandomCpdsOptions cornerShapeOptions(uint64_t Seed);

} // namespace cuba::testing

#endif // CUBA_TESTING_RANDOMCPDS_H
