//===-- testing/DifferentialOracle.h - Cross-engine oracle ------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle behind the randomized test suite and the
/// `cuba fuzz` subcommand.  It runs the explicit engine (CbaEngine), the
/// symbolic engine (SymbolicEngine), and the three CbaBaseline variants
/// on one instance under a shared resource budget and cross-checks every
/// property the implementation promises:
///
///  * per-k agreement: T(R_k) and T(S_k) discover exactly the same new
///    visible states in every completed round (App. E ties S_k to R_k),
///  * first-violation agreement: both engines witness a bad visible
///    state at the same context bound,
///  * baseline consistency: runCbaBaseline at bound K reports the bug
///    bound and visible-state count of the explicit engine's R_K, for
///    all three storage variants,
///  * FCR consistency: checkFcr is deterministic, an incomplete check
///    never claims FCR, the per-thread verdicts match Holds, and each
///    matches the classic automaton test (post* of the short-stack start
///    set, then language finiteness) wherever that test completes, down
///    to the number of saturated transitions into push helpers,
///  * driver agreement: when both the explicit-combined and the symbolic
///    top-level procedures conclude within budget, their verdicts and
///    bug bounds coincide.
///
/// Budget exhaustion is never an error: the oracle compares only rounds
/// both engines completed and reports how far it got.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTING_DIFFERENTIALORACLE_H
#define CUBA_TESTING_DIFFERENTIALORACLE_H

#include <string>
#include <vector>

#include "pds/CpdsIO.h"
#include "support/Limits.h"

namespace cuba::exec {
class ThreadPool;
} // namespace cuba::exec

namespace cuba::testing {

/// Configuration for one oracle run.
struct OracleOptions {
  /// Deepest context bound to compare round by round.
  unsigned MaxK = 5;
  /// Budget for each engine run (kept small: random instances without
  /// FCR can blow up explicitly, and exhaustion just truncates the
  /// comparison).  Deliberately no wall-clock limit: the state and step
  /// budgets already bound every run, and a time cutoff would make how
  /// far the comparison gets -- and hence whether a mismatch is seen --
  /// depend on machine speed, breaking seed reproducibility.
  ResourceLimits Limits{20'000, 2'000'000, 16, 0};
  /// Also run the three CbaBaseline variants and cross-check them.
  bool CheckBaselines = true;
  /// Also run the two top-level procedures and compare their verdicts.
  bool CheckDrivers = true;
  /// Testing hook for the oracle's own tests (the "mutation check"):
  /// pretend the explicit engine never discovered its N-th visible state
  /// (1-based).  A correct oracle must then report a mismatch on any
  /// instance with at least N reachable visible states.  0 = disabled.
  unsigned InjectDropVisible = 0;
  /// When set (and holding more than one job), every explicit engine the
  /// oracle runs -- the lockstep CbaEngine and the phase-4 explicit
  /// driver -- runs its levels in parallel on this pool; symbolic rounds
  /// are serial.  Parallel levels are bit-identical to serial ones, so
  /// reports (and fuzz seeds) stay reproducible across job counts.
  exec::ThreadPool *Pool = nullptr;
};

/// The outcome of one oracle run.
struct OracleReport {
  /// One human-readable line per detected disagreement; empty == pass.
  std::vector<std::string> Mismatches;
  /// Rounds compared before a budget stopped an engine (k = 0..KCompared).
  unsigned KCompared = 0;
  bool ExplicitExhausted = false;
  bool SymbolicExhausted = false;
  /// Which budget axis stopped each engine (None when it was not
  /// stopped).  Carried so fuzz reports can say *why* an instance was
  /// truncated (steps vs memory vs states).
  ExhaustKind ExplicitReason = ExhaustKind::None;
  ExhaustKind SymbolicReason = ExhaustKind::None;
  /// Peak logical footprint over the phase-1 lockstep pair (the max of
  /// the two engines' trackers), for `cuba fuzz --stats` per-seed lines.
  uint64_t PeakBytes = 0;

  bool ok() const { return Mismatches.empty(); }
  /// All mismatch lines joined for diagnostics.
  std::string str() const;
};

/// Runs every cross-check on \p File.
OracleReport runDifferentialOracle(const CpdsFile &File,
                                   const OracleOptions &Opts = {});

} // namespace cuba::testing

#endif // CUBA_TESTING_DIFFERENTIALORACLE_H
