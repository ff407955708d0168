//===-- core/Algorithms.h - Scheme 1 and Alg. 3 ----------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CUBA procedures of Sec. 6, all run by one round loop over either
/// engine:
///
/// * Scheme 1(R_k) (Sec. 4): the global-state observation sequence is
///   stutter-free (Lemma 7), so a plateau R_{k-1} = R_k -- a round that
///   stores no new state -- proves collapse and hence safety for every
///   context bound.  On the symbolic engine the same test reads a round
///   that adds no symbolic state: S has reached a fixpoint, so nothing
///   new can ever appear (post* transactions of known states only
///   re-derive known states).  Canonical languages make it cheap.
///
/// * Alg. 3(T(R_k)) (Sec. 4.1): the visible-state sequence always
///   converges but may stutter; a new plateau counts as convergence only
///   when every potentially reachable generator (G cap Z) has been
///   reached.  Over the symbolic engine this is the paper's third
///   approach, Alg. 3(T(S_k)): visible states are extracted from
///   per-thread pushdown store automata instead of explicit state sets,
///   so non-FCR systems with infinite R_k are handled.
///
/// The loop applies both tests to each round of one engine, which is how
/// the paper's "fork two computational threads, return whichever
/// terminates first" (Sec. 6) is realised: first conclusion wins.
///
/// Every run partitions the threads into classes of interchangeable ones
/// (pds/ThreadSymmetry.h); the det gauges symmetry.classes and
/// symmetry.threads report the partition.  When a class exists, a
/// symbolic run explores one canonical symbolic state per orbit, and
/// both routes build G cap Z on orbits.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_ALGORITHMS_H
#define CUBA_CORE_ALGORITHMS_H

#include <new>

#include "core/Verdict.h"
#include "pds/Cpds.h"
#include "support/FaultInject.h"
#include "support/Limits.h"

namespace cuba {

namespace exec {
class ThreadPool;
} // namespace exec

/// Options shared by the CUBA procedures.
struct RunOptions {
  ResourceLimits Limits;
  /// Keep exploring after a bug to also report the convergence bound
  /// (Table 2 reports both for the unsafe benchmarks).
  bool ContinueAfterBug = false;
  /// Disable the frontier optimisation (ablation A2).
  bool ExpandAll = false;
  /// On a bug, reconstruct a concrete interleaving into
  /// RunResult::Trace (explicit engines only).
  bool BuildTrace = false;
  /// When set and holding more than one job, Alg. 3 builds G cap Z on
  /// one of this pool's workers beside the rounds, and the explicit
  /// engine fans levels of at least CbaEngine::MinParallelLevel parents
  /// out across its workers; results are bit-identical to a serial run
  /// (see src/exec/).  Symbolic rounds are serial.  The pool must outlive
  /// the run.
  exec::ThreadPool *Pool = nullptr;
};

/// Result of the round loop over one engine.
struct RoundsResult {
  /// Merged outcome; ConvergedAt is the first conclusion of the two
  /// tests.
  RunResult Run;
  /// Collapse bound k0 of (R_k) when Scheme 1 concluded (on the symbolic
  /// engine: the bound at which S reached its fixpoint).
  std::optional<unsigned> RkCollapse;
  /// Collapse bound k0 of (T(R_k)) when Alg. 3 concluded.
  std::optional<unsigned> TkCollapse;
};

/// Runs \p Body and returns its result.  Allocation failure anywhere in
/// it (real or injected -- the stores probe the Alloc fault point before
/// growing) degrades to the same graceful truncation as an exhausted
/// budget: a default \p Result whose Run is EXHAUSTED with the memory
/// reason, or the injected one for an InjectedFault, never a crash.
template <typename Result, typename Fn> Result runGuarded(Fn &&Body) {
  ExhaustKind Why = ExhaustKind::None;
  try {
    return Body();
  } catch (const fault::InjectedFault &) {
    // InjectedFault derives from bad_alloc; caught first to keep its
    // reason distinct.
    Why = ExhaustKind::Injected;
  } catch (const std::bad_alloc &) {
    Why = ExhaustKind::Memory;
  }
  Result R;
  R.Run.Exhausted = true;
  R.Run.ExhaustedBy = Why;
  return R;
}

/// Scheme 1 instantiated with (R_k); requires FCR in practice.
RunResult runScheme1Explicit(const Cpds &C, const SafetyProperty &Prop,
                             const RunOptions &Opts);

/// Alg. 3 instantiated with (T(R_k)) computed by projection from the
/// explicit R_k; requires FCR in practice.
RunResult runAlg3Explicit(const Cpds &C, const SafetyProperty &Prop,
                          const RunOptions &Opts);

/// Runs both procedures in lockstep on a single explicit engine (the
/// Sec. 6 driver's parallel composition).
RoundsResult runExplicitCombined(const Cpds &C, const SafetyProperty &Prop,
                                 const RunOptions &Opts);

/// Runs Alg. 3 with symbolic state sets on \p C, beside the fixpoint
/// test of S.
RoundsResult runAlg3Symbolic(const Cpds &C, const SafetyProperty &Prop,
                             const RunOptions &Opts);

} // namespace cuba

#endif // CUBA_CORE_ALGORITHMS_H
