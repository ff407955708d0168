//===-- core/FcrCheck.h - Finite context reachability (Sec. 5) --*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FCR semi-decision test of Sec. 5.  A CPDS satisfies finite context
/// reachability when every R_k is finite; Thm. 17 reduces this to a
/// per-thread check: if R(Q x Sigma_i^{<=1}) is finite for every thread
/// i, all R_k are finite.
///
/// Each per-thread set is the language of post* of the short-stack start
/// set (psa/PostStar's shortStackAutomaton, over the bottom-lifted
/// system), and it is finite exactly when the useful part of that
/// automaton has no cycle through a real symbol.  The test runs the
/// saturation with the start set's two non-shared states left implicit:
/// the start set already holds (q, s, mid) for every shared state q and
/// symbol s, and (q, bot, fin), so every rule fired on it re-derives a
/// start edge, except a push (q, s) -> (q', y1 y2), which adds
/// (q', y1, h) and (h, y2, mid) for the push helper h = h(q', y1).  So
///
///   - one pass over the actions creates the helper of every push
///     (lifted empty-stack pushes included) and seeds (q', y1, h);
///   - the post* rules then run only over transitions into helpers:
///     firing the rules of (p, z, h), composing (p, eps, h) with h's
///     helper out-edges, and composing a helper edge (h, y, h') with
///     the epsilon edges entering h;
///   - every derived edge into mid or fin is a start edge, so it is
///     dropped.
///
/// The finiteness test then reduces to a cycle test on the helper graph.
/// Every helper is reachable (by y1 from the shared state q'), and every
/// helper is co-reachable (through its push's own edge into mid or fin).
/// Shared states have no incoming edges, epsilon edges leave only shared
/// states, and mid and fin lead only to fin.  So a useful cycle is a
/// cycle of helper edges, each of which reads a real symbol: the
/// language is infinite exactly when the helper graph has a cycle.
///
/// The check is sufficient, not necessary (the paper leaves decidability
/// of FCR open), so a negative answer routes the driver to the symbolic
/// engine rather than declaring the system non-FCR.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_FCRCHECK_H
#define CUBA_CORE_FCRCHECK_H

#include <vector>

#include "pds/Cpds.h"
#include "support/Limits.h"

namespace cuba {

/// Outcome of the FCR test.
struct FcrResult {
  /// True when every thread passed the finiteness test.
  bool Holds = false;
  /// Per-thread verdicts (aligned with the CPDS threads).
  std::vector<bool> ThreadFinite;
  /// False when a saturation ran out of budget; Holds is then false and
  /// the answer is "unknown" rather than "no".
  bool Complete = true;
  /// Push helpers created over all threads.
  uint64_t Helpers = 0;
};

/// Runs the per-thread test of Thm. 17 on \p C.  Each thread charges
/// \p Limits one step per action (the seed pass) and one per saturation
/// worklist pop.
FcrResult checkFcr(const Cpds &C, LimitTracker *Limits = nullptr);

/// Outcome of the single-thread test.
struct FcrThreadResult {
  /// Is R(Q x Sigma^{<=1}) finite?  False when incomplete.
  bool Finite = false;
  /// False when the saturation ran out of budget.
  bool Complete = true;
  /// Push helpers created.
  uint32_t Helpers = 0;
  /// Saturated edges into helpers: the transitions into helper states
  /// of the classic post* automaton, which the differential oracle
  /// compares.
  uint64_t Edges = 0;
};

/// The single-thread test: is R(Q x Sigma^{<=1}) of \p P finite?
FcrThreadResult threadShortStackReachabilityFinite(
    const Pds &P, LimitTracker *Limits = nullptr);

} // namespace cuba

#endif // CUBA_CORE_FCRCHECK_H
