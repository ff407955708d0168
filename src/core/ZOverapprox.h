//===-- core/ZOverapprox.h - The overapproximation Z (Alg. 2) ---*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The context-insensitive overapproximation Z of T(R) (Sec. 4.1.3):
/// every thread's stack is cut off at size one (Alg. 2 builds the
/// finite-state abstraction M_i; Cpds::abstractSuccessors implements its
/// transition relation), and Z is the set of states of the asynchronous
/// product M_n reachable from the projected initial state.  Lemma 12:
/// T(R) is a subset of Z, so G cap Z overapproximates the reachable
/// generators, which is what Alg. 3's convergence test needs.
///
/// The exploration runs on packed visible words (pds/VisibleSet.h)
/// whenever the CPDS's visible states fit in 64 bits.  Each thread's
/// moves are precomputed once per exploration, along its Pds's own
/// (q, top) source index, as deltas with q' and the new top already
/// shifted into place (pops flagged to expose the emerging symbols E), so
/// a successor is its source word with the Q field and the moving
/// thread's top cleared and one delta or-ed in.  Alg. 3's GeneratorTest
/// keeps G cap Z as those words, unsorted and never unpacked, and probes
/// the engine's visible set by word.  The sorted VisibleState entry
/// points (computeZ, computeGeneratorsInZ) sort and unpack at the end.
/// Wider systems fall back to a VisibleState BFS over abstractSuccessors.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_ZOVERAPPROX_H
#define CUBA_CORE_ZOVERAPPROX_H

#include <atomic>
#include <optional>
#include <vector>

#include "pds/Cpds.h"
#include "pds/ThreadSymmetry.h"
#include "support/Limits.h"

namespace cuba {

class GeneratorSet;

namespace exec {
class ThreadPool;
} // namespace exec

/// Computes Z by exhaustive exploration of M_n; the result is sorted.
/// The domain is finite (|Q| * prod |Sigma_i + 1|) so this terminates
/// without a budget, but it can be astronomically larger than the
/// concretely reachable set (Boolean-program translations put thousands
/// of frame symbols in each Sigma_i), so callers that answer under a
/// ResourceLimits budget must pass \p Limits.  The exploration charges
/// chargeStep(successors + 1) per (state, thread) and chargeState per
/// new state.  On exhaustion the result is empty -- unambiguous, because
/// a completed exploration always contains the projected initial state.
std::vector<VisibleState> computeZ(const Cpds &C,
                                   LimitTracker *Limits = nullptr);

/// G cap Z: the exploration (and charges) of computeZ, keeping only the
/// generators.  Membership is tested on the packed words, so only
/// G cap Z is ever unpacked.  Sorted, and equal to
/// G.intersect(computeZ(C)) when the budget suffices; nullopt when it
/// does not (G cap Z can be empty, so emptiness signals nothing here).
std::optional<std::vector<VisibleState>>
computeGeneratorsInZ(const Cpds &C, const GeneratorSet &G,
                     LimitTracker *Limits = nullptr);

/// The same, with M_n explored on the canonical words of \p Symmetry (a
/// symmetry of the system G belongs to: Z and G are closed under its
/// class permutations): the canonical image of G cap Z, at a fraction of
/// the charges.
std::optional<std::vector<VisibleState>>
computeGeneratorsInZ(const Cpds &C, const GeneratorSet &G,
                     LimitTracker *Limits, const ThreadSymmetry &Symmetry);

/// Alg. 3's generator test (line 4), G cap Z <= T(R_k), for the round
/// loop over either engine.  Only this test reads Z, and it runs only at a
/// new plateau of T(R_k).  Serially G cap Z is built on the first call,
/// so a run that finds its bug before any plateau never explores M_n.
/// With a pool of more than one job, start() builds it on a worker
/// beside the rounds instead (Z depends on the CPDS alone), the first
/// call joins it, and finish() cancels and joins a build the run no
/// longer needs.  The exploration gets its own LimitTracker over the
/// run's budget, so it never moves the engine's trajectory; if that
/// tracker runs out, the test never passes (covering a truncated Z would
/// be unsound).  Either way the det `z-overapprox` span is emitted on
/// the driver at the first call (at jobs > 1 its duration is the
/// driver's wait at the join), so traces match at every `--jobs`.
///
/// G cap Z is kept as an unsorted vector of packed words, filtered by
/// generator membership on the word, and each entry is probed against
/// the engine's visible set by word (VisibleState values only on
/// systems too wide to pack).  It is built on the orbits of
/// \p Symmetry, a symmetry of the system and its property: on either
/// engine T(R_k) is closed under its class permutations (the explicit
/// engine stores every state; the symbolic one stores canonical forms
/// under this same symmetry), so a canonical word is in T(R_k) iff its
/// whole orbit is, and the test needs only the canonical words.
class GeneratorTest {
public:
  GeneratorTest(const Cpds &C, const ResourceLimits &Limits,
                ThreadSymmetry Symmetry)
      : C(C), Limits(Limits), Symmetry(std::move(Symmetry)) {}
  /// Cancels and joins a background build still running, dropping its
  /// result and any exception (the run is over or already unwinding).
  ~GeneratorTest();

  GeneratorTest(const GeneratorTest &) = delete;
  GeneratorTest &operator=(const GeneratorTest &) = delete;

  /// Starts building G cap Z on a worker of \p Pool when it has more
  /// than one job; otherwise (nullptr included) the first coveredBy call
  /// builds it.  The pool must outlive finish().
  void start(exec::ThreadPool *Pool);

  /// True when \p E has reached every state of G cap Z.  Monotone:
  /// reached entries stay reached, so they are dropped and only the
  /// remainder is retested at later plateaus.  Rethrows what a
  /// background build threw.
  template <typename EngineT> bool coveredBy(const EngineT &E) {
    if (!Built)
      build();
    if (!Explored)
      return false;
    std::erase_if(PendingWords,
                  [&](uint64_t W) { return E.visibleWordReached(W); });
    std::erase_if(Pending,
                  [&](const VisibleState &V) { return E.visibleReached(V); });
    return PendingWords.empty() && Pending.empty();
  }

  /// Ends the run: cancels a background build that is still running and
  /// joins it, rethrowing what it threw.  No span is emitted for it.
  void finish();

private:
  /// Builds (or joins) G cap Z and emits its span.
  void build();
  /// One exploration of M_n into the pending entries and ZSize,
  /// stopping early once \p Cancel is set.
  void explore(const std::atomic<bool> *Cancel);

  const Cpds &C;
  ResourceLimits Limits;
  ThreadSymmetry Symmetry;
  /// Set while a background build is outstanding.
  exec::ThreadPool *Pool = nullptr;
  std::atomic<bool> Cancel{false};
  /// The exploration's output, written by whichever thread ran it and
  /// read after the join: whether it completed within its budget, |Z|,
  /// and the entries of G cap Z not yet reached -- packed words, or
  /// VisibleStates on a system too wide to pack.
  bool Explored = false;
  uint64_t ZSize = 0;
  std::vector<uint64_t> PendingWords;
  std::vector<VisibleState> Pending;
  bool Built = false;
};

} // namespace cuba

#endif // CUBA_CORE_ZOVERAPPROX_H
