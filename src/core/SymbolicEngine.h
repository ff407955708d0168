//===-- core/SymbolicEngine.h - PSA-based symbolic engine -------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic context-bounded engine of Sec. 6 / App. E, used when the
/// system does not satisfy FCR and the sets R_k can be infinite: the
/// round core of core/SymbolicRounds.h over the boolean root-mask
/// saturation domain.  Row word 0 is the system's own shared state.
///
/// Saturation layer: psa/SaturationEngine saturates the multi-rooted
/// input (one mirror row per shared state, root masks on every
/// transition) ONCE per (thread, input DfaId), and per-root answers are
/// extracted from the retained masked relation via direct
/// canonicalization (fa/Canonicalize, no complete-DFA detour).  The
/// extraction cache is SharedSaturation::ExtractionCache: root classes
/// and per-target canonical forms, so a repeated root skips the product
/// rebuild and a root whose mask rows partially changed re-extracts only
/// the changed targets (counted as extract.skipped_unchanged).  Each
/// successor is charged the size of the automaton its canonicalization
/// reads.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_SYMBOLICENGINE_H
#define CUBA_CORE_SYMBOLICENGINE_H

#include "core/SymbolicRounds.h"
#include "psa/SaturationEngine.h"

namespace cuba {

namespace exec {
class ThreadPool;
} // namespace exec

/// The boolean root-mask saturation domain (see core/SymbolicRounds.h
/// for the interface).
class MaskRoundDomain {
public:
  using Sat = SharedSaturation;
  using Cache = SharedSaturation::ExtractionCache;

  static constexpr RoundNames Names = {
      .RoundSpan = "round",
      .Rounds = "symbolic.rounds",
      .RoundMicros = "symbolic.round_micros",
      .States = "symbolic.states",
      .Transactions = "symbolic.transactions",
      .TransactionsCached = "symbolic.transactions.cached",
      .PopsPerSaturation = "symbolic.pops_per_saturation",
      .ExtractionFanout = "symbolic.extraction_fanout",
      .SkippedUnchanged = "extract.skipped_unchanged",
      .Evictions = "symbolic.sat_evictions",
      .BytesHwm = "symbolic.bytes.hwm",
      .SatBytesHwm = "symbolic.sat_bytes.hwm",
      .CacheEntriesHwm = "symbolic.cache_entries.hwm"};

  explicit MaskRoundDomain(const Cpds &C) : C(C) {}

  QState numControlStates() const { return C.numSharedStates(); }

  DomainSaturation<Sat> saturate(unsigned Thread, const CanonicalDfa &Lang,
                                 LimitTracker *Limits) const {
    SharedSaturationResult R =
        sharedPostStar(C.thread(Thread), C.numSharedStates(), Lang, Limits);
    return {std::move(R.Sat), R.Complete};
  }

  /// The cache of root classes and canonical forms stays outside the
  /// byte budgets, like the core's top-set cache, so it reports none.
  DomainExtraction extract(const Sat &S, Cache &Cached, QState Root,
                           std::vector<ExtractedSucc> &Succs) const;

private:
  const Cpds &C;
};

extern template class SymbolicRounds<MaskRoundDomain>;

/// Round-by-round symbolic CBA exploration, over one canonical row per
/// orbit of \p Symmetry's classes (see core/SymbolicRounds.h); built
/// without one, unreduced.
class SymbolicEngine : public SymbolicRounds<MaskRoundDomain> {
public:
  SymbolicEngine(const Cpds &C, const ResourceLimits &Limits)
      : SymbolicEngine(C, Limits, ThreadSymmetry(C)) {}
  SymbolicEngine(const Cpds &C, const ResourceLimits &Limits,
                 ThreadSymmetry Symmetry)
      : SymbolicRounds(C, Limits, MaskRoundDomain(C), std::move(Symmetry)) {}

  /// Does nothing: symbolic rounds run serially at every `--jobs` (see
  /// core/SymbolicRounds.h).  Kept only for verifybench's staged pass,
  /// which still hands the engine its pool; it goes with that pass
  /// (ROADMAP direction 2).
  void setParallel(exec::ThreadPool *) {}
};

} // namespace cuba

#endif // CUBA_CORE_SYMBOLICENGINE_H
