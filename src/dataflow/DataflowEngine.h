//===-- dataflow/DataflowEngine.h - Weighted dataflow client ----*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural GEN/KILL taint analysis: the symbolic round core of
/// core/SymbolicRounds.h over the set-of-transformers saturation domain
/// (dataflow/TaintDomain.h) -- the real weighted-post* client the
/// semiring-generic saturator (psa/WeightedPostStar.h) exists for.
///
/// A row's control word is the *folded* state q | facts << SharedBits of
/// the base (weighted) translation, with err renumbered last -- the
/// coordinates of the TranslateOptions::FoldTaint product -- so a
/// (q, facts) pair is just a root, and the visible sets are directly
/// comparable with the folded reference's.  Each (thread, language) is
/// saturated once with WeightedSaturatorT<TaintDomain>: every transition
/// then carries, per base root, the set of GEN/KILL summaries of the
/// derivations that created it.
///
/// Extraction is a product construction over the *saturated automaton*
/// rather than the state space: per base root q, the relation is
/// unfolded into an NFA over (automaton state, composed transformer)
/// pairs -- reading edges top-first composes transformers in reverse
/// execution order (INV1), so appending a read edge with summary f to a
/// suffix with composite g yields seq(f, g).  The product is the
/// domain's extraction cache entry, built once per (saturation, q) and
/// reused for every fact vector.  For a root <q, facts>, grouping the
/// accepting product states by their output vector apply(g, facts) and
/// canonicalizing per (target, group) yields exactly the successor
/// <q', facts', A'> triples; each is charged the product's size.
///
/// Equivalence: running the ordinary engines on the folded product must
/// discover exactly the same visible states round for round -- the
/// differential oracle (testing/DataflowOracle.h) pins this against
/// CbaEngine on 150+ seeded random programs.  The weighted engine never
/// pays the 2^facts blowup in its saturations; the transformer sets grow
/// with the program's *distinct summaries* instead.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_DATAFLOW_DATAFLOWENGINE_H
#define CUBA_DATAFLOW_DATAFLOWENGINE_H

#include <memory>
#include <vector>

#include "bp/Translate.h"
#include "core/SymbolicRounds.h"
#include "dataflow/TaintDomain.h"
#include "psa/WeightedPostStar.h"

namespace cuba {

/// One concrete leak: thread \p Thread sits at sink frame \p Frame (a
/// top-of-stack in some reachable visible state) while fact \p Fact may
/// be tainted; \p Round is the context bound it was first seen at.
struct SinkHit {
  unsigned Thread = 0;
  Sym Frame = 0;
  int Fact = -1;
  unsigned Round = 0;

  auto operator<=>(const SinkHit &) const = default;
};

/// Scans a visible set (folded coordinates, first-seen rounds) against
/// the sink table: a hit is a state whose thread sits at a sink frame
/// while the fact bit is set.  One shared function of the visible set,
/// used by both the weighted engine and the oracle's folded reference,
/// so the two sides' verdicts can only differ if their visible sets do.
/// Entries first seen after \p MaxRound are ignored, making comparisons
/// safe under budget truncation.
std::vector<SinkHit>
scanSinkHits(const std::vector<std::pair<VisibleState, unsigned>> &Visible,
             const bp::TaintInfo &Taint, unsigned MaxRound = UINT32_MAX);

/// The GEN/KILL taint saturation domain (see core/SymbolicRounds.h for
/// the interface).
class TaintRoundDomain {
public:
  using Sat = WeightedRelation<TaintDomain>;

  /// The (automaton state, composed transformer) unfolding for one
  /// (saturation, base root): an NFA whose language at seed q2, with
  /// acceptance restricted to an output-vector group, is the successor
  /// stack language for that group's fact vector at q2.  The Nfa's own
  /// acceptance flags stay clear; extraction passes each group's.
  struct RootProduct {
    Nfa Prod{0};
    /// Target q2 -> product seed state (q2, identity).
    std::vector<uint32_t> SeedId;
    /// Product states accepting in the root's view, each with its
    /// composed summary.
    std::vector<std::pair<uint32_t, TaintTf>> Accepts;
    /// Logical footprint, a function of the element counts: what the
    /// extraction cache retains for this product.
    uint64_t Bytes = 0;
  };

  /// The extraction cache: each base root's product, once built.  The
  /// products are the part of the domain that grows with the composed
  /// summaries, so extract reports their bytes to the budgets.
  using Cache = std::vector<std::unique_ptr<const RootProduct>>;

  static constexpr RoundNames Names = {
      .RoundSpan = "dataflow-round",
      .Rounds = "dataflow.rounds",
      .RoundMicros = "dataflow.round_micros",
      .States = "dataflow.states",
      .Transactions = "dataflow.transactions",
      .TransactionsCached = "dataflow.transactions.cached",
      .PopsPerSaturation = "dataflow.pops_per_saturation",
      .ExtractionFanout = "dataflow.extraction_fanout",
      .SkippedUnchanged = "dataflow.products.reused",
      .Evictions = "dataflow.sat_evictions",
      .BytesHwm = "dataflow.bytes.hwm",
      .SatBytesHwm = "dataflow.sat_bytes.hwm",
      .CacheEntriesHwm = "dataflow.cache_entries.hwm"};

  /// \p C is the base (non-folded) translation; \p Taint its side table
  /// from the same translateProgram call, which refuses programs whose
  /// folded control states would not fit in 32 bits.
  TaintRoundDomain(const Cpds &C, const bp::TaintInfo &Taint);

  QState numControlStates() const { return FoldErr + 1; }

  DomainSaturation<Sat> saturate(unsigned Thread, const CanonicalDfa &Lang,
                                 LimitTracker *Limits) const;

  DomainExtraction extract(const Sat &S, Cache &Products, QState Root,
                           std::vector<ExtractedSucc> &Succs) const;

private:
  /// Unfolds \p S's relation in base root \p Root's view.
  std::unique_ptr<const RootProduct> buildProduct(const Sat &S,
                                                  QState Root) const;

  /// Folded control state: facts above the base bits, err renumbered
  /// past them.
  QState fold(QState Q, uint32_t Facts) const {
    return Q == BaseErr ? FoldErr : Q | (Facts << SharedBits);
  }

  const Cpds &C;
  unsigned SharedBits = 0;
  QState BaseErr = 0;
  QState FoldErr = 0;

  /// Per-thread rule weights (action index -> (Kill, Gen)).  The
  /// saturator fires empty-stack rules on the bottom marker under their
  /// original action indices, so one table serves both readings.
  std::vector<std::vector<TaintTf>> RuleTf;
};

extern template class SymbolicRounds<TaintRoundDomain>;

/// Round-by-round weighted dataflow exploration; the round interface is
/// SymbolicEngine's, so the dataflow oracle can run it in lockstep with
/// the folded product reference.  Visible states are reported in folded
/// coordinates.
class DataflowEngine : public SymbolicRounds<TaintRoundDomain> {
public:
  DataflowEngine(const Cpds &C, const bp::TaintInfo &Taint,
                 const ResourceLimits &Limits)
      : SymbolicRounds(C, Limits, TaintRoundDomain(C, Taint),
                       ThreadSymmetry(C)),
        Taint(Taint) {}

  /// Every sink observation among the visible states seen so far,
  /// sorted; empty == no leak.
  std::vector<SinkHit> sinkHits() const {
    return scanSinkHits(visibleFirstSeen(), Taint);
  }

private:
  const bp::TaintInfo &Taint;
};

} // namespace cuba

#endif // CUBA_DATAFLOW_DATAFLOWENGINE_H
