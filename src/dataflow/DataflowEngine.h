//===-- dataflow/DataflowEngine.h - Weighted dataflow client ----*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural GEN/KILL taint analysis over the semiring-generic
/// saturation core: the real weighted-post* client the boolean-set
/// refactor (psa/WeightedPostStar.h) exists for.
///
/// The engine runs the symbolic context-bounded rounds of
/// core/SymbolicEngine over *augmented* symbolic states
/// <q, facts | A_1..A_n>: a shared control state of the base (weighted)
/// translation, a taint fact vector, and one canonical stack language
/// per thread.  Where the symbolic engine saturates with the
/// boolean-set domain, this engine saturates each (thread, language)
/// once with the set-of-transformers domain (dataflow/TaintDomain.h):
/// every transition of the relation then carries, per shared root, the
/// set of GEN/KILL summaries of the derivations that created it.
///
/// Extraction is a product construction over the *saturated automaton*
/// rather than the state space: per root, the relation is unfolded into
/// an NFA over (automaton state, composed transformer) pairs -- reading
/// edges top-first composes transformers in reverse execution order
/// (INV1), so appending a read edge with summary f to a suffix with
/// composite g yields seq(f, g).  For an incoming fact vector, grouping
/// the accepting product states by their output vector apply(g, in) and
/// canonicalizing per (target, group) yields exactly the successor
/// <q', facts', A'> triples.  The product is built once per (language,
/// root) and reused for every incoming fact vector.
///
/// Equivalence: folding the fact bits into the control state (the
/// TranslateOptions::FoldTaint product construction) and running the
/// ordinary engines must discover exactly the projected visible states
/// round for round -- the differential oracle
/// (testing/DataflowOracle.h) pins this against CbaEngine on 150+
/// seeded random programs.  The weighted engine never pays the
/// 2^facts control-state blowup; the transformer sets grow with the
/// program's *distinct summaries* instead.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_DATAFLOW_DATAFLOWENGINE_H
#define CUBA_DATAFLOW_DATAFLOWENGINE_H

#include <map>
#include <vector>

#include "bp/Translate.h"
#include "dataflow/TaintDomain.h"
#include "fa/DfaStore.h"
#include "fa/Nfa.h"
#include "pds/Cpds.h"
#include "pds/State.h"
#include "psa/WeightedPostStar.h"
#include "support/FlatHash.h"
#include "support/Limits.h"
#include "support/SmallVec.h"

namespace cuba {

/// A dataflow symbolic state <q, facts | A_1..A_n>.
struct DataflowState {
  QState Q = 0;
  uint32_t Facts = 0;
  SmallVec<DfaId, 4> Langs;

  bool operator==(const DataflowState &) const = default;
};

struct DataflowStateHash {
  uint64_t operator()(const DataflowState &S) const {
    uint64_t H = hashCombine(0xDF17, S.Q);
    H = hashCombine(H, S.Facts);
    for (DfaId Id : S.Langs)
      H = hashCombine(H, Id);
    return H;
  }
};

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

/// Round-by-round weighted dataflow exploration; the round interface
/// mirrors CbaEngine / SymbolicEngine so the dataflow oracle can run it
/// in lockstep with the folded product reference.
class DataflowEngine {
public:
  enum class RoundStatus { Ok, Exhausted };

  /// \p C is the base (non-folded) translation; \p Taint its side
  /// table from the same translateProgram call.
  DataflowEngine(const Cpds &C, const bp::TaintInfo &Taint,
                 const ResourceLimits &Limits);

  unsigned bound() const { return Bound; }
  RoundStatus advance();

  size_t stateCount() const { return States.size(); }
  size_t visibleSize() const { return FirstSeen.size(); }
  bool frontierEmpty() const { return Frontier.empty() && Bound > 0; }

  /// Visible states first reached in the current round, sorted --
  /// reported in FOLDED coordinates (facts packed above the control
  /// bits, err renumbered last), directly comparable with the folded
  /// reference engine's projections.
  std::vector<VisibleState> newVisibleThisRound() const;

  /// All reachable visible states (folded coordinates) with first-seen
  /// rounds, sorted.
  std::vector<std::pair<VisibleState, unsigned>> visibleFirstSeen() const;

  /// Every sink observation among the visible states seen so far,
  /// sorted; empty == no leak.
  std::vector<SinkHit> sinkHits() const;

  const LimitTracker &limits() const { return Limits; }

  /// Number of distinct (thread, language) weighted saturations run.
  size_t saturationCount() const { return Sats.size(); }

private:
  /// One retained weighted saturation with its per-root products and
  /// per-(root, facts) transaction records.
  struct WSat {
    WeightedRelation<TaintDomain> Rel;
    bool Complete = true;
    uint64_t PendingBase = 0; // Pop charge, carried by the first root.
    /// Root -> RootProducts index (built lazily per root).
    FlatMap<uint32_t, uint32_t> Roots;
    /// (root, facts) -> Transactions index.
    FlatMap<uint64_t, uint32_t> Records;
  };

  /// The (automaton state, composed transformer) unfolding for one
  /// (saturation, root): an NFA whose language at seed q2, with
  /// acceptance restricted to output vector group G, is the successor
  /// stack language of <root, facts> reaching <q2, G(facts)>.
  struct RootProduct {
    Nfa Prod{0};
    /// Product state -> (relation state, composed TfId).
    std::vector<std::pair<uint32_t, uint32_t>> PStates;
    /// Shared target q2 -> product seed id (q2, identity).
    std::vector<uint32_t> SeedId;
    /// Product states whose relation state accepts in the root's view.
    std::vector<uint32_t> Accepts;
    uint64_t memoryBytes() const {
      return static_cast<uint64_t>(PStates.size()) * 16 +
             SeedId.size() * 4 + Accepts.size() * 4;
    }
  };

  struct Transaction {
    struct Succ {
      QState Q2;
      uint32_t FactsOut;
      DfaId Lang;
      uint64_t StepCost;
    };
    std::vector<Succ> Succs;
    uint64_t BaseSteps = 0;
  };

  bool expand(const DataflowState &S, unsigned I,
              std::vector<DataflowState> &NewFrontier);

  /// Saturation of (thread \p I, language \p Lang), cached.  Returns
  /// UINT32_MAX on budget exhaustion.
  uint32_t saturate(unsigned I, DfaId Lang);

  /// The (root) product of saturation \p SatIdx, built on first use.
  uint32_t rootProduct(uint32_t SatIdx, QState Root);

  /// Extracts the successors of <S.Q, S.Facts> from \p SatIdx's root
  /// product, charging the budget per successor and registering the
  /// new states, then records the transaction for replay -- the
  /// weighted analogue of SymbolicEngine::commitRootExtraction.
  bool commitExtraction(uint32_t SatIdx, const DataflowState &S, unsigned I,
                        std::vector<DataflowState> &NewFrontier);

  bool replayTransaction(const Transaction &TR, const DataflowState &S,
                         unsigned I, std::vector<DataflowState> &NewFrontier);

  bool addSuccessor(const DataflowState &S, unsigned I, QState Q2,
                    uint32_t FactsOut, DfaId Lang,
                    std::vector<DataflowState> &NewFrontier);

  std::pair<bool, bool> addState(DataflowState S, unsigned Round,
                                 uint32_t Producer,
                                 std::vector<DataflowState> *NewFrontier);

  void recordVisible(const DataflowState &S, unsigned Round);

  /// Folded-coordinate control state: facts above the base bits, err
  /// renumbered past them.
  QState foldQ(QState Q, uint32_t Facts) const {
    return Q == BaseErr ? FoldErr : Q | (Facts << SharedBits);
  }

  const std::vector<Sym> &topsOf(unsigned Thread, DfaId Lang);

  uint64_t memoryUsage() const {
    return Store.memoryBytes() + States.memoryBytes() + SatBytes +
           static_cast<uint64_t>(FirstSeen.size()) * VisibleEntryBytes;
  }

  const Cpds &C;
  const bp::TaintInfo &Taint;
  LimitTracker Limits;
  unsigned Bound = 0;

  unsigned SharedBits = 0;
  QState BaseErr = 0;
  QState FoldErr = 0;

  /// Per-thread rule weights (action index -> (Kill, Gen)).  The
  /// saturator fires empty-stack rules on the bottom marker under their
  /// original action indices, so one table serves both readings.
  std::vector<std::vector<TaintTf>> RuleTf;

  DfaStore Store;
  FlatMap<DataflowState, uint32_t, DataflowStateHash> States;
  std::vector<DataflowState> Frontier;
  /// Folded visible projection -> first-seen round.  Ordered map: the
  /// suite's instances are small, and sorted iteration gives the
  /// deterministic round reports for free.
  std::map<VisibleState, unsigned> FirstSeen;

  struct TopsCacheEntry {
    std::vector<std::vector<Sym>> Tops;
    std::vector<uint8_t> Filled;
  };
  std::vector<TopsCacheEntry> TopsCache;

  std::vector<FlatMap<DfaId, uint32_t>> SatCache;
  std::vector<WSat> Sats;
  std::vector<RootProduct> RootProducts;
  std::vector<Transaction> Transactions;

  static constexpr uint64_t VisibleEntryBytes = 48;
  uint64_t SatBytes = 0;
};

} // namespace cuba

#endif // CUBA_DATAFLOW_DATAFLOWENGINE_H
