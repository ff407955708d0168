//===-- psa/WeightedPostStar.h - Semiring-generic post* ---------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared multi-rooted post* saturation, templated over a weight
/// domain (psa/Semiring.h).  The algorithm is the worklist of the
/// pre-refactor mask engine, unchanged: addTransition combines a delta
/// row into a transition's pending half and enqueues it when the domain
/// reports growth; a pop moves the pending half into the active half
/// and propagates the delta through epsilon composition and PDS rule
/// firing.  Only the row arithmetic went behind the domain interface,
/// so the boolean-set instantiation (sharedPostStar, which every
/// existing caller still uses) is bit-identical to the old engine --
/// same transition creation order, same rows, same budget charges --
/// while the GEN/KILL taint domain reuses every line of control flow.
///
/// Weighted rule application sits at the three rule-firing sites:
///   pop (p,y) -> (p', eps):    (p', eps, q)  gets extend(delta, w(r))
///   ovw (p,y) -> (p', y'):     (p', y', q)   gets extend(delta, w(r))
///   push (p,y) -> (p', y1 y2): (p', y1, s)   gets support(delta) x one
///                              (s,  y2, q)   gets extend(delta, w(r))
/// (the Schwoon construction: the helper's entry edge is weightless,
/// the exit edge carries the whole derivation weight), and at the two
/// epsilon-composition directions documented in Semiring.h.
///
/// Input languages range over the bottom-lifted alphabet 1..P.bottom()
/// and spell a stack w as w bot (an input over 1..P.numSymbols() never
/// reaches the empty stack).  Popping a transition labelled bot
/// fires the empty-stack rules of its source in place, read through
/// Pds::liftedAction ((q,eps) -> (q',eps) as an overwrite of bot,
/// (q,eps) -> (q',s) as the push of s onto bot), with the rule weight of
/// the original action index.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PSA_WEIGHTEDPOSTSTAR_H
#define CUBA_PSA_WEIGHTEDPOSTSTAR_H

#include <vector>

#include "fa/Canonicalize.h"
#include "obs/Metrics.h"
#include "pds/Pds.h"
#include "support/FlatHash.h"
#include "support/Limits.h"
#include "support/RingQueue.h"
#include "support/Unreachable.h"

namespace cuba {

namespace psa_testing {
/// Testing hook shared by every domain instantiation: when true, a
/// transition that already exists never accumulates new weight -- the
/// boolean-set reading is a lost mask-propagation bug, the weighted
/// reading is a lost `combine` (an existing transition never learns a
/// new transformer).  The property suites must catch either.  Never set
/// outside tests.
extern bool InjectDropMaskGrowth;
} // namespace psa_testing

/// A completed weighted saturation: the flat transition arrays plus the
/// domain holding every transition's active row.  States [0, NumShared)
/// are the PDS shared states, then the input DFA's copy, then the push
/// helper states.
template <typename Domain> struct WeightedRelation {
  uint32_t NumShared = 0;
  uint32_t NumStates = 0;
  uint32_t NumSymbols = 0;

  std::vector<uint32_t> TFrom, TTo;
  std::vector<Sym> TLabel;

  /// Acceptance of the non-root states and whether the input language
  /// accepts the empty word (the root itself then accepts in its view).
  std::vector<uint8_t> AcceptBase;
  bool StartAccepting = false;

  /// The weight storage; rows are indexed by transition.
  Domain Dom;

  size_t numTransitions() const { return TFrom.size(); }
  uint32_t numStates() const { return NumStates; }

  uint64_t memoryBytes() const {
    return static_cast<uint64_t>(TFrom.size()) *
               (2 * sizeof(uint32_t) + sizeof(Sym)) +
           Dom.activeBytes() + AcceptBase.size();
  }
};

template <typename Domain> struct WeightedResult {
  WeightedRelation<Domain> Rel;
  bool Complete = true;
};

/// The generic saturator.  \p Dom arrives pre-configured (a taint
/// domain carries its transformer table and per-action rule weights);
/// init(NumShared) is called here.
template <typename Domain> class WeightedSaturatorT {
  using Row = typename Domain::Row;

public:
  WeightedSaturatorT(const Pds &P, uint32_t NumShared,
                     const CanonicalDfa &Lang, LimitTracker *Limits,
                     Domain Dom)
      : P(P), Limits(Limits), NumShared(NumShared) {
    assert(P.frozen() && "shared post* requires a frozen PDS");
    assert(Lang.Start != CanonicalDfa::NoState &&
           "shared post* input language must be non-empty");
    assert(Lang.NumSymbols >= P.numSymbols() &&
           Lang.NumSymbols <= P.bottom() &&
           "input language must range over the PDS alphabet, plus at most "
           "the bottom marker");
    Rel.NumShared = NumShared;
    Rel.NumSymbols = Lang.NumSymbols;
    Rel.Dom = std::move(Dom);
    Rel.Dom.init(NumShared);

    // States: shared, then the DFA copy, then helpers on demand.
    Rel.NumStates = NumShared + Lang.numStates();
    Rel.AcceptBase.assign(Rel.NumStates, 0);
    for (uint32_t U = 0; U < Lang.numStates(); ++U)
      if (Lang.Accepting[U])
        Rel.AcceptBase[NumShared + U] = 1;
    Rel.StartAccepting = Lang.Accepting[Lang.Start] != 0;
    Out.resize(Rel.NumStates);
    EpsIn.resize(Rel.NumStates);

    // Capacity hints, mirroring postStar's: the saturated relation
    // grows with the input edges and the pushdown program.
    size_t InputEdges = Lang.Table.size() + NumShared * Lang.NumSymbols;
    Worklist.reserve(InputEdges + 2 * P.actions().size());
    TransIndex.reserve(InputEdges + 4 * P.actions().size());

    // Seed the DFA copy (every root: weight one) and the per-root
    // mirror rows (weight one at the single root).
    for (uint32_t U = 0; U < Lang.numStates(); ++U) {
      for (Sym X = 1; X <= Lang.NumSymbols; ++X) {
        uint32_t V =
            Lang.Table[static_cast<size_t>(U) * Lang.NumSymbols + (X - 1)];
        if (V != CanonicalDfa::NoState)
          addTransition(NumShared + U, X, NumShared + V, Rel.Dom.fullRow());
      }
    }
    for (QState Q = 0; Q < NumShared; ++Q) {
      for (Sym X = 1; X <= Lang.NumSymbols; ++X) {
        uint32_t V = Lang.Table[static_cast<size_t>(Lang.Start) *
                                    Lang.NumSymbols +
                                (X - 1)];
        if (V != CanonicalDfa::NoState)
          addTransition(Q, X, NumShared + V, Rel.Dom.singletonRow(Q));
      }
    }
  }

  /// Logical footprint of the in-flight saturation: the relation under
  /// construction plus the worklist bookkeeping that grows with it.  A
  /// pure function of the pops processed so far, so a budget that trips
  /// on it trips at the same pop on every run.
  uint64_t localBytes() const {
    return Rel.memoryBytes() + Rel.Dom.pendingBytes() + InQueue.size() +
           TransIndex.memoryBytes();
  }

  WeightedResult<Domain> run() {
    // Published once per saturation, not once per pop.
    static obs::Counter PopCounter("saturation.pops");
    uint64_t Pops = 0;
    while (!Worklist.empty()) {
      if (Limits && !Limits->chargeStep()) {
        Complete = false;
        break;
      }
      if (Limits && !Limits->checkMemory(localBytes())) {
        Complete = false;
        break;
      }
      ++Pops;
      uint32_t T = Worklist.pop();
      InQueue[T] = 0;
      // Move the pending delta into the active row, then propagate it.
      Rel.Dom.take(T, CurDelta);
      if (Rel.TLabel[T] != EpsSym)
        processSymbol(T);
      else
        processEpsilon(T);
    }
    PopCounter += Pops;
    return {std::move(Rel), Complete};
  }

private:
  static uint64_t key(uint32_t From, Sym Label, uint32_t To) {
    // Always-on guard: past 2^21 states the packed fields would alias
    // and distinct transitions would silently merge -- a wrong verdict.
    // Fail loudly instead; systems that large need a wider key.
    if ((From | Label | To) >= (1u << 21))
      cuba_unreachable(
          "saturation automaton exceeds the 21-bit transition packing");
    return (static_cast<uint64_t>(From) << 42) |
           (static_cast<uint64_t>(Label) << 21) | To;
  }

  /// Combines \p Delta into transition (From, Label, To), creating it
  /// on first sight; enqueues the transition when the domain reports
  /// genuinely new weight.
  void addTransition(uint32_t From, Sym Label, uint32_t To,
                     const Row &Delta) {
    auto [Slot, New] = TransIndex.tryEmplace(
        key(From, Label, To), static_cast<uint32_t>(Rel.TFrom.size()));
    uint32_t T = *Slot;
    if (New) {
      Rel.TFrom.push_back(From);
      Rel.TLabel.push_back(Label);
      Rel.TTo.push_back(To);
      Rel.Dom.addTransitionRow();
      InQueue.push_back(0);
      Out[From].push_back(T);
      if (Label == EpsSym)
        EpsIn[To].push_back(T);
    } else if (psa_testing::InjectDropMaskGrowth) {
      return; // Simulated bug: existing transitions never gain weight.
    }
    if (Rel.Dom.accumulate(T, Delta) && !InQueue[T]) {
      InQueue[T] = 1;
      Worklist.push(T);
    }
  }

  /// Returns the helper state s(p', y1) shared by all pushes that write
  /// (p', y1 ...), creating it on first use.
  uint32_t helperState(QState DstQ, Sym Top) {
    uint64_t K = (static_cast<uint64_t>(DstQ) << 32) | Top;
    auto [Slot, New] = Helpers.tryEmplace(K, 0);
    if (New) {
      *Slot = Rel.NumStates++;
      Rel.AcceptBase.push_back(0);
      Out.emplace_back();
      EpsIn.emplace_back();
    }
    return *Slot;
  }

  void processSymbol(uint32_t T) {
    uint32_t From = Rel.TFrom[T], To = Rel.TTo[T];
    Sym Label = Rel.TLabel[T];
    // Epsilon composition: (x, eps, From) + T => (x, Label, To), the
    // epsilon premise's weight extending the delta.  Indexed loops
    // throughout: addTransition appends to the adjacency rows.
    for (size_t K = 0; K < EpsIn[From].size(); ++K) {
      uint32_t E = EpsIn[From][K];
      if (Rel.Dom.extendSymbolWithEps(CurDelta, E, TmpRow))
        addTransition(Rel.TFrom[E], Label, To, TmpRow);
    }
    // PDS rules fire only from shared states, for exactly the roots the
    // triggering transition is active for; a bottom-marker transition
    // fires the empty-stack rules, lifted onto the marker.
    if (From >= NumShared)
      return;
    for (uint32_t AI : P.rulesOn(From, Label)) {
      Action A = P.liftedAction(AI);
      switch (A.kind()) {
      case ActionKind::Pop:
        addTransition(A.DstQ, EpsSym, To,
                      Rel.Dom.applyRule(CurDelta, AI, RuleRow));
        break;
      case ActionKind::Overwrite:
        addTransition(A.DstQ, A.Dst0, To,
                      Rel.Dom.applyRule(CurDelta, AI, RuleRow));
        break;
      case ActionKind::Push: {
        uint32_t S = helperState(A.DstQ, A.Dst0);
        addTransition(A.DstQ, A.Dst0, S,
                      Rel.Dom.pushEntryRow(CurDelta, EntryRow));
        addTransition(S, A.Dst1, To,
                      Rel.Dom.applyRule(CurDelta, AI, RuleRow));
        break;
      }
      case ActionKind::EmptyChange:
      case ActionKind::EmptyPush:
        cuba_unreachable("lifted actions never read the empty stack");
      }
    }
  }

  void processEpsilon(uint32_t T) {
    uint32_t From = Rel.TFrom[T], To = Rel.TTo[T];
    // (From, eps, To) composes with everything leaving To.  No
    // epsilon-chain pass is needed: every epsilon edge originates at a
    // shared state (pop rules) and ends at a non-shared one (targets
    // inherit from transitions that never enter shared states), so
    // EpsIn[From] is empty for every epsilon transition -- chains of
    // two epsilon edges cannot exist.
    for (size_t K = 0; K < Out[To].size(); ++K) {
      uint32_t T2 = Out[To][K];
      if (Rel.Dom.extendEpsWithSymbol(CurDelta, T2, TmpRow))
        addTransition(From, Rel.TLabel[T2], Rel.TTo[T2], TmpRow);
    }
  }

  const Pds &P;
  LimitTracker *Limits;
  uint32_t NumShared;
  bool Complete = true;

  WeightedRelation<Domain> Rel;
  Row TmpRow, CurDelta, RuleRow, EntryRow;

  /// Queue membership per transition (the pending rows live in the
  /// domain).
  std::vector<uint8_t> InQueue;
  RingQueue<uint32_t> Worklist;
  FlatMap<uint64_t, uint32_t> TransIndex;

  /// Per-state adjacency of transition indices.
  std::vector<std::vector<uint32_t>> Out;
  std::vector<std::vector<uint32_t>> EpsIn;
  FlatMap<uint64_t, uint32_t> Helpers;
};

} // namespace cuba

#endif // CUBA_PSA_WEIGHTEDPOSTSTAR_H
