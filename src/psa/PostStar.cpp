//===-- psa/PostStar.cpp - post* saturation for PDSs ----------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "psa/PostStar.h"

#include "obs/Metrics.h"
#include "support/FlatHash.h"
#include "support/RingQueue.h"
#include "support/Unreachable.h"

using namespace cuba;

namespace {

/// One automaton transition (From, Label, To) in the saturation.
struct Trans {
  uint32_t From;
  Sym Label;
  uint32_t To;
};

/// The saturation engine; see the header for the algorithm description.
///
/// The relation Rel deduplicates at *enqueue* time, so every transition
/// enters the worklist (and is processed) exactly once, and new edges
/// are appended to the result automaton as they are discovered -- there
/// is no separate materialisation pass.  Adjacency (EpsIn / OutRel) is
/// index-addressed by state id in flat vectors grown alongside
/// Result.addState(); the worklist is a vector-backed ring of packed
/// transitions.
class Saturator {
public:
  Saturator(const Pds &P, PAutomaton In, LimitTracker *Limits)
      : P(P), Limits(Limits), Result(std::move(In)),
        NumShared(Result.numShared()) {
    uint32_t N = Result.nfa().numStates();
    EpsIn.resize(N);
    OutRel.resize(N);
  }

  PostStarResult run() {
    // Resolved once: the registry lookup costs a string hash.  The count
    // is published once per saturation.
    static obs::Counter TransCounter("poststar.transitions");
    seedFromInput();
    Seeding = false;
    uint64_t Pops = 0;
    while (!Worklist.empty()) {
      if (Limits && !Limits->chargeStep()) {
        Complete = false;
        break;
      }
      Trans T = unkey(Worklist.pop());
      ++Pops;
      if (T.Label != EpsSym)
        processSymbolTransition(T);
      else
        processEpsilonTransition(T);
    }
    TransCounter += Pops;
    return {std::move(Result), Complete};
  }

private:
  /// Packs a transition into a set key.  Always-on guard: past 2^21
  /// states or labels the packed fields would alias and distinct
  /// transitions would silently merge -- a wrong answer.  Fail loudly
  /// instead (the Boolean-program translation rejects alphabets that
  /// large up front).
  static uint64_t key(const Trans &T) {
    if ((T.From | T.Label | T.To) >= (1u << 21))
      cuba_unreachable(
          "post* automaton exceeds the 21-bit transition packing");
    return (static_cast<uint64_t>(T.From) << 42) |
           (static_cast<uint64_t>(T.Label) << 21) | T.To;
  }

  static Trans unkey(uint64_t K) {
    return {static_cast<uint32_t>(K >> 42),
            static_cast<Sym>((K >> 21) & 0x1fffff),
            static_cast<uint32_t>(K & 0x1fffff)};
  }

  void seedFromInput() {
    const Nfa &A = Result.nfa();
    size_t InputEdges = 0;
    for (uint32_t S = 0; S < A.numStates(); ++S)
      InputEdges += A.edgesFrom(S).size();
    // Capacity hints: the saturated relation grows with the input edges
    // and the pushdown program; |Delta| bounds the per-target fan-out.
    Worklist.reserve(InputEdges + 2 * P.actions().size());
    Rel.reserve(InputEdges + 4 * P.actions().size());
    for (uint32_t S = 0; S < A.numStates(); ++S) {
      for (const Nfa::Edge &E : A.edgesFrom(S)) {
        assert(E.Label != EpsSym &&
               "post* input automaton must be epsilon-free");
        assert(E.To >= NumShared &&
               "post* input automaton may not enter shared states");
        enqueue({S, E.Label, E.To});
      }
    }
  }

  /// Records \p T if it is new: relation membership, adjacency, result
  /// edge (the input pass skips this -- the seeds are already in the
  /// automaton), and one worklist entry.
  void enqueue(const Trans &T) {
    uint64_t K = key(T);
    if (!Rel.insert(K))
      return;
    if (T.Label == EpsSym)
      EpsIn[T.To].push_back(T.From);
    OutRel[T.From].push_back({T.Label, T.To});
    if (!Seeding)
      Result.addEdge(T.From, T.Label, T.To);
    Worklist.push(K);
  }

  /// Adds an automaton state together with its adjacency rows.
  uint32_t newState() {
    uint32_t S = Result.addState();
    EpsIn.emplace_back();
    OutRel.emplace_back();
    return S;
  }

  /// Returns the helper state s(p', y1) shared by all pushes that write
  /// (p', y1 ...), creating it on first use.
  uint32_t helperState(QState DstQ, Sym Top) {
    uint64_t K = (static_cast<uint64_t>(DstQ) << 32) | Top;
    auto [Slot, New] = Helpers.tryEmplace(K, 0);
    if (New)
      *Slot = newState();
    return *Slot;
  }

  void processSymbolTransition(const Trans &T) {
    // Symmetric epsilon composition: (x, eps, From) + T => (x, Label, To).
    // Indexed loops throughout: enqueue() appends to the adjacency rows,
    // so range-for iterators could dangle on reallocation.
    for (size_t K = 0; K < EpsIn[T.From].size(); ++K)
      enqueue({EpsIn[T.From][K], T.Label, T.To});
    // PDS rules fire only from shared states; a bottom-marker transition
    // fires the empty-stack rules, lifted onto the marker.
    if (T.From >= NumShared)
      return;
    for (uint32_t AI : P.rulesOn(T.From, T.Label)) {
      Action A = P.liftedAction(AI);
      switch (A.kind()) {
      case ActionKind::Pop:
        enqueue({A.DstQ, EpsSym, T.To});
        break;
      case ActionKind::Overwrite:
        enqueue({A.DstQ, A.Dst0, T.To});
        break;
      case ActionKind::Push: {
        uint32_t S = helperState(A.DstQ, A.Dst0);
        enqueue({A.DstQ, A.Dst0, S});
        enqueue({S, A.Dst1, T.To});
        break;
      }
      case ActionKind::EmptyChange:
      case ActionKind::EmptyPush:
        cuba_unreachable("lifted actions never read the empty stack");
      }
    }
  }

  void processEpsilonTransition(const Trans &T) {
    // (From, eps, To) composes with everything leaving To...
    for (size_t K = 0; K < OutRel[T.To].size(); ++K) {
      auto [Label, Dst] = OutRel[T.To][K];
      enqueue({T.From, Label, Dst});
    }
    // ... and with epsilon edges entering From (epsilon chains).
    for (size_t K = 0; K < EpsIn[T.From].size(); ++K)
      enqueue({EpsIn[T.From][K], EpsSym, T.To});
  }

  const Pds &P;
  LimitTracker *Limits;
  PAutomaton Result;
  uint32_t NumShared;
  bool Complete = true;
  bool Seeding = true;

  /// Packed (From, Label, To) worklist; every entry is already in Rel.
  RingQueue<uint64_t> Worklist;
  FlatSet<uint64_t> Rel;
  /// Per-state adjacency, indexed by automaton state id.
  std::vector<std::vector<uint32_t>> EpsIn;
  std::vector<std::vector<std::pair<Sym, uint32_t>>> OutRel;
  FlatMap<uint64_t, uint32_t> Helpers;
};

} // namespace

PostStarResult cuba::postStar(const Pds &P, PAutomaton In,
                              LimitTracker *Limits) {
  assert(P.frozen() && "post* requires a frozen PDS");
  Saturator S(P, std::move(In), Limits);
  return S.run();
}

PAutomaton cuba::singleStateAutomaton(uint32_t NumShared, uint32_t NumSymbols,
                                      QState Q,
                                      const std::vector<Sym> &TopFirst) {
  PAutomaton A(NumShared, NumSymbols);
  A.nfa().reserveStates(NumShared + static_cast<uint32_t>(TopFirst.size()));
  uint32_t Cur = Q;
  for (Sym S : TopFirst) {
    uint32_t Next = A.addState();
    A.addEdge(Cur, S, Next);
    Cur = Next;
  }
  // For the empty stack this marks Q itself accepting.  Saturation never
  // adds edges into shared states, so an accepting shared state accepts
  // exactly the empty-stack configuration <Q | eps> and nothing longer.
  A.setAccepting(Cur);
  return A;
}

PAutomaton cuba::shortStackAutomaton(uint32_t NumShared, Sym Bottom) {
  PAutomaton A(NumShared, Bottom);
  uint32_t Mid = A.addState();
  uint32_t Fin = A.addState();
  A.setAccepting(Fin);
  for (QState Q = 0; Q < NumShared; ++Q) {
    // Accept <q | bot> ...
    A.addEdge(Q, Bottom, Fin);
    // ... and <q | s bot> for every symbol s.
    for (Sym S = 1; S < Bottom; ++S)
      A.addEdge(Q, S, Mid);
  }
  A.addEdge(Mid, Bottom, Fin);
  return A;
}
