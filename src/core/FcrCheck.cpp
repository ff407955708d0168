//===-- core/FcrCheck.cpp - Finite context reachability (Sec. 5) ----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/FcrCheck.h"

#include "support/FlatHash.h"
#include "support/RingQueue.h"
#include "support/Unreachable.h"

using namespace cuba;

namespace {

/// One transition into a push helper.  Its source is a shared state, or
/// a helper when FromHelper is set; To is a helper index.
struct Edge {
  bool FromHelper;
  uint32_t From;
  Sym Label;
  uint32_t To;
};

/// The FCR saturation of one thread with the short-stack level left
/// implicit; see the header for the algorithm and why it is exact.
class HelperSaturator {
public:
  HelperSaturator(const Pds &P, LimitTracker *Limits)
      : P(P), Limits(Limits) {}

  FcrThreadResult run() {
    FcrThreadResult R;
    R.Complete = saturate();
    R.Finite = R.Complete && helperGraphAcyclic();
    R.Helpers = numHelpers();
    R.Edges = Rel.size();
    return R;
  }

private:
  /// Returns false when the budget runs out.
  bool saturate() {
    // The seed pass fires every rule once on the implicit level.
    if (Limits && !Limits->chargeStepsUnit(P.actions().size()))
      return false;
    seed();
    while (!Worklist.empty()) {
      if (Limits && !Limits->chargeStep())
        return false;
      process(unkey(Worklist.pop()));
    }
    return true;
  }

  uint32_t numHelpers() const {
    return static_cast<uint32_t>(HelperOut.size());
  }

  /// Packs an edge into a set key: a helper-source tag bit over three
  /// 21-bit fields.  Always-on guard, as in post*: past 2^21 states or
  /// labels the fields would alias and distinct edges would silently
  /// merge -- a wrong answer.
  static uint64_t key(const Edge &E) {
    if ((E.From | E.Label | E.To) >= (1u << 21))
      cuba_unreachable("FCR saturation exceeds the 21-bit edge packing");
    return (static_cast<uint64_t>(E.FromHelper) << 63) |
           (static_cast<uint64_t>(E.From) << 42) |
           (static_cast<uint64_t>(E.Label) << 21) | E.To;
  }

  static Edge unkey(uint64_t K) {
    return {(K >> 63) != 0, static_cast<uint32_t>((K >> 42) & 0x1fffff),
            static_cast<Sym>((K >> 21) & 0x1fffff),
            static_cast<uint32_t>(K & 0x1fffff)};
  }

  /// Creates the helper of every push, lifted empty-stack pushes
  /// included, and seeds its edge (q', y1, h).  Its other edge leads to
  /// the implicit level and is dropped.
  void seed() {
    const std::vector<Action> &Delta = P.actions();
    HelperOf.resize(Delta.size());
    FlatMap<uint64_t, uint32_t> Helpers;
    for (uint32_t AI = 0; AI < Delta.size(); ++AI) {
      Action A = P.liftedAction(AI);
      if (A.kind() != ActionKind::Push)
        continue;
      auto [Slot, New] = Helpers.tryEmplace(
          (static_cast<uint64_t>(A.DstQ) << 32) | A.Dst0, numHelpers());
      HelperOf[AI] = *Slot;
      if (New) {
        EpsIn.emplace_back();
        HelperOut.emplace_back();
        enqueue({false, A.DstQ, A.Dst0, HelperOf[AI]});
      }
    }
  }

  /// Records \p E if it is new: set membership, adjacency, and one
  /// worklist entry.
  void enqueue(const Edge &E) {
    uint64_t K = key(E);
    if (!Rel.insert(K))
      return;
    if (E.FromHelper)
      HelperOut[E.From].push_back({E.Label, E.To});
    else if (E.Label == EpsSym)
      EpsIn[E.To].push_back(E.From);
    Worklist.push(K);
  }

  /// The post* rules on an edge into a helper.  The two compositions add
  /// only shared-source symbol edges, which extend neither adjacency row,
  /// so the row each one walks stays fixed.
  void process(const Edge &E) {
    if (E.FromHelper) {
      // (h, y, h') composes with the epsilon edges entering h.
      for (uint32_t X : EpsIn[E.From])
        enqueue({false, X, E.Label, E.To});
      return;
    }
    if (E.Label == EpsSym) {
      // (p, eps, h) composes with h's helper out-edges.
      for (auto [Label, Dst] : HelperOut[E.To])
        enqueue({false, E.From, Label, Dst});
      return;
    }
    for (uint32_t AI : P.rulesOn(E.From, E.Label)) {
      Action A = P.liftedAction(AI);
      switch (A.kind()) {
      case ActionKind::Pop:
        enqueue({false, A.DstQ, EpsSym, E.To});
        break;
      case ActionKind::Overwrite:
        enqueue({false, A.DstQ, A.Dst0, E.To});
        break;
      case ActionKind::Push:
        // (q', y1, h(q', y1)) is a seed already.
        enqueue({true, HelperOf[AI], A.Dst1, E.To});
        break;
      case ActionKind::EmptyChange:
      case ActionKind::EmptyPush:
        cuba_unreachable("lifted actions never read the empty stack");
      }
    }
  }

  /// Kahn's algorithm on the helper graph.
  bool helperGraphAcyclic() const {
    std::vector<uint32_t> InDegree(numHelpers(), 0);
    for (const auto &Row : HelperOut)
      for (auto [Label, Dst] : Row)
        ++InDegree[Dst];
    std::vector<uint32_t> Ready;
    for (uint32_t H = 0; H < numHelpers(); ++H)
      if (InDegree[H] == 0)
        Ready.push_back(H);
    uint32_t Removed = 0;
    while (!Ready.empty()) {
      uint32_t H = Ready.back();
      Ready.pop_back();
      ++Removed;
      for (auto [Label, Dst] : HelperOut[H])
        if (--InDegree[Dst] == 0)
          Ready.push_back(Dst);
    }
    return Removed == numHelpers();
  }

  const Pds &P;
  LimitTracker *Limits;
  /// The helper of each push action, by action index.
  std::vector<uint32_t> HelperOf;
  RingQueue<uint64_t> Worklist;
  FlatSet<uint64_t> Rel;
  /// Per helper: the shared states with an epsilon edge into it, and its
  /// edges to other helpers.
  std::vector<std::vector<uint32_t>> EpsIn;
  std::vector<std::vector<std::pair<Sym, uint32_t>>> HelperOut;
};

} // namespace

FcrThreadResult cuba::threadShortStackReachabilityFinite(const Pds &P,
                                                         LimitTracker *Limits) {
  assert(P.frozen() && "the FCR test requires a frozen PDS");
  return HelperSaturator(P, Limits).run();
}

FcrResult cuba::checkFcr(const Cpds &C, LimitTracker *Limits) {
  assert(C.frozen() && "checkFcr requires a frozen CPDS");
  FcrResult Result;
  Result.Holds = true;
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    FcrThreadResult T = threadShortStackReachabilityFinite(C.thread(I), Limits);
    Result.ThreadFinite.push_back(T.Finite);
    Result.Holds = Result.Holds && T.Finite;
    Result.Complete = Result.Complete && T.Complete;
    Result.Helpers += T.Helpers;
  }
  return Result;
}
