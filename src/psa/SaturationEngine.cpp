//===-- psa/SaturationEngine.cpp - Shared multi-root post* ----------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "psa/SaturationEngine.h"

#include "fa/Canonicalize.h"
#include "obs/Metrics.h"
#include "support/Hashing.h"
#include "support/RingQueue.h"
#include "support/Unreachable.h"

using namespace cuba;

bool cuba::psa_testing::InjectDropMaskGrowth = false;

Nfa SharedSaturation::rootView(QState Root) const {
  Nfa A(NumSymbols);
  A.reserveStates(NumStates);
  for (uint32_t S = 0; S < NumStates; ++S)
    A.addState();
  for (uint32_t S = NumShared; S < NumStates; ++S)
    if (AcceptBase[S])
      A.setAccepting(S);
  if (StartAccepting)
    A.setAccepting(Root);
  for (size_t T = 0; T < TFrom.size(); ++T)
    if (activeFor(T, Root))
      A.addEdge(TFrom[T], TLabel[T], TTo[T]);
  return A;
}

std::vector<std::pair<QState, CanonicalDfa>>
SharedSaturation::extractRoot(QState Root) const {
  static obs::Counter ExtractCounter("saturation.extractions");
  ++ExtractCounter;
  Nfa View = rootView(Root);
  std::vector<std::pair<QState, CanonicalDfa>> Out;
  std::vector<uint32_t> Target(1);
  for (QState Q2 = 0; Q2 < NumShared; ++Q2) {
    Target[0] = Q2;
    CanonicalDfa D = canonicalizeNfa(View, Target);
    if (D.Start == CanonicalDfa::NoState)
      continue; // Empty language at this target: no successor.
    Out.emplace_back(Q2, std::move(D));
  }
  return Out;
}

void SharedSaturation::buildRootRows() {
  RowStart.assign(NumShared + 1, 0);
  size_t SharedSourced = 0;
  for (size_t T = 0; T < TFrom.size(); ++T) {
    if (TTo[T] < NumShared)
      RootedReadsSound = false;
    if (TFrom[T] < NumShared) {
      ++RowStart[TFrom[T] + 1];
      ++SharedSourced;
    }
  }
  for (uint32_t Q = 0; Q < NumShared; ++Q)
    RowStart[Q + 1] += RowStart[Q];
  RowTrans.resize(SharedSourced);
  std::vector<uint32_t> Fill(RowStart.begin(), RowStart.end() - 1);
  for (size_t T = 0; T < TFrom.size(); ++T)
    if (TFrom[T] < NumShared)
      RowTrans[Fill[TFrom[T]]++] = static_cast<uint32_t>(T);
}

Nfa SharedSaturation::classView(const std::vector<uint64_t> &Bits) const {
  Nfa View(NumSymbols);
  View.reserveStates(NumStates);
  for (uint32_t S = 0; S < NumStates; ++S)
    View.addState();
  for (uint32_t S = NumShared; S < NumStates; ++S)
    if (AcceptBase[S])
      View.setAccepting(S);
  for (size_t T = 0; T < TFrom.size(); ++T)
    if ((Bits[T / 64] >> (T % 64)) & 1)
      View.addEdge(TFrom[T], TLabel[T], TTo[T]);
  return View;
}

uint64_t SharedSaturation::extractRootCached(
    QState Root, ExtractionCache &Cache,
    std::vector<std::pair<QState, CanonicalDfa>> &Langs,
    std::vector<uint64_t> &Hashes) const {
  static obs::Counter ExtractCounter("saturation.extractions");
  ++ExtractCounter;
  if (!RootedReadsSound) {
    // Invariant violated (never by this module's construction): fall
    // back to the plain pipeline and leave the cache untouched.
    for (auto &[Q2, D] : extractRoot(Root)) {
      Hashes.push_back(D.hash());
      Langs.emplace_back(Q2, std::move(D));
    }
    return 0;
  }

  // The root's class: the exact active bit set over non-shared-sourced
  // transitions, interned on first sight.  A digest already held by a
  // different bit set leaves this class uncached: every target is then
  // canonicalized fresh and nothing is added.
  size_t NumT = TFrom.size();
  std::vector<uint64_t> Bits((NumT + 63) / 64, 0);
  for (size_t T = 0; T < NumT; ++T)
    if (TFrom[T] >= NumShared && activeFor(T, Root))
      Bits[T / 64] |= uint64_t{1} << (T % 64);
  uint64_t ClassDigest =
      hashCombine(0xC1A5, hashRange(Bits.begin(), Bits.end()));
  auto [ClassSlot, NewClass] = Cache.ClassIdx.tryEmplace(
      ClassDigest, static_cast<uint32_t>(Cache.Classes.size()));
  uint32_t Class = *ClassSlot;
  Nfa Uncached(0);
  if (NewClass) {
    Nfa View = classView(Bits);
    Cache.Classes.push_back({std::move(Bits), std::move(View)});
  } else if (Cache.Classes[Class].Bits != Bits) {
    Class = UINT32_MAX;
    Uncached = classView(Bits);
  }
  const Nfa &Base =
      Class == UINT32_MAX ? Uncached : Cache.Classes[Class].View;

  // Per-target pass: probe the cache, canonicalize only the misses
  // against a full root view built at most once, and add each miss.
  Nfa Full(0);
  bool FullBuilt = false;
  uint64_t Reused = 0;
  std::vector<uint32_t> Row, TargetSet(1);
  for (QState Q2 = 0; Q2 < NumShared; ++Q2) {
    uint8_t SelfAccept = StartAccepting && Q2 == Root;
    Row.clear();
    for (uint32_t K = RowStart[Q2]; K < RowStart[Q2 + 1]; ++K)
      if (activeFor(RowTrans[K], Root))
        Row.push_back(RowTrans[K]);
    uint64_t Digest = hashCombine(hashCombine(ClassDigest, SelfAccept),
                                  hashRange(Row.begin(), Row.end()));
    const uint32_t *Probe =
        Class == UINT32_MAX ? nullptr : Cache.EntryIdx.find(Digest);
    if (Probe) {
      const ExtractionCache::Entry &En = Cache.Entries[*Probe];
      if (En.Class == Class && En.SelfAccept == SelfAccept && En.Row == Row) {
        ++Reused;
        if (!En.Empty) {
          Langs.emplace_back(Q2, En.D);
          Hashes.push_back(En.Hash);
        }
        continue;
      }
    }
    if (!FullBuilt) {
      // The full root view: the class adjacency plus every shared
      // state's active row, per-state edge order identical to
      // rootView's ascending-index order (shared and non-shared
      // sources never mix within one adjacency list).
      Full = Base;
      for (uint32_t Q = 0; Q < NumShared; ++Q)
        for (uint32_t K = RowStart[Q]; K < RowStart[Q + 1]; ++K) {
          uint32_t T = RowTrans[K];
          if (activeFor(T, Root))
            Full.addEdge(TFrom[T], TLabel[T], TTo[T]);
        }
      if (StartAccepting)
        Full.setAccepting(Root);
      FullBuilt = true;
    }
    TargetSet[0] = Q2;
    CanonicalDfa D = canonicalizeNfa(Full, TargetSet);
    uint8_t Empty = D.Start == CanonicalDfa::NoState;
    uint64_t Hash = Empty ? 0 : D.hash();
    // A digest held by a different key keeps its first entry.
    if (Class != UINT32_MAX && !Probe) {
      Cache.EntryIdx.tryEmplace(Digest,
                                static_cast<uint32_t>(Cache.Entries.size()));
      Cache.Entries.push_back(
          {Row, Empty ? CanonicalDfa() : D, Hash, Class, SelfAccept, Empty});
    }
    if (!Empty) {
      Langs.emplace_back(Q2, std::move(D));
      Hashes.push_back(Hash);
    }
  }
  return Reused;
}

namespace {

/// The root-mask worklist.  addTransition ORs a delta mask into a
/// transition's pending half and enqueues it when bits genuinely grew;
/// a pop moves the pending half into the active mask and propagates the
/// delta through epsilon composition (intersecting the two premises'
/// masks) and PDS rule firing (inheriting the delta):
///
///   pop (p,y) -> (p', eps):    (p', eps, q)
///   ovw (p,y) -> (p', y'):     (p', y', q)
///   push (p,y) -> (p', y1 y2): (p', y1, s) and (s, y2, q)
///
/// (the Schwoon construction with one helper s per (p', y1)).  A pop of
/// a transition labelled with the bottom marker fires the empty-stack
/// rules of its source in place, read through Pds::liftedAction.
class MaskSaturator {
public:
  MaskSaturator(const Pds &P, uint32_t NumShared, const CanonicalDfa &Lang,
                LimitTracker *Limits)
      : P(P), Limits(Limits), NumShared(NumShared),
        W((NumShared + 63) / 64) {
    assert(P.frozen() && "shared post* requires a frozen PDS");
    assert(Lang.Start != CanonicalDfa::NoState &&
           "shared post* input language must be non-empty");
    assert(Lang.NumSymbols >= P.numSymbols() &&
           Lang.NumSymbols <= P.bottom() &&
           "input language must range over the PDS alphabet, plus at most "
           "the bottom marker");
    NumSymbols = Lang.NumSymbols;
    std::vector<uint64_t> Full(W, ~uint64_t(0));
    if (NumShared % 64)
      Full[W - 1] = (uint64_t(1) << (NumShared % 64)) - 1;

    // States: shared, then the DFA copy, then helpers on demand.
    NumStates = NumShared + Lang.numStates();
    AcceptBase.assign(NumStates, 0);
    for (uint32_t U = 0; U < Lang.numStates(); ++U)
      if (Lang.Accepting[U])
        AcceptBase[NumShared + U] = 1;
    StartAccepting = Lang.Accepting[Lang.Start] != 0;
    Out.resize(NumStates);
    EpsIn.resize(NumStates);

    // Capacity hints, mirroring postStar's: the saturated relation
    // grows with the input edges and the pushdown program.
    size_t InputEdges = Lang.Table.size() + NumShared * Lang.NumSymbols;
    Worklist.reserve(InputEdges + 2 * P.actions().size());
    TransIndex.reserve(InputEdges + 4 * P.actions().size());

    // Seed the DFA copy (every root) and the per-root mirror rows of the
    // start state (the single root q).
    for (uint32_t U = 0; U < Lang.numStates(); ++U) {
      for (Sym X = 1; X <= Lang.NumSymbols; ++X) {
        uint32_t V =
            Lang.Table[static_cast<size_t>(U) * Lang.NumSymbols + (X - 1)];
        if (V != CanonicalDfa::NoState)
          addTransition(NumShared + U, X, NumShared + V, Full.data());
      }
    }
    std::vector<uint64_t> Single(W, 0);
    for (QState Q = 0; Q < NumShared; ++Q) {
      Single[Q / 64] = uint64_t(1) << (Q % 64);
      for (Sym X = 1; X <= Lang.NumSymbols; ++X) {
        uint32_t V = Lang.Table[static_cast<size_t>(Lang.Start) *
                                    Lang.NumSymbols +
                                (X - 1)];
        if (V != CanonicalDfa::NoState)
          addTransition(Q, X, NumShared + V, Single.data());
      }
      Single[Q / 64] = 0;
    }
    TmpMask.resize(W);
  }

  /// Logical footprint of the in-flight saturation: the relation under
  /// construction plus the worklist bookkeeping that grows with it.  A
  /// pure function of the pops processed so far, so a budget that trips
  /// on it trips at the same pop on every run.
  uint64_t localBytes() const {
    return static_cast<uint64_t>(TFrom.size()) *
               (2 * sizeof(uint32_t) + sizeof(Sym)) +
           (Masks.size() + Pending.size()) * sizeof(uint64_t) +
           AcceptBase.size() + InQueue.size() + TransIndex.memoryBytes();
  }

  /// Runs the worklist to its fixpoint or the budget; returns whether
  /// the fixpoint was reached.
  bool run();

  /// The relation under construction, which sharedPostStar moves into
  /// the retained SharedSaturation: flat transition arrays with one
  /// active mask row per transition, and the acceptance of its states.
  uint32_t NumStates = 0;
  uint32_t NumSymbols = 0;
  std::vector<uint32_t> TFrom, TTo;
  std::vector<Sym> TLabel;
  std::vector<uint64_t> Masks;
  std::vector<uint8_t> AcceptBase;
  bool StartAccepting = false;

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

  /// ORs \p Delta into transition (From, Label, To), creating it on
  /// first sight; enqueues the transition when new bits arrived.
  void addTransition(uint32_t From, Sym Label, uint32_t To,
                     const uint64_t *Delta) {
    auto [Slot, New] = TransIndex.tryEmplace(
        key(From, Label, To), static_cast<uint32_t>(TFrom.size()));
    uint32_t T = *Slot;
    if (New) {
      TFrom.push_back(From);
      TLabel.push_back(Label);
      TTo.push_back(To);
      Masks.resize(Masks.size() + W, 0);
      Pending.resize(Pending.size() + W, 0);
      InQueue.push_back(0);
      Out[From].push_back(T);
      if (Label == EpsSym)
        EpsIn[To].push_back(T);
    } else if (psa_testing::InjectDropMaskGrowth) {
      return; // Simulated bug: existing transitions never gain bits.
    }
    bool Fresh = false;
    for (uint32_t I = 0; I < W; ++I) {
      uint64_t NewBits =
          Delta[I] & ~(Masks[size_t(T) * W + I] | Pending[size_t(T) * W + I]);
      if (NewBits) {
        Pending[size_t(T) * W + I] |= NewBits;
        Fresh = true;
      }
    }
    if (Fresh && !InQueue[T]) {
      InQueue[T] = 1;
      Worklist.push(T);
    }
  }

  /// TmpMask = \p Delta & mask(\p T2); false when empty.
  bool intersect(const uint64_t *Delta, uint32_t T2) {
    uint64_t Any = 0;
    for (uint32_t I = 0; I < W; ++I) {
      TmpMask[I] = Delta[I] & Masks[size_t(T2) * W + I];
      Any |= TmpMask[I];
    }
    return Any != 0;
  }

  /// Returns the helper state s(p', y1) shared by all pushes that write
  /// (p', y1 ...), creating it on first use.
  uint32_t helperState(QState DstQ, Sym Top) {
    uint64_t K = (static_cast<uint64_t>(DstQ) << 32) | Top;
    auto [Slot, New] = Helpers.tryEmplace(K, 0);
    if (New) {
      *Slot = NumStates++;
      AcceptBase.push_back(0);
      Out.emplace_back();
      EpsIn.emplace_back();
    }
    return *Slot;
  }

  void processSymbol(uint32_t T) {
    uint32_t From = TFrom[T], To = TTo[T];
    Sym Label = TLabel[T];
    // Epsilon composition: (x, eps, From) + T => (x, Label, To).
    // Indexed loops throughout: addTransition appends to the adjacency
    // rows.
    for (size_t K = 0; K < EpsIn[From].size(); ++K) {
      uint32_t E = EpsIn[From][K];
      if (intersect(CurDelta.data(), E))
        addTransition(TFrom[E], Label, To, TmpMask.data());
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
        addTransition(A.DstQ, EpsSym, To, CurDelta.data());
        break;
      case ActionKind::Overwrite:
        addTransition(A.DstQ, A.Dst0, To, CurDelta.data());
        break;
      case ActionKind::Push: {
        uint32_t S = helperState(A.DstQ, A.Dst0);
        addTransition(A.DstQ, A.Dst0, S, CurDelta.data());
        addTransition(S, A.Dst1, To, CurDelta.data());
        break;
      }
      case ActionKind::EmptyChange:
      case ActionKind::EmptyPush:
        cuba_unreachable("lifted actions never read the empty stack");
      }
    }
  }

  void processEpsilon(uint32_t T) {
    uint32_t From = TFrom[T], To = TTo[T];
    // (From, eps, To) composes with everything leaving To.  No
    // epsilon-chain pass is needed: every epsilon edge originates at a
    // shared state (pop rules) and ends at a non-shared one (targets
    // inherit from transitions that never enter shared states), so
    // EpsIn[From] is empty for every epsilon transition -- chains of
    // two epsilon edges cannot exist.
    for (size_t K = 0; K < Out[To].size(); ++K) {
      uint32_t T2 = Out[To][K];
      if (intersect(CurDelta.data(), T2))
        addTransition(From, TLabel[T2], TTo[T2], TmpMask.data());
    }
  }

  const Pds &P;
  LimitTracker *Limits;
  uint32_t NumShared;
  uint32_t W;

  /// The pending mask rows and queue membership per transition.
  std::vector<uint64_t> Pending, TmpMask, CurDelta;
  std::vector<uint8_t> InQueue;
  RingQueue<uint32_t> Worklist;
  FlatMap<uint64_t, uint32_t> TransIndex;

  /// Per-state adjacency of transition indices.
  std::vector<std::vector<uint32_t>> Out;
  std::vector<std::vector<uint32_t>> EpsIn;
  FlatMap<uint64_t, uint32_t> Helpers;
};

bool MaskSaturator::run() {
  // Published once per saturation, not once per pop.
  static obs::Counter PopCounter("saturation.pops");
  uint64_t Pops = 0;
  bool Complete = true;
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
    // Move the pending delta into the active mask, then propagate it.
    CurDelta.assign(Pending.begin() + size_t(T) * W,
                    Pending.begin() + size_t(T) * W + W);
    for (uint32_t I = 0; I < W; ++I) {
      Pending[size_t(T) * W + I] = 0;
      Masks[size_t(T) * W + I] |= CurDelta[I];
    }
    if (TLabel[T] != EpsSym)
      processSymbol(T);
    else
      processEpsilon(T);
  }
  PopCounter += Pops;
  return Complete;
}

} // namespace

SharedSaturationResult cuba::sharedPostStar(const Pds &P, uint32_t NumShared,
                                            const CanonicalDfa &Lang,
                                            LimitTracker *Limits) {
  static obs::Counter SatCounter("saturation.shared");
  ++SatCounter;
  MaskSaturator S(P, NumShared, Lang, Limits);
  SharedSaturationResult Out;
  Out.Complete = S.run();
  SharedSaturation &Sat = Out.Sat;
  Sat.NumShared = NumShared;
  Sat.NumStates = S.NumStates;
  Sat.NumSymbols = S.NumSymbols;
  Sat.MaskWords = (NumShared + 63) / 64;
  Sat.TFrom = std::move(S.TFrom);
  Sat.TTo = std::move(S.TTo);
  Sat.TLabel = std::move(S.TLabel);
  Sat.Masks = std::move(S.Masks);
  Sat.AcceptBase = std::move(S.AcceptBase);
  Sat.StartAccepting = S.StartAccepting;
  Sat.buildRootRows();
  return Out;
}
