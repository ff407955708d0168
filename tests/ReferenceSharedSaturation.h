//===-- tests/ReferenceSharedSaturation.h - Pre-refactor shim ---*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent copy of the mask saturator (psa/SaturationEngine),
/// kept as it stood before the library's saturator was rewritten twice
/// (templated over a weight domain, then plain again).  The
/// shared-saturation suite replays every instance through this shim and
/// asserts the production saturator is *bit-identical*: same transitions
/// in the same creation order, same mask rows, same Complete flag, and
/// the same number of budget steps charged.  Only the property suite may
/// include this header.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTS_REFERENCESHAREDSATURATION_H
#define CUBA_TESTS_REFERENCESHAREDSATURATION_H

#include <cstdint>
#include <vector>

#include "fa/Canonicalize.h"
#include "pds/Pds.h"
#include "support/FlatHash.h"
#include "support/Limits.h"
#include "support/RingQueue.h"
#include "support/Unreachable.h"

namespace cuba::reference {

/// The retained relation of the pre-refactor engine, fields public so
/// the suite can compare them word for word.
struct RefSaturation {
  uint32_t NumShared = 0;
  uint32_t NumStates = 0;
  uint32_t NumSymbols = 0;
  uint32_t MaskWords = 1;
  std::vector<uint32_t> TFrom, TTo;
  std::vector<Sym> TLabel;
  std::vector<uint64_t> Masks;
  std::vector<uint8_t> AcceptBase;
  bool StartAccepting = false;
  bool Complete = true;

  uint64_t memoryBytes() const {
    return static_cast<uint64_t>(TFrom.size()) *
               (2 * sizeof(uint32_t) + sizeof(Sym)) +
           static_cast<uint64_t>(Masks.size()) * sizeof(uint64_t) +
           AcceptBase.size();
  }
};

/// The pre-refactor saturator, copied verbatim (modulo the renamed
/// result struct and the dropped counters, which do not feed
/// back into behaviour).
class RefSharedSaturator {
public:
  RefSharedSaturator(const Pds &P, uint32_t NumShared,
                     const CanonicalDfa &Lang, LimitTracker *Limits)
      : P(P), Limits(Limits), NumShared(NumShared) {
    assert(P.frozen() && "shared post* requires a frozen PDS");
    assert(Lang.Start != CanonicalDfa::NoState &&
           "shared post* input language must be non-empty");
    assert(Lang.NumSymbols == P.numSymbols() &&
           "input language must range over the PDS stack alphabet");
    Sat.NumShared = NumShared;
    Sat.NumSymbols = P.numSymbols();
    Sat.MaskWords = (NumShared + 63) / 64;
    W = Sat.MaskWords;
    FullMask.assign(W, ~uint64_t(0));
    if (NumShared % 64)
      FullMask[W - 1] = (uint64_t(1) << (NumShared % 64)) - 1;
    TmpMask.resize(W);

    Sat.NumStates = NumShared + Lang.numStates();
    Sat.AcceptBase.assign(Sat.NumStates, 0);
    for (uint32_t U = 0; U < Lang.numStates(); ++U)
      if (Lang.Accepting[U])
        Sat.AcceptBase[NumShared + U] = 1;
    Sat.StartAccepting = Lang.Accepting[Lang.Start] != 0;
    Out.resize(Sat.NumStates);
    EpsIn.resize(Sat.NumStates);

    size_t InputEdges = Lang.Table.size() + NumShared * Lang.NumSymbols;
    Worklist.reserve(InputEdges + 2 * P.actions().size());
    TransIndex.reserve(InputEdges + 4 * P.actions().size());

    for (uint32_t U = 0; U < Lang.numStates(); ++U) {
      for (Sym X = 1; X <= Lang.NumSymbols; ++X) {
        uint32_t V =
            Lang.Table[static_cast<size_t>(U) * Lang.NumSymbols + (X - 1)];
        if (V != CanonicalDfa::NoState)
          addTransition(NumShared + U, X, NumShared + V, FullMask.data());
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
  }

  uint64_t localBytes() const {
    return Sat.memoryBytes() + Pending.size() * sizeof(uint64_t) +
           InQueue.size() + TransIndex.memoryBytes();
  }

  RefSaturation run() {
    while (!Worklist.empty()) {
      if (Limits && !Limits->chargeStep()) {
        Sat.Complete = false;
        break;
      }
      if (Limits && !Limits->checkMemory(localBytes())) {
        Sat.Complete = false;
        break;
      }
      uint32_t T = Worklist.pop();
      InQueue[T] = 0;
      CurDelta.assign(Pending.begin() + size_t(T) * W,
                      Pending.begin() + size_t(T) * W + W);
      for (uint32_t I = 0; I < W; ++I) {
        Pending[size_t(T) * W + I] = 0;
        Sat.Masks[size_t(T) * W + I] |= CurDelta[I];
      }
      if (Sat.TLabel[T] != EpsSym)
        processSymbol(T);
      else
        processEpsilon(T);
    }
    return std::move(Sat);
  }

private:
  static uint64_t key(uint32_t From, Sym Label, uint32_t To) {
    if ((From | Label | To) >= (1u << 21))
      cuba_unreachable(
          "saturation automaton exceeds the 21-bit transition packing");
    return (static_cast<uint64_t>(From) << 42) |
           (static_cast<uint64_t>(Label) << 21) | To;
  }

  void addTransition(uint32_t From, Sym Label, uint32_t To,
                     const uint64_t *Delta) {
    auto [Slot, New] = TransIndex.tryEmplace(
        key(From, Label, To), static_cast<uint32_t>(Sat.TFrom.size()));
    uint32_t T = *Slot;
    if (New) {
      Sat.TFrom.push_back(From);
      Sat.TLabel.push_back(Label);
      Sat.TTo.push_back(To);
      Sat.Masks.resize(Sat.Masks.size() + W, 0);
      Pending.resize(Pending.size() + W, 0);
      InQueue.push_back(0);
      Out[From].push_back(T);
      if (Label == EpsSym)
        EpsIn[To].push_back(T);
    }
    bool Fresh = false;
    for (uint32_t I = 0; I < W; ++I) {
      uint64_t NewBits = Delta[I] & ~(Sat.Masks[size_t(T) * W + I] |
                                      Pending[size_t(T) * W + I]);
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

  bool intersect(const uint64_t *Delta, uint32_t T2) {
    uint64_t Any = 0;
    for (uint32_t I = 0; I < W; ++I) {
      TmpMask[I] = Delta[I] & Sat.Masks[size_t(T2) * W + I];
      Any |= TmpMask[I];
    }
    return Any != 0;
  }

  uint32_t helperState(QState DstQ, Sym Top) {
    uint64_t K = (static_cast<uint64_t>(DstQ) << 32) | Top;
    auto [Slot, New] = Helpers.tryEmplace(K, 0);
    if (New) {
      *Slot = Sat.NumStates++;
      Sat.AcceptBase.push_back(0);
      Out.emplace_back();
      EpsIn.emplace_back();
    }
    return *Slot;
  }

  void processSymbol(uint32_t T) {
    uint32_t From = Sat.TFrom[T], To = Sat.TTo[T];
    Sym Label = Sat.TLabel[T];
    for (size_t K = 0; K < EpsIn[From].size(); ++K) {
      uint32_t E = EpsIn[From][K];
      if (intersect(CurDelta.data(), E))
        addTransition(Sat.TFrom[E], Label, To, TmpMask.data());
    }
    if (From >= NumShared)
      return;
    for (uint32_t AI : P.actionsFrom(From, Label)) {
      const Action &A = P.actions()[AI];
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
        cuba_unreachable("shared post* requires the bottom transform to "
                         "have removed empty-stack rules");
      }
    }
  }

  void processEpsilon(uint32_t T) {
    uint32_t From = Sat.TFrom[T], To = Sat.TTo[T];
    for (size_t K = 0; K < Out[To].size(); ++K) {
      uint32_t T2 = Out[To][K];
      if (intersect(CurDelta.data(), T2))
        addTransition(From, Sat.TLabel[T2], Sat.TTo[T2], TmpMask.data());
    }
  }

  const Pds &P;
  LimitTracker *Limits;
  uint32_t NumShared;
  uint32_t W = 1;

  RefSaturation Sat;
  std::vector<uint64_t> FullMask, TmpMask, CurDelta;

  std::vector<uint64_t> Pending;
  std::vector<uint8_t> InQueue;
  RingQueue<uint32_t> Worklist;
  FlatMap<uint64_t, uint32_t> TransIndex;

  std::vector<std::vector<uint32_t>> Out;
  std::vector<std::vector<uint32_t>> EpsIn;
  FlatMap<uint64_t, uint32_t> Helpers;
};

/// Runs the pre-refactor engine on one instance.
inline RefSaturation refSharedPostStar(const Pds &P, uint32_t NumShared,
                                       const CanonicalDfa &Lang,
                                       LimitTracker *Limits = nullptr) {
  RefSharedSaturator S(P, NumShared, Lang, Limits);
  return S.run();
}

} // namespace cuba::reference

#endif // CUBA_TESTS_REFERENCESHAREDSATURATION_H
