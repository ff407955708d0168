//===-- psa/SaturationEngine.cpp - Shared multi-root post* ----------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "psa/SaturationEngine.h"

#include "fa/Canonicalize.h"
#include "obs/Metrics.h"
#include "psa/Semiring.h"
#include "psa/WeightedPostStar.h"
#include "support/Hashing.h"

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

void SharedSaturation::extractRootCached(QState Root,
                                         const ExtractionCache &Cache,
                                         RootExtraction &X) const {
  static obs::Counter ExtractCounter("saturation.extractions");
  ++ExtractCounter;
  if (!RootedReadsSound) {
    // Invariant violated (never by this module's construction): fall
    // back to the plain pipeline with an empty commit payload, which
    // commitExtraction treats as a no-op.
    for (auto &[Q2, D] : extractRoot(Root)) {
      X.Hashes.push_back(D.hash());
      X.Langs.emplace_back(Q2, std::move(D));
    }
    return;
  }

  // The root's class: the exact active bit set over non-shared-sourced
  // transitions.
  size_t NumT = TFrom.size();
  X.ClassBits.assign((NumT + 63) / 64, 0);
  for (size_t T = 0; T < NumT; ++T)
    if (TFrom[T] >= NumShared && activeFor(T, Root))
      X.ClassBits[T / 64] |= uint64_t{1} << (T % 64);
  X.ClassDigest = hashCombine(
      0xC1A5, hashRange(X.ClassBits.begin(), X.ClassBits.end()));

  // Resolve the class in the cache; a digest collision with a different
  // bit set is a miss.
  uint32_t Class = UINT32_MAX;
  const Nfa *Base = nullptr;
  if (const uint32_t *I = Cache.ClassIdx.find(X.ClassDigest))
    if (Cache.Classes[*I].Bits == X.ClassBits) {
      Class = *I;
      Base = &Cache.Classes[*I].View;
    }
  Nfa Built(0);
  if (!Base) {
    Built = classView(X.ClassBits);
    Base = &Built;
  }

  // Per-target pass: probe the cache, then the targets this very
  // extraction has already recorded; canonicalize only the misses,
  // against a full root view built at most once.
  Nfa Full(0);
  bool FullBuilt = false;
  FlatMap<uint64_t, uint32_t> Pending; // digest -> first X.Targets index
  std::vector<uint32_t> TargetSet(1);
  X.Targets.reserve(NumShared);
  for (QState Q2 = 0; Q2 < NumShared; ++Q2) {
    RootExtraction::Target Tg;
    Tg.SelfAccept = StartAccepting && Q2 == Root;
    for (uint32_t K = RowStart[Q2]; K < RowStart[Q2 + 1]; ++K)
      if (activeFor(RowTrans[K], Root))
        Tg.Row.push_back(RowTrans[K]);
    Tg.Digest = hashCombine(hashCombine(X.ClassDigest, Tg.SelfAccept),
                            hashRange(Tg.Row.begin(), Tg.Row.end()));

    const ExtractionCache::Entry *Hit = nullptr;
    if (Class != UINT32_MAX)
      if (const uint32_t *E = Cache.EntryIdx.find(Tg.Digest)) {
        const ExtractionCache::Entry &En = Cache.Entries[*E];
        if (En.Class == Class && En.SelfAccept == Tg.SelfAccept &&
            En.Row == Tg.Row)
          Hit = &En;
      }
    const uint32_t *Pend = Hit ? nullptr : Pending.find(Tg.Digest);
    if (Pend && (X.Targets[*Pend].SelfAccept != Tg.SelfAccept ||
                 X.Targets[*Pend].Row != Tg.Row))
      Pend = nullptr;

    if (Hit) {
      // Served from the cache; the record still carries the result, so
      // it stays self-contained.
      Tg.Empty = Hit->Empty;
      if (!Hit->Empty) {
        Tg.Hash = Hit->Hash;
        Tg.D = Hit->D;
        X.Langs.emplace_back(Q2, Hit->D);
        X.Hashes.push_back(Hit->Hash);
      }
    } else if (Pend) {
      // An earlier target of this same extraction had the identical
      // key (typically both rows empty): reuse its result.
      const RootExtraction::Target &First = X.Targets[*Pend];
      Tg.Empty = First.Empty;
      if (!First.Empty) {
        Tg.Hash = First.Hash;
        Tg.D = First.D;
        X.Langs.emplace_back(Q2, First.D);
        X.Hashes.push_back(First.Hash);
      }
    } else {
      if (!FullBuilt) {
        // The full root view: the class adjacency plus every shared
        // state's active row, per-state edge order identical to
        // rootView's ascending-index order (shared and non-shared
        // sources never mix within one adjacency list).
        Full = *Base;
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
      if (D.Start == CanonicalDfa::NoState) {
        Tg.Empty = 1;
      } else {
        Tg.Hash = D.hash();
        Tg.D = D;
        X.Langs.emplace_back(Q2, std::move(D));
        X.Hashes.push_back(Tg.Hash);
      }
      Pending.tryEmplace(Tg.Digest,
                         static_cast<uint32_t>(X.Targets.size()));
    }
    X.Targets.push_back(std::move(Tg));
  }
}

uint64_t SharedSaturation::commitExtraction(ExtractionCache &Cache,
                                            const RootExtraction &X) const {
  if (X.Targets.empty())
    return 0; // Fallback extraction: nothing to intern or count.

  uint32_t Class = UINT32_MAX;
  if (const uint32_t *I = Cache.ClassIdx.find(X.ClassDigest)) {
    if (Cache.Classes[*I].Bits != X.ClassBits)
      return 0; // Digest collision: this class is uncacheable here.
    Class = *I;
  } else {
    // Rebuild the view from the exact bit set rather than carrying the
    // extraction's copy, so every payload stays self-contained.
    Class = static_cast<uint32_t>(Cache.Classes.size());
    Cache.ClassIdx.tryEmplace(X.ClassDigest, Class);
    Cache.Classes.push_back({X.ClassBits, classView(X.ClassBits)});
  }

  uint64_t Skipped = 0;
  for (const RootExtraction::Target &Tg : X.Targets) {
    if (const uint32_t *E = Cache.EntryIdx.find(Tg.Digest)) {
      const ExtractionCache::Entry &En = Cache.Entries[*E];
      if (En.Class == Class && En.SelfAccept == Tg.SelfAccept &&
          En.Row == Tg.Row)
        ++Skipped;
      continue;
    }
    Cache.EntryIdx.tryEmplace(Tg.Digest,
                              static_cast<uint32_t>(Cache.Entries.size()));
    Cache.Entries.push_back(
        {Tg.Row, Tg.D, Tg.Hash, Class, Tg.SelfAccept, Tg.Empty});
  }
  return Skipped;
}

SharedSaturationResult cuba::sharedPostStar(const Pds &P, uint32_t NumShared,
                                            const CanonicalDfa &Lang,
                                            LimitTracker *Limits) {
  static obs::Counter SatCounter("saturation.shared");
  ++SatCounter;
  // The classical mask saturation is the boolean-set instantiation of
  // the semiring-generic core; the retained relation adopts the
  // domain's flat mask rows without a copy.  Bit-identity with the
  // pre-refactor engine is pinned by SharedSaturationTest against
  // tests/ReferenceSharedSaturation.h.
  WeightedSaturatorT<BoolSetDomain> S(P, NumShared, Lang, Limits,
                                      BoolSetDomain());
  WeightedResult<BoolSetDomain> R = S.run();
  SharedSaturationResult Out;
  Out.Complete = R.Complete;
  SharedSaturation &Sat = Out.Sat;
  Sat.NumShared = R.Rel.NumShared;
  Sat.NumStates = R.Rel.NumStates;
  Sat.NumSymbols = R.Rel.NumSymbols;
  Sat.MaskWords = R.Rel.Dom.maskWords();
  Sat.TFrom = std::move(R.Rel.TFrom);
  Sat.TTo = std::move(R.Rel.TTo);
  Sat.TLabel = std::move(R.Rel.TLabel);
  Sat.Masks = R.Rel.Dom.takeActive();
  Sat.AcceptBase = std::move(R.Rel.AcceptBase);
  Sat.StartAccepting = R.Rel.StartAccepting;
  Sat.buildRootRows();
  return Out;
}
