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
