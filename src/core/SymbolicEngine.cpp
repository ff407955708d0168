//===-- core/SymbolicEngine.cpp - PSA-based symbolic engine ---------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/SymbolicEngine.h"

#include <algorithm>

#include <chrono>

#include "exec/ParallelRound.h"
#include "fa/Canonicalize.h"
#include "obs/Trace.h"
#include "support/Statistic.h"

using namespace cuba;

/// Builds the canonical DFA accepting exactly the single word \p Word.
static CanonicalDfa singleWordLanguage(uint32_t NumSymbols,
                                       const std::vector<Sym> &Word) {
  Nfa A(NumSymbols);
  uint32_t Cur = A.addState();
  A.setInitial(Cur);
  for (Sym S : Word) {
    uint32_t Next = A.addState();
    A.addEdge(Cur, S, Next);
    Cur = Next;
  }
  A.setAccepting(Cur);
  return canonicalizeNfa(A);
}

SymbolicEngine::SymbolicEngine(const Cpds &C, const ResourceLimits &Limits)
    : C(C), Limits(Limits), Rows(1 + C.numThreads()), VisibleSeen(C),
      VisTuples(1 + C.numThreads()), TopsCache(C.numThreads()),
      SatCache(C.numThreads()), PrefetchIdx(C.numThreads()) {
  assert(C.frozen() && "SymbolicEngine requires a frozen CPDS");
  ParentBuf.resize(Rows.width());
  SuccBuf.resize(Rows.width());
  TupleBuf.resize(VisTuples.width());
  // The initial symbolic state: each thread's language is the lifted
  // initial stack (one word, ending in the bottom marker).
  GlobalState Init = C.initialState();
  SuccBuf[0] = Init.Q;
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    // Stacks are stored bottom-first; automata read top-first.
    std::vector<Sym> Word(Init.Stacks[I].rbegin(), Init.Stacks[I].rend());
    Sym Bottom = C.thread(I).bottom();
    Word.push_back(Bottom);
    SuccBuf[1 + I] = Store.intern(singleWordLanguage(Bottom, Word));
  }
  addState(SuccBuf.data(), 0, UINT32_MAX, &Frontier);
}

uint32_t SymbolicEngine::topSetOf(unsigned Thread, DfaId Lang) {
  TopsCacheEntry &Cache = TopsCache[Thread];
  if (Cache.SetOf.size() < Store.size())
    Cache.SetOf.resize(Store.size(), 0);
  if (Cache.SetOf[Lang])
    return Cache.SetOf[Lang] - 1;

  // All canonical states are useful, so every edge leaving the start
  // lies on an accepting path; its label is a reachable top.  The
  // bottom marker on top encodes the empty original stack.
  const CanonicalDfa &D = Store.get(Lang);
  std::vector<Sym> Tops;
  Sym Bottom = C.thread(Thread).bottom();
  if (D.Start != CanonicalDfa::NoState) {
    if (D.Accepting[D.Start])
      Tops.push_back(EpsSym); // Unreachable with lifted words; general.
    for (Sym X = 1; X <= D.NumSymbols; ++X) {
      if (D.Table[static_cast<size_t>(D.Start) * D.NumSymbols + (X - 1)] ==
          CanonicalDfa::NoState)
        continue;
      Tops.push_back(X == Bottom ? EpsSym : X);
    }
  }
  std::sort(Tops.begin(), Tops.end());
  Tops.erase(std::unique(Tops.begin(), Tops.end()), Tops.end());
  auto [It, New] = Cache.SetIds.try_emplace(
      Tops, static_cast<uint32_t>(Cache.Sets.size()));
  if (New)
    Cache.Sets.push_back(std::move(Tops));
  Cache.SetOf[Lang] = It->second + 1;
  return It->second;
}

void SymbolicEngine::recordVisible(const uint32_t *Row, unsigned Round) {
  // T(tau) = {q} x T(A_1) x ... x T(A_n)  (App. E, formula (4)),
  // enumerated once per tuple of top sets: a repeated tuple's words are
  // all recorded already, at a round no later than this one.
  unsigned N = C.numThreads();
  TupleBuf[0] = Row[0];
  for (unsigned I = 0; I < N; ++I)
    TupleBuf[1 + I] = topSetOf(I, Row[1 + I]);
  if (!VisTuples.intern(TupleBuf.data(), VisTuples.hash(TupleBuf.data()))
           .second)
    return;
  VisibleState V;
  V.Q = Row[0];
  V.Tops.assign(N, EpsSym);
  // Iterative odometer over the per-thread top sets.
  std::vector<const std::vector<Sym> *> Sets;
  Sets.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    Sets.push_back(&TopsCache[I].Sets[TupleBuf[1 + I]]);
    if (Sets.back()->empty())
      return; // Empty language row: no visible states (cannot happen).
  }
  std::vector<size_t> Idx(N, 0);
  while (true) {
    for (unsigned I = 0; I < N; ++I)
      V.Tops[I] = (*Sets[I])[Idx[I]];
    VisibleSeen.insert(V, Round);
    unsigned I = 0;
    while (I < N && ++Idx[I] == Sets[I]->size()) {
      Idx[I] = 0;
      ++I;
    }
    if (I == N)
      break;
  }
}

std::pair<bool, bool>
SymbolicEngine::addState(const uint32_t *Row, unsigned Round,
                         uint32_t Producer,
                         std::vector<uint32_t> *NewFrontier) {
  static Statistic StateCounter("symbolic.states");
  // The initial state's UINT32_MAX producer has no bit.
  uint32_t Mask = producerBit(Producer);
  auto [Id, New] = Rows.intern(Row, Rows.hash(Row));
  if (!New) {
    Producers[Id] |= Mask;
    return {false, true};
  }
  Producers.push_back(Mask);
  ++StateCounter;
  recordVisible(Row, Round);
  if (NewFrontier)
    NewFrontier->push_back(Id);
  // Both the state count and the byte budget are charged here: addState
  // runs only in serial commit order (even in parallel rounds), and
  // every memoryUsage() term is a function of serially committed state,
  // so the exhaustion point is identical at any job count.
  if (!Limits.chargeState())
    return {true, false};
  return {true, Limits.checkMemory(memoryUsage())};
}

bool SymbolicEngine::addSuccessor(const uint32_t *S, unsigned I, QState Q2,
                                  DfaId Lang,
                                  std::vector<uint32_t> &NewFrontier) {
  std::copy(S, S + Rows.width(), SuccBuf.begin());
  SuccBuf[0] = Q2;
  SuccBuf[1 + I] = Lang;
  return addState(SuccBuf.data(), Bound + 1, I, &NewFrontier).second;
}

bool SymbolicEngine::replayTransaction(const Transaction &TR,
                                       const uint32_t *S, unsigned I,
                                       std::vector<uint32_t> &NewFrontier) {
  if (!Limits.chargeStep(TR.BaseSteps))
    return false;
  for (const Transaction::Succ &Succ : TR.Succs) {
    if (!Limits.chargeStep(Succ.StepCost))
      return false;
    if (!addSuccessor(S, I, Succ.Q, Succ.Lang, NewFrontier))
      return false;
  }
  return true;
}

uint32_t SymbolicEngine::registerSaturation(unsigned I, DfaId Lang,
                                            SharedSaturation Sat,
                                            uint64_t BaseSteps,
                                            uint64_t BeginNs, uint64_t EndNs,
                                            uint32_t Worker) {
  static obs::Histogram PopsPerSat("symbolic.pops_per_saturation");
  fault::checkAlloc();
  PopsPerSat.observe(BaseSteps);
  if (obs::Trace::enabled()) {
    obs::SpanArg Args[] = {{"thread", I},
                           {"lang", Lang},
                           {"pops", BaseSteps},
                           {"sat_states", Sat.numStates()},
                           {"bytes", Sat.memoryBytes()}};
    obs::Trace::span("saturate", obs::Trace::CatDet, Worker, BeginNs, EndNs,
                     Args, 5);
  }
  uint32_t Idx = static_cast<uint32_t>(SharedSats.size());
  SatBytes += Sat.memoryBytes();
  SharedSats.push_back({std::move(Sat), BaseSteps, {}, I, Lang, Bound, {}});
  SatCache[I].tryEmplace(Lang, Idx);
  // Registration is a serial commit point in both round paths; fold the
  // newly retained relation into the byte budget immediately.
  Limits.checkMemory(memoryUsage());
  return Idx;
}

void SymbolicEngine::extractRootPending(
    const SharedSaturation &Sat,
    const SharedSaturation::ExtractionCache *Committed,
    SharedSaturation::ExtractionCache *Overlay, QState Root,
    PendingExtraction &P) const {
  P.TsBegin = obs::Trace::nowNs();
  Sat.extractRootCached(Root, Committed, Overlay, P.X);
  // The per-successor charge mirrors the pre-refactor pipeline's
  // rooted-NFA cost: the size of the automaton the canonicalization
  // reads, identical for every target of one root.  Cache hits charge
  // the same schedule a fresh extraction would -- only the wall time
  // changes, never the budget.
  uint64_t Cost = Sat.numStates();
  for (size_t I = 0; I < P.X.Langs.size(); ++I)
    P.Succs.push_back({P.X.Langs[I].first, std::move(P.X.Langs[I].second),
                       P.X.Hashes[I], Cost});
  if (Overlay)
    Sat.commitExtraction(*Overlay, P.X);
  P.TsEnd = obs::Trace::nowNs();
}

bool SymbolicEngine::commitRootExtraction(
    uint32_t SatIdx, PendingExtraction &P, const uint32_t *S, unsigned I,
    std::vector<uint32_t> &NewFrontier) {
  static obs::Histogram Fanout("symbolic.extraction_fanout");
  static Statistic SkippedUnchanged("extract.skipped_unchanged");
  Fanout.observe(P.Succs.size());
  if (obs::Trace::enabled()) {
    obs::SpanArg Args[] = {{"thread", I},
                           {"root", S[0]},
                           {"fanout", P.Succs.size()}};
    obs::Trace::span("extract", obs::Trace::CatDet, P.Worker, P.TsBegin,
                     P.TsEnd, Args, 3);
  }
  SharedSat &SS = SharedSats[SatIdx];
  // Fold the extraction into the saturation's interned cache and count
  // the targets it already held.  A serial commit point: the cache's
  // content, and with it this deterministic counter, replays the serial
  // schedule at any job count.
  SkippedUnchanged += SS.Sat.commitExtraction(SS.Extract, P.X);
  Transaction TR;
  TR.BaseSteps = SS.PendingBase; // First extracted root carries the base.
  SS.PendingBase = 0;
  for (PendingExtraction::PSucc &PS : P.Succs) {
    // Exhaustion mid-transaction leaves the root unrecorded: a prefix of
    // the successors was charged and registered, and the engine is
    // stopping anyway.
    if (!Limits.chargeStep(PS.StepCost))
      return false;
    DfaId Lang = Store.intern(std::move(PS.D), PS.Hash);
    TR.Succs.push_back({PS.Q, Lang, PS.StepCost});
    if (!addSuccessor(S, I, PS.Q, Lang, NewFrontier))
      return false;
  }
  TrBytes += sizeof(Transaction) +
             static_cast<uint64_t>(TR.Succs.size()) *
                 sizeof(Transaction::Succ);
  Transactions.push_back(std::move(TR));
  SS.Roots.tryEmplace(S[0],
                      static_cast<uint32_t>(Transactions.size() - 1));
  return true;
}

bool SymbolicEngine::expand(const uint32_t *S, unsigned I,
                            std::vector<uint32_t> &NewFrontier) {
  // Resolved once: the registry lookup costs a string hash, which is
  // too expensive now that cache hits make expand() itself cheap.
  static Statistic TransCounter("symbolic.transactions");
  static Statistic HitCounter("symbolic.transactions.cached");
  ++TransCounter;

  // An empty stack language admits no configuration at all, hence no
  // transaction.  Unreachable through the real pipeline (rooted
  // languages are non-empty by construction), but cheap, and it keeps
  // the engine well-defined under the fa_testing minimize mutation.
  DfaId Lang = S[1 + I];
  if (Store.get(Lang).Start == CanonicalDfa::NoState)
    return true;

  // Two cache levels: the (thread, language) saturation, then the root
  // record inside it.  A root hit replays the recorded charge schedule
  // interleaved with the successor insertions, so an engine with a
  // tight budget stores exactly the states -- and exhausts at exactly
  // the point -- a fresh re-expansion would.
  uint32_t SatIdx;
  if (const uint32_t *Found = SatCache[I].find(Lang)) {
    SatIdx = *Found;
    SharedSats[SatIdx].LastUsed = Bound; // Generation touch (eviction).
    if (const uint32_t *Rec = SharedSats[SatIdx].Roots.find(S[0])) {
      ++HitCounter;
      return replayTransaction(Transactions[*Rec], S, I, NewFrontier);
    }
  } else {
    // Fresh language: one shared saturation serves every root that will
    // ever expand it, charged live (one step per saturation pop).
    uint64_t StepsBefore = Limits.steps();
    uint64_t Ts0 = obs::Trace::nowNs();
    SharedSaturationResult R = sharedPostStar(
        C.thread(I), C.numSharedStates(), Store.get(Lang), &Limits);
    uint64_t Ts1 = obs::Trace::nowNs();
    if (!R.Complete)
      return false;
    SatIdx = registerSaturation(I, Lang, std::move(R.Sat),
                                Limits.steps() - StepsBefore, Ts0, Ts1, 0);
  }

  // Fresh root on a (now) saturated language: extract against the
  // saturation's live interned cache, then run the shared
  // budget-charging commit.
  PendingExtraction P;
  extractRootPending(SharedSats[SatIdx].Sat, &SharedSats[SatIdx].Extract,
                     /*Overlay=*/nullptr, S[0], P);
  return commitRootExtraction(SatIdx, P, S, I, NewFrontier);
}

SymbolicEngine::RoundStatus
SymbolicEngine::advanceRoundSerial(std::vector<uint32_t> &NewFrontier) {
  // The "commit" span covers the round's whole expansion sequence (the
  // serial path has no separate speculative phase); its expansion count
  // mirrors the parallel commit's exactly, including the truncation
  // point on exhaustion, so the det trace stays jobs-identical.
  obs::ScopedSpan Commit("commit", obs::Trace::CatDet);
  uint64_t Expansions = 0;
  for (uint32_t Id : Frontier) {
    const uint32_t *Row = Rows.row(Id);
    std::copy(Row, Row + Rows.width(), ParentBuf.begin());
    uint32_t Produced = Producers[Id];
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      // Skip the producer thread: its post* is transitively closed, so
      // re-expanding yields only language-subsumed rows.
      if (Produced & producerBit(I))
        continue;
      ++Expansions;
      if (!expand(ParentBuf.data(), I, NewFrontier)) {
        Commit.arg("expansions", Expansions);
        return RoundStatus::Exhausted;
      }
    }
  }
  Commit.arg("expansions", Expansions);
  return RoundStatus::Ok;
}

void SymbolicEngine::computePendingSat(PendingSat &P,
                                       uint32_t Worker) const {
  // A prefilled key keeps the prefetching worker: its saturate span
  // carries the prefetch's timestamps, so it belongs on that track.
  if (!P.Prefilled)
    P.Worker = Worker;
  // Everything here reads only state frozen for the round: the CPDS,
  // the DfaStore arena and the retained saturations (both only append,
  // in the serial commit).  The budget is a local unlimited recorder --
  // the commit replays its pop count against the real tracker in serial
  // order.
  const SharedSaturation *Sat;
  if (P.CachedSat != UINT32_MAX) {
    Sat = &SharedSats[P.CachedSat].Sat;
  } else if (P.Prefilled) {
    // The previous round's prefetch already saturated this key; the
    // recorder figures rode along at adoption, so only the per-root
    // extractions remain.
    Sat = &P.Sat;
  } else {
    // Unlimited except for MaxBytes: the saturation's footprint check is
    // a pure function of its pops, so carrying the engine's byte budget
    // makes the speculation truncate at exactly the pop where the serial
    // path would have.
    ResourceLimits RL = ResourceLimits::unlimited();
    RL.MaxBytes = Limits.limits().MaxBytes;
    LimitTracker Recorder(RL);
    P.TsBegin = obs::Trace::nowNs();
    SharedSaturationResult R = sharedPostStar(
        C.thread(P.Thread), C.numSharedStates(), Store.get(P.InLang),
        &Recorder);
    P.TsEnd = obs::Trace::nowNs();
    assert((R.Complete || RL.MaxBytes) &&
           "only a byte budget can truncate the recorder");
    P.BaseSteps = Recorder.steps();
    P.PeakSatBytes = Recorder.peakBytes();
    P.Complete = R.Complete;
    P.Sat = std::move(R.Sat);
    Sat = &P.Sat;
  }
  // Extractions probe the saturation's committed cache (frozen for the
  // round) plus a task-local overlay that accumulates this task's fresh
  // targets in frontier order -- the same reuse the serial path gets
  // from its live cache, without touching shared state.
  const SharedSaturation::ExtractionCache *Committed =
      P.CachedSat != UINT32_MAX ? &SharedSats[P.CachedSat].Extract : nullptr;
  P.Extr.resize(P.Roots.size());
  for (size_t R = 0; R < P.Roots.size(); ++R) {
    extractRootPending(*Sat, Committed, &P.SpecCache, P.Roots[R], P.Extr[R]);
    P.Extr[R].Worker = Worker;
  }
}

void SymbolicEngine::computePrefetch(PrefetchedSat &P,
                                     uint32_t Worker) const {
  // The saturation half of computePendingSat's fresh path, one round
  // early: frozen inputs, an uncharged recorder (MaxBytes carried so a
  // byte-truncated speculation truncates at the identical pop), and
  // recorder figures the consuming round's serial commit will charge.
  P.Worker = Worker;
  ResourceLimits RL = ResourceLimits::unlimited();
  RL.MaxBytes = Limits.limits().MaxBytes;
  LimitTracker Recorder(RL);
  P.TsBegin = obs::Trace::nowNs();
  SharedSaturationResult R = sharedPostStar(
      C.thread(P.Thread), C.numSharedStates(), Store.get(P.InLang),
      &Recorder);
  P.TsEnd = obs::Trace::nowNs();
  P.BaseSteps = Recorder.steps();
  P.PeakSatBytes = Recorder.peakBytes();
  P.Complete = R.Complete;
  P.Sat = std::move(R.Sat);
}

SymbolicEngine::RoundStatus
SymbolicEngine::advanceRoundParallel(std::vector<uint32_t> &NewFrontier) {
  static Statistic TransCounter("symbolic.transactions");
  static Statistic HitCounter("symbolic.transactions.cached");
  // Pipeline figures are wall-side: the prefetch path only exists on
  // parallel rounds, so none of these may join the cross-jobs det
  // contract.  HiddenUs is the overlap gauge -- saturation time the
  // consuming round never had to spend because a previous round's
  // workers absorbed it.
  static Statistic PrefetchHits("symbolic.prefetch.hits",
                                /*Deterministic=*/false);
  static Statistic PrefetchDropped("symbolic.prefetch.dropped",
                                   /*Deterministic=*/false);
  static obs::Histogram PrefetchHiddenUs("symbolic.prefetch.hidden_us",
                                         /*Deterministic=*/false);

  // Phase 1 (serial): group the round's uncovered work by (thread,
  // input language) -- each distinct key becomes ONE speculative task
  // carrying every root the frontier asks of it.  Expansions the
  // *round-start* producer masks rule out are skipped; masks only gain
  // bits as the round commits (a frontier state re-derived mid-round
  // absorbs its producer), so this is a superset of what the serial
  // path computes fresh -- the commit below re-reads the live mask and
  // is what decides.
  std::vector<PendingSat> Pending;
  std::vector<FlatMap<DfaId, uint32_t>> FreshIdx(C.numThreads());
  uint64_t AdoptedNow = 0;
  for (uint32_t Id : Frontier) {
    const uint32_t *S = Rows.row(Id);
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      if (Producers[Id] & producerBit(I))
        continue;
      DfaId Lang = S[1 + I];
      if (Store.get(Lang).Start == CanonicalDfa::NoState)
        continue;
      uint32_t SatIdx = UINT32_MAX;
      if (const uint32_t *Found = SatCache[I].find(Lang)) {
        SatIdx = *Found;
        if (SharedSats[SatIdx].Roots.contains(S[0]))
          continue; // Full hit: replays at the commit.
      }
      auto [Slot, New] = FreshIdx[I].tryEmplace(
          Lang, static_cast<uint32_t>(Pending.size()));
      if (New) {
        Pending.emplace_back();
        PendingSat &NP = Pending.back();
        NP.Thread = I;
        NP.InLang = Lang;
        NP.CachedSat = SatIdx;
        if (SatIdx == UINT32_MAX)
          if (const uint32_t *F = PrefetchIdx[I].find(Lang)) {
            // Adopt the previous round's prefetched saturation; keys
            // are unique per round (FreshIdx), so each prefetch is
            // adopted at most once.
            PrefetchedSat &PF = Prefetch[*F];
            NP.Prefilled = true;
            NP.BaseSteps = PF.BaseSteps;
            NP.PeakSatBytes = PF.PeakSatBytes;
            NP.Complete = PF.Complete;
            NP.Sat = std::move(PF.Sat);
            NP.TsBegin = PF.TsBegin;
            NP.TsEnd = PF.TsEnd;
            NP.Worker = PF.Worker;
            ++PrefetchHits;
            ++AdoptedNow;
            PrefetchHiddenUs.observe((PF.TsEnd - PF.TsBegin) / 1000);
          }
      }
      PendingSat &PS = Pending[*Slot];
      auto [RSlot, RNew] = PS.RootIdx.tryEmplace(
          S[0], static_cast<uint32_t>(PS.Roots.size()));
      (void)RSlot;
      if (RNew)
        PS.Roots.push_back(S[0]);
    }
  }

  // Pipeline selection: the saturation keys the next round's
  // successors will inherit but this round won't produce -- masked-out
  // expansions (P, A_P) for P in the producer mask of <q | A_1..A_n> --
  // ride along with this round's speculative batch as prefetch tasks.  Keys
  // already retained, already in this batch, or with an empty language
  // are excluded; the rest is a deterministic function of committed
  // state, so what gets adopted next round is too.
  std::vector<PrefetchedSat> NextPrefetch;
  std::vector<FlatMap<DfaId, uint32_t>> NextIdx(C.numThreads());
  for (uint32_t Id : Frontier) {
    const uint32_t *S = Rows.row(Id);
    for (unsigned P = 0; P < C.numThreads(); ++P) {
      if (!(Producers[Id] & producerBit(P)))
        continue;
      DfaId Lang = S[1 + P];
      if (Store.get(Lang).Start == CanonicalDfa::NoState)
        continue;
      if (SatCache[P].find(Lang) || FreshIdx[P].find(Lang))
        continue;
      auto [Slot, New] = NextIdx[P].tryEmplace(
          Lang, static_cast<uint32_t>(NextPrefetch.size()));
      (void)Slot;
      if (!New)
        continue;
      NextPrefetch.emplace_back();
      NextPrefetch.back().Thread = P;
      NextPrefetch.back().InLang = Lang;
    }
  }

  // Phase 2 (parallel): speculative saturations + extractions, one task
  // per (thread, language) key, plus the next round's prefetch
  // saturations filling the batch's tail.  Tasks the serial run would
  // never reach (it exhausted earlier) are computed and discarded; the
  // budget replay below is what decides.  The span is wall-category: it
  // only exists on the parallel path, so it is exempt from the
  // cross-jobs trace contract.
  size_t NumSpec = Pending.size();
  {
    obs::ScopedSpan Spec("speculate", obs::Trace::CatWall);
    Spec.arg("tasks", NumSpec);
    Spec.arg("prefetch_tasks", NextPrefetch.size());
    exec::parallelFor(*Pool, NumSpec + NextPrefetch.size(), 1,
                      [&](unsigned W, size_t T) {
                        if (T < NumSpec)
                          computePendingSat(Pending[T], W);
                        else
                          computePrefetch(NextPrefetch[T - NumSpec], W);
                      });
  }

  // Swap the pipeline buffer: this round consumed (moved out) whatever
  // it adopted at phase 1; the remainder is dropped with the old
  // buffer, and the freshly prefetched batch waits for the next round.
  PrefetchDropped += Prefetch.size() - AdoptedNow;
  Prefetch = std::move(NextPrefetch);
  PrefetchIdx = std::move(NextIdx);

  // Phase 3 (serial): replay the round's expansion sequence in serial
  // order against the real budget -- live producer masks, the empty
  // -language guard, cache hits, interning (DfaId assignment order ==
  // serial order) and successor registration, exactly as expand() would.
  obs::ScopedSpan Commit("commit", obs::Trace::CatDet);
  uint64_t Expansions = 0;
  for (uint32_t Id : Frontier) {
    const uint32_t *Row = Rows.row(Id);
    std::copy(Row, Row + Rows.width(), ParentBuf.begin());
    const uint32_t *S = ParentBuf.data();
    uint32_t Produced = Producers[Id];
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      if (Produced & producerBit(I))
        continue;
      ++TransCounter;
      ++Expansions;
      DfaId Lang = S[1 + I];
      if (Store.get(Lang).Start == CanonicalDfa::NoState)
        continue;
      uint32_t SatIdx = UINT32_MAX;
      if (const uint32_t *Found = SatCache[I].find(Lang)) {
        SatIdx = *Found;
        SharedSats[SatIdx].LastUsed = Bound; // Generation touch.
        if (const uint32_t *Rec = SharedSats[SatIdx].Roots.find(S[0])) {
          // Recorded before the round, or committed earlier within it:
          // the serial hit path (shared with expand(), so the two
          // charge schedules cannot drift apart).
          ++HitCounter;
          if (!replayTransaction(Transactions[*Rec], S, I, NewFrontier)) {
            Commit.arg("expansions", Expansions);
            return RoundStatus::Exhausted;
          }
          continue;
        }
      }
      PendingSat &PS = Pending[*FreshIdx[I].find(Lang)];
      if (SatIdx == UINT32_MAX) {
        // First occurrence of a fresh language: the saturation charged
        // one unit per pop, so replaying the count leaves the engine
        // exactly where a mid-saturation exhaustion would.  The footprint
        // peak folds after the steps, mirroring the serial loop's
        // chargeStep-then-checkMemory order; an incomplete (byte
        // -truncated) speculation aborts like serial's !R.Complete.
        if (!Limits.chargeStepsUnit(PS.BaseSteps) ||
            !Limits.checkMemory(PS.PeakSatBytes) || !PS.Complete) {
          Commit.arg("expansions", Expansions);
          return RoundStatus::Exhausted;
        }
        SatIdx = registerSaturation(I, Lang, std::move(PS.Sat),
                                    PS.BaseSteps, PS.TsBegin, PS.TsEnd,
                                    PS.Worker);
      }
      // Fresh root: the rest of the sequence is the code expand()
      // itself runs.
      PendingExtraction &PE = PS.Extr[*PS.RootIdx.find(S[0])];
      if (!commitRootExtraction(SatIdx, PE, S, I, NewFrontier)) {
        Commit.arg("expansions", Expansions);
        return RoundStatus::Exhausted;
      }
    }
  }
  Commit.arg("expansions", Expansions);
  return RoundStatus::Ok;
}

void SymbolicEngine::evictSaturations() {
  uint64_t Budget = Limits.limits().MaxCacheBytes;
  if (!Budget || SatBytes <= Budget)
    return;
  static Statistic Evictions("symbolic.sat_evictions");
  // The eviction schedule is deterministic (serial round boundary), so
  // the span -- including its evicted/retained figures -- is too.
  obs::ScopedSpan Span("evict", obs::Trace::CatDet);

  // Oldest generations first, registration order breaking ties; entries
  // touched in the round just committed are pinned (the frontier will
  // likely ask for them again next round, and pinning bounds how far a
  // pathological budget can thrash).
  std::vector<uint32_t> Order(SharedSats.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return SharedSats[A].LastUsed < SharedSats[B].LastUsed;
  });
  std::vector<uint8_t> Evict(SharedSats.size(), 0);
  uint64_t Retained = SatBytes;
  uint64_t EvictedNow = 0;
  for (uint32_t Idx : Order) {
    if (Retained <= Budget || SharedSats[Idx].LastUsed == Bound)
      break;
    Evict[Idx] = 1;
    Retained -= SharedSats[Idx].Sat.memoryBytes();
    ++Evictions;
    ++EvictedNow;
  }
  Span.arg("evicted", EvictedNow);
  Span.arg("retained_bytes", Retained);
  if (Retained == SatBytes)
    return;

  // Compact SharedSats in index order.
  std::vector<SharedSat> KeptSats;
  for (uint32_t I = 0; I < SharedSats.size(); ++I)
    if (!Evict[I])
      KeptSats.push_back(std::move(SharedSats[I]));
  SharedSats = std::move(KeptSats);
  SatBytes = Retained;

  // Compact Transactions to the records still referenced by a surviving
  // root map, preserving index order, and rewrite the references.
  std::vector<uint32_t> TrRemap(Transactions.size(), UINT32_MAX);
  for (SharedSat &SS : SharedSats)
    SS.Roots.forEach(
        [&](const uint32_t &, const uint32_t &TIdx) { TrRemap[TIdx] = 0; });
  std::vector<Transaction> KeptTr;
  TrBytes = 0;
  for (uint32_t I = 0; I < Transactions.size(); ++I) {
    if (TrRemap[I] == UINT32_MAX)
      continue;
    TrRemap[I] = static_cast<uint32_t>(KeptTr.size());
    TrBytes += sizeof(Transaction) +
               static_cast<uint64_t>(Transactions[I].Succs.size()) *
                   sizeof(Transaction::Succ);
    KeptTr.push_back(std::move(Transactions[I]));
  }
  Transactions = std::move(KeptTr);

  // Rebuild the (thread, language) cache and remap the root records.
  for (FlatMap<DfaId, uint32_t> &M : SatCache)
    M.clear();
  for (uint32_t I = 0; I < SharedSats.size(); ++I) {
    SharedSat &SS = SharedSats[I];
    SatCache[SS.Thread].tryEmplace(SS.InLang, I);
    SS.Roots.forEachMut(
        [&](const uint32_t &, uint32_t &TIdx) { TIdx = TrRemap[TIdx]; });
  }
}

SymbolicEngine::RoundStatus SymbolicEngine::advance() {
  static Statistic Rounds("symbolic.rounds");
  // Round latency varies with scheduling and machine load, so the
  // histogram sits on the wall side of the determinism split.
  static obs::Histogram RoundMicros("symbolic.round_micros",
                                    /*Deterministic=*/false);
  static obs::Gauge BytesHwm("symbolic.bytes.hwm");
  static obs::Gauge SatBytesHwm("symbolic.sat_bytes.hwm");
  static obs::Gauge CacheEntriesHwm("symbolic.cache_entries.hwm");
  ++Rounds;
  auto T0 = std::chrono::steady_clock::now();
  obs::ScopedSpan Round("round", obs::Trace::CatDet);
  Round.arg("k", Bound);
  Round.arg("frontier", Frontier.size());

  std::vector<uint32_t> NewFrontier;
  RoundStatus St = Pool ? advanceRoundParallel(NewFrontier)
                        : advanceRoundSerial(NewFrontier);

  // Budget consumption curve: the cumulative tracker figures as of this
  // round's end, all deterministic functions of serially committed
  // state (even at the exhaustion round -- both paths truncate at the
  // identical charge).
  Round.arg("steps", Limits.steps());
  Round.arg("states", Limits.states());
  Round.arg("peak_bytes", Limits.peakBytes());
  RoundMicros.observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count()));
  if (St == RoundStatus::Exhausted)
    return RoundStatus::Exhausted;
  // The serial round boundary: the only point where retention decisions
  // are made, so they are identical at any `--jobs`.
  evictSaturations();
  Round.arg("new_states", NewFrontier.size());
  Round.arg("bytes", memoryUsage());
  BytesHwm.recordMax(memoryUsage());
  SatBytesHwm.recordMax(SatBytes);
  CacheEntriesHwm.recordMax(SharedSats.size());
  ++Bound;
  Frontier = std::move(NewFrontier);
  return RoundStatus::Ok;
}
