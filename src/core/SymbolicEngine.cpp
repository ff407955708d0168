//===-- core/SymbolicEngine.cpp - PSA-based symbolic engine ---------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/SymbolicEngine.h"

#include <algorithm>
#include <chrono>

#include "fa/Canonicalize.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FaultInject.h"

using namespace cuba;

namespace {

/// Builds the canonical DFA accepting exactly the single word \p Word.
CanonicalDfa singleWordLanguage(uint32_t NumSymbols,
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

} // namespace

SymbolicEngine::SymbolicEngine(const Cpds &C, const ResourceLimits &Limits,
                               ThreadSymmetry Symmetry)
    : C(C), Limits(Limits), Symmetry(std::move(Symmetry)),
      Rows(1 + C.numThreads()), VisibleSeen(C),
      VisTuples(1 + C.numThreads()), TopsCache(C.numThreads()),
      SatCache(C.numThreads()) {
  assert(C.frozen() && "the symbolic engine requires a frozen CPDS");
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

SymbolicEngine::RoundStatus SymbolicEngine::advance() {
  static obs::Counter Rounds("symbolic.rounds");
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
  RoundStatus St = commitRound(NewFrontier);

  // Budget consumption curve: the cumulative tracker figures as of this
  // round's end (at the exhaustion round too).
  Round.arg("steps", Limits.steps());
  Round.arg("states", Limits.states());
  Round.arg("peak_bytes", Limits.peakBytes());
  RoundMicros.observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count()));
  if (St == RoundStatus::Exhausted)
    return RoundStatus::Exhausted;
  // The round boundary: the only point where retention decisions are
  // made.
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

/// Expands the symbolic state with row \p S (a caller-owned copy:
/// interning successors may move the table) by thread \p I; new
/// successors' ids are pushed onto NewFrontier.  Returns false on
/// budget exhaustion.
bool SymbolicEngine::expand(const uint32_t *S, unsigned I,
                            std::vector<uint32_t> &NewFrontier) {
  // Resolved once: the registry lookup costs a string hash, which is
  // too expensive now that cache hits make expand() itself cheap.
  static obs::Counter TransCounter("symbolic.transactions");
  static obs::Counter HitCounter("symbolic.transactions.cached");
  ++TransCounter;

  // An empty stack language admits no configuration at all, hence no
  // transaction.  Unreachable through the real pipeline (rooted
  // languages are non-empty by construction), but cheap, and it keeps
  // the engine well-defined under the canonicalizer's
  // fa_testing::InjectMinimizeUnderRefine mutation.
  DfaId Lang = S[1 + I];
  if (Store.get(Lang).Start == CanonicalDfa::NoState)
    return true;
  unsigned R = Symmetry.rep(I);

  // Two cache levels: the (thread, language) saturation, then the root
  // record inside it.  A root hit replays the recorded charge schedule
  // interleaved with the successor insertions, so an engine with a
  // tight budget stores exactly the states -- and exhausts at exactly
  // the point -- a fresh re-expansion would.
  uint32_t SatIdx = UINT32_MAX;
  if (const uint32_t *Found = SatCache[R].find(Lang)) {
    SatIdx = *Found;
    SharedSats[SatIdx].LastUsed = Bound; // Generation touch (eviction).
    if (const uint32_t *Rec = SharedSats[SatIdx].Roots.find(S[0])) {
      ++HitCounter;
      return replayTransaction(Transactions[*Rec], S, I, NewFrontier);
    }
  }
  if (SatIdx == UINT32_MAX) {
    // Fresh language: one saturation serves every root that will ever
    // expand it, charged live (one step per saturation pop).
    uint64_t StepsBefore = Limits.steps();
    uint64_t Ts0 = obs::Trace::nowNs();
    SharedSaturationResult D = sharedPostStar(
        C.thread(R), C.numSharedStates(), Store.get(Lang), &Limits);
    uint64_t Ts1 = obs::Trace::nowNs();
    if (!D.Complete)
      return false;
    SatIdx = registerSaturation(R, Lang, std::move(D.Sat),
                                Limits.steps() - StepsBefore, Ts0, Ts1);
  }
  return extractRoot(SatIdx, S, I, NewFrontier);
}

/// Installs a completed saturation under (thread \p I, \p Lang) with
/// \p BaseSteps still to be charged to the first extracted root's
/// record; returns its SharedSats index.  Emits the "saturate" trace
/// span over [\p BeginNs, \p EndNs].
uint32_t SymbolicEngine::registerSaturation(unsigned I, DfaId Lang,
                                            SharedSaturation S,
                                            uint64_t BaseSteps,
                                            uint64_t BeginNs, uint64_t EndNs) {
  static obs::Histogram PopsPerSat("symbolic.pops_per_saturation");
  fault::checkAlloc();
  PopsPerSat.observe(BaseSteps);
  if (obs::Trace::enabled()) {
    obs::SpanArg Args[] = {{"thread", I},
                           {"lang", Lang},
                           {"pops", BaseSteps},
                           {"sat_states", S.numStates()},
                           {"bytes", S.memoryBytes()}};
    obs::Trace::span("saturate", obs::Trace::CatDet, BeginNs, EndNs, Args,
                     5);
  }
  uint32_t Idx = static_cast<uint32_t>(SharedSats.size());
  uint64_t Bytes = S.memoryBytes();
  SatBytes += Bytes;
  SharedSats.push_back(
      {std::move(S), BaseSteps, {}, I, Lang, Bound, {}, Bytes});
  SatCache[I].tryEmplace(Lang, Idx);
  // Fold the newly retained relation into the byte budget immediately.
  Limits.checkMemory(memoryUsage());
  return Idx;
}

/// A fresh per-root transaction on a saturated language: extracts root
/// S[0]'s successors from SharedSats[\p SatIdx] through its extraction
/// cache, then
/// per successor charge -> intern -> register, and records it under the
/// saturation's Roots[S[0]] (consuming the pending base charge into the
/// record).  Returns false on exhaustion, leaving the root unrecorded
/// with the successor prefix registered.
bool SymbolicEngine::extractRoot(uint32_t SatIdx, const uint32_t *S,
                                 unsigned I,
                                 std::vector<uint32_t> &NewFrontier) {
  static obs::Histogram Fanout("symbolic.extraction_fanout");
  static obs::Counter SkippedUnchanged("extract.skipped_unchanged");
  SharedSat &SS = SharedSats[SatIdx];
  std::vector<std::pair<QState, CanonicalDfa>> Langs;
  std::vector<uint64_t> Hashes;
  {
    obs::ScopedSpan Extract("extract", obs::Trace::CatDet);
    SkippedUnchanged += SS.S.extractRootCached(S[0], SS.Extract, Langs,
                                               Hashes);
    Extract.arg("thread", I);
    Extract.arg("root", S[0]);
    Extract.arg("fanout", Langs.size());
  }
  Fanout.observe(Langs.size());
  Transaction TR;
  TR.BaseSteps = SS.PendingBase; // First extracted root carries the base.
  SS.PendingBase = 0;
  // The per-successor charge is the size of the automaton the
  // canonicalization reads, identical for every target of one root.
  // Cache hits charge the same schedule a fresh extraction would --
  // only the wall time changes, never the budget.
  uint64_t Cost = SS.S.numStates();
  for (size_t K = 0; K < Langs.size(); ++K) {
    // Exhaustion mid-transaction leaves the root unrecorded: a prefix of
    // the successors was charged and registered, and the engine is
    // stopping anyway.
    if (!Limits.chargeStep(Cost))
      return false;
    QState Q2 = Langs[K].first;
    DfaId Lang = Store.intern(std::move(Langs[K].second), Hashes[K]);
    TR.Succs.push_back({Q2, Lang, Cost});
    if (!addSuccessor(S, I, Q2, Lang, NewFrontier))
      return false;
  }
  TrBytes += sizeof(Transaction) + static_cast<uint64_t>(TR.Succs.size()) *
                                       sizeof(Transaction::Succ);
  Transactions.push_back(std::move(TR));
  SS.Roots.tryEmplace(S[0], static_cast<uint32_t>(Transactions.size() - 1));
  return true;
}

/// The round's expansion sequence: every frontier state by every
/// thread its live producer mask allows, with budget charges, cache
/// hits, interning (DfaId assignment order) and successor
/// registration.  The "commit" span records the expansion count
/// (truncation point included).
SymbolicEngine::RoundStatus
SymbolicEngine::commitRound(std::vector<uint32_t> &NewFrontier) {
  obs::ScopedSpan Commit("commit", obs::Trace::CatDet);
  uint64_t Expansions = 0;
  for (uint32_t Id : Frontier) {
    const uint32_t *Row = Rows.row(Id);
    std::copy(Row, Row + Rows.width(), ParentBuf.begin());
    uint32_t Produced = Producers[Id];
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      // Skip the producer thread: its post* is transitively closed, so
      // re-expanding yields only language-subsumed rows.  Under a
      // symmetry, skip the rest of a run of equal languages too.
      if ((Produced & producerBit(I)) || repeatsRun(ParentBuf.data(), I))
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

/// Registers the row \p Row (if new) at round \p Round, recording its
/// visible projections; \p Producer is the expanding thread
/// (UINT32_MAX for the initial state).  Returns {isNew, budgetOk}.
std::pair<bool, bool>
SymbolicEngine::addState(const uint32_t *Row, unsigned Round,
                         uint32_t Producer,
                         std::vector<uint32_t> *NewFrontier) {
  static obs::Counter StateCounter("symbolic.states");
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
  // Both the state count and the byte budget are charged here, once per
  // new row.
  if (!Limits.chargeState())
    return {true, false};
  return {true, Limits.checkMemory(memoryUsage())};
}

/// Registers the successor of row \p S produced by thread \p I
/// reaching control state \p Q2 with language \p Lang: \p S with two
/// words patched, then \p I's class re-sorted (the parent row is
/// canonical) with the producer bit on the class's first column holding
/// \p Lang.  Returns false on budget exhaustion.
bool SymbolicEngine::addSuccessor(const uint32_t *S, unsigned I, QState Q2,
                                  DfaId Lang,
                                  std::vector<uint32_t> &NewFrontier) {
  std::copy(S, S + Rows.width(), SuccBuf.begin());
  SuccBuf[0] = Q2;
  SuccBuf[1 + I] = Lang;
  Symmetry.sortClassOf(I, SuccBuf.data() + 1);
  unsigned Producer = Symmetry.firstHolding(I, SuccBuf.data() + 1, Lang);
  return addState(SuccBuf.data(), Bound + 1, Producer, &NewFrontier)
      .second;
}

/// Replays the recorded transaction \p TR as an expansion of \p S by
/// thread \p I -- the cache-hit charge schedule (lump-sum base, then
/// one charge per successor, each interleaved with registration).
/// Returns false on budget exhaustion.
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

/// Records the visible projections T(tau) of the symbolic state row
/// \p Row, unless its tuple of top sets was recorded before.
void SymbolicEngine::recordVisible(const uint32_t *Row, unsigned Round) {
  // T(tau) = {q} x T(A_1) x ... x T(A_n)  (App. E, formula (4)),
  // enumerated once per tuple of top sets: a repeated tuple's words are
  // all recorded already, at a round no later than this one.  Permuting
  // a class's set ids permutes the product without changing its
  // canonical image, so the tuple is interned with its classes sorted.
  unsigned N = C.numThreads();
  TupleBuf[0] = Row[0];
  for (unsigned I = 0; I < N; ++I)
    TupleBuf[1 + I] = topSetOf(Symmetry.rep(I), Row[1 + I]);
  Symmetry.sortClasses(TupleBuf.data() + 1);
  if (!VisTuples.intern(TupleBuf.data(), VisTuples.hash(TupleBuf.data()))
           .second)
    return;
  // Odometer over the per-thread top sets, the last thread fastest.  A
  // thread continuing a run of its class's equal top sets starts at its
  // predecessor's index, so a run ranges over the multisets of its set:
  // the other arrangements are permutations of these.
  std::vector<const std::vector<Sym> *> Sets(N);
  std::vector<uint8_t> Cont(N, 0);
  std::vector<size_t> Idx(N, 0);
  for (unsigned I = 0; I < N; ++I) {
    Sets[I] = &TopsCache[Symmetry.rep(I)].Sets[TupleBuf[1 + I]];
    if (Sets[I]->empty())
      return; // Empty language row: no visible states (cannot happen).
    Cont[I] = repeatsRun(TupleBuf.data(), I);
    Idx[I] = Cont[I] ? Idx[Symmetry.prev(I)] : 0;
  }
  std::vector<Sym> Tops(N);
  while (true) {
    for (unsigned I = 0; I < N; ++I)
      Tops[I] = (*Sets[I])[Idx[I]];
    Symmetry.sortClasses(Tops.data());
    if (VisibleSeen.insertTops(Row[0], Tops.data(), Round)) {
      uint64_t Orbit = Symmetry.orbitSize(Tops.data());
      VisibleTotal = Orbit > UINT64_MAX - VisibleTotal ? UINT64_MAX
                                                       : VisibleTotal + Orbit;
    }
    // Advance the last index that can still grow; reset the later ones
    // to their least values, in thread order (a predecessor first).
    unsigned I = N;
    while (I > 0 && Idx[I - 1] + 1 == Sets[I - 1]->size())
      --I;
    if (I == 0)
      break;
    ++Idx[I - 1];
    for (; I < N; ++I)
      Idx[I] = Cont[I] ? Idx[Symmetry.prev(I)] : 0;
  }
}

/// Generation-based cache eviction, run only at round boundaries (end
/// of advance(), before the bound increments): while
/// the retained saturations exceed MaxCacheBytes, drop the ones with
/// the oldest LastUsed stamp — never one touched in the round just
/// committed — compacting SharedSats and Transactions in index order
/// and rebuilding the SatCache.  The schedule is a function of the
/// committed rounds alone.
void SymbolicEngine::evictSaturations() {
  uint64_t Budget = Limits.limits().MaxCacheBytes;
  if (!Budget || SatBytes <= Budget)
    return;
  static obs::Counter Evictions("symbolic.sat_evictions");
  // The eviction schedule is deterministic, so the span -- including
  // its evicted/retained figures -- is too.
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
    Retained -= SharedSats[Idx].Bytes;
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

/// The interned id of thread \p Thread's top set of the stack
/// language \p Lang (bottom marker reported as EpsSym); cached densely
/// by DfaId.  The set itself is TopsCache[Thread].Sets[id].
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

