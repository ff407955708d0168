//===-- core/SymbolicRounds.h - The symbolic round core ---------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The round loop of the symbolic procedure of Sec. 6 / App. E, over a
/// pluggable saturation domain.  State sets S_k are sets of *symbolic
/// states* <q | A_1..A_n>: a control state plus one regular stack
/// language per thread (the Qadeer-Rehof aggregate).  One round expands
/// each frontier symbolic state by each thread i: a post* saturation of
/// thread i's PDS (read with its built-in bottom marker, Pds::bottom)
/// from the rooted language yields, for every control state q'
/// reachable in that transaction, a successor symbolic state.
///
/// The core owns everything but the saturation: states, the language
/// arena, transaction record/replay, producer masks, the visible
/// bookkeeping and eviction.  A Domain supplies the rest:
///
///   using Sat, Cache;                the retained saturation (with
///                                    numStates() and memoryBytes()) and
///                                    its per-root extraction cache
///   static constexpr RoundNames Names;   metric and span names
///   QState numControlStates() const;     the range of row words 0
///   DomainSaturation<Sat> saturate(unsigned Thread,
///       const CanonicalDfa &Lang, LimitTracker *Limits) const;
///   DomainExtraction extract(const Sat &, Cache &, QState Root,
///       std::vector<ExtractedSucc> &Succs) const;
///
/// saturate charges one step per pop to \p Limits.  extract appends
/// root \p Root's successors and adds what it computed to the
/// saturation's cache; its successors must not depend on what the cache
/// held.  It returns how much of its work the cache already held and the
/// bytes the cache newly retains, which count toward both byte budgets
/// as the saturation's.  SymbolicEngine is the boolean root-mask
/// instantiation, DataflowEngine the GEN/KILL taint one.
///
/// Stack languages are stored as canonical minimal DFAs over the
/// bottom-extended alphabets, hash-consed into 32-bit DfaIds by a
/// DfaStore arena, so symbolic states are deduplicated by exact language
/// equality (a cheap sufficient alternative to the doubly-exponential
/// automata-equivalence convergence test the paper rules out for
/// Scheme 1).  A symbolic state is a row [q, A_1..A_n] of DfaIds in a
/// hash-consing StateRows table (support/StateRows.h), with O(threads)
/// equality and hashing; a successor is its parent row with q and one
/// language patched.  Expansion by a thread that produced the state is
/// skipped: the production was itself a post* closure, so re-running
/// the same thread adds only subsumed rows.  Producer sets are bit masks
/// over threads 0..31; a wider thread has no bit and so is never
/// skipped, which costs a redundant expansion and nothing else.
///
/// Caching: a transaction's successors depend only on (expanding
/// thread, root q, thread i's language), and one saturation serves
/// every root.  SatCache maps (thread, input DfaId) to the retained
/// saturation, and each saturation's per-root records replay previously
/// extracted transactions.  A replay charges the same step schedule the
/// original computation did (the first extracted root's record carries
/// the saturation's pop charge; every record carries its per-successor
/// extraction charges), so budget-sensitive behaviour stays
/// deterministic.
///
/// The visible projections T(S_k) are computed per App. E, formula (4):
/// the product of per-thread top-symbol sets extracted from the
/// automata, with the bottom marker reported as the empty stack.  Top
/// sets are interned to small per-thread ids, and a product is
/// enumerated only the first time its tuple (q, top set_1..top set_n)
/// appears: rounds only grow and the visible set keeps the earliest
/// round, so a repeated tuple's words are already recorded at a round no
/// later than the current one.
///
/// Rounds are serial at every `--jobs`: a round expands its frontier
/// in order, charging budgets, interning languages and registering
/// successors as it goes, so verdicts, first-seen rounds, budget
/// exhaustion points and DfaId assignment are functions of the input
/// and the limits alone.
///
/// Thread symmetry (pds/ThreadSymmetry.h): an engine keeps one row per
/// orbit of its symmetry's class permutations.  Each successor row is
/// canonicalized (its class's columns sorted) before interning, and its
/// producer bit goes to the first column of the class holding the
/// producer's language.  Equal languages sit in one run of a canonical
/// row, and expanding any column of a run yields permutations of what
/// expanding its first column yields, so only first columns are expanded
/// and a producer bit there skips the whole run.  A class shares one Pds, so the
/// saturation and top-set caches are keyed by the class representative.
/// Visible states are recorded in canonical form, each class's columns
/// with equal top sets enumerated as multisets, and visibleSize() adds
/// up their orbit sizes.  Because T(R_k) is closed under class
/// permutations, the visible interface stays exact: visibleSize() equals
/// the unreduced engine's, visibleOrbits() plateaus exactly when it
/// does, newVisibleThisRound() is the canonical image of its rounds, and
/// visibleReached canonicalizes its argument.  Under a symmetry without
/// classes (an engine built without a property) every row, key and
/// enumeration is the unreduced one.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_SYMBOLICROUNDS_H
#define CUBA_CORE_SYMBOLICROUNDS_H

#include <algorithm>
#include <chrono>
#include <map>
#include <vector>

#include "fa/Canonicalize.h"
#include "fa/DfaStore.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pds/Cpds.h"
#include "pds/ThreadSymmetry.h"
#include "pds/VisibleSet.h"
#include "support/FaultInject.h"
#include "support/FlatHash.h"
#include "support/Limits.h"
#include "support/StateRows.h"

namespace cuba {

/// The metric and span names one instantiation reports under.
struct RoundNames {
  const char *RoundSpan, *Rounds, *RoundMicros, *States, *Transactions,
      *TransactionsCached, *PopsPerSaturation, *ExtractionFanout,
      *SkippedUnchanged, *Evictions, *BytesHwm, *SatBytesHwm,
      *CacheEntriesHwm;
};

/// A domain saturation: the retained relation, and whether it ran to
/// fixpoint within the tracker's budget.
template <typename SatT> struct DomainSaturation {
  SatT Sat;
  bool Complete = true;
};

/// What one extraction found in and added to its saturation's cache:
/// the part of its work the cache already held, and the bytes the cache
/// newly retains.
struct DomainExtraction {
  uint64_t Reused = 0;
  uint64_t Bytes = 0;
};

/// One successor of a per-root extraction, staged before budget
/// charging and interning: control state, canonical language by value
/// with its structural hash, and the step charge for it.
struct ExtractedSucc {
  QState Q;
  CanonicalDfa D;
  uint64_t Hash;
  uint64_t StepCost;
};

/// Round-by-round symbolic CBA exploration over \p Domain; the interface
/// mirrors CbaEngine so the Alg. 3 driver can run over either engine.
template <typename Domain> class SymbolicRounds {
  using Sat = typename Domain::Sat;
  using Cache = typename Domain::Cache;

public:
  enum class RoundStatus { Ok, Exhausted };

  /// An engine over \p C whose rows are canonical under \p Symmetry's
  /// classes.
  SymbolicRounds(const Cpds &C, const ResourceLimits &Limits, Domain D,
                 ThreadSymmetry Symmetry)
      : C(C), Dom(std::move(D)), Limits(Limits),
        Symmetry(std::move(Symmetry)), Rows(1 + C.numThreads()),
        VisibleSeen(C, Dom.numControlStates()),
        VisTuples(1 + C.numThreads()), TopsCache(C.numThreads()),
        SatCache(C.numThreads()) {
    assert(C.frozen() && "the symbolic rounds require a frozen CPDS");
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

  /// The bound k whose set S_k is currently complete.
  unsigned bound() const { return Bound; }

  /// Advances from S_k to S_{k+1}.
  RoundStatus advance() {
    static obs::Counter Rounds(Domain::Names.Rounds);
    // Round latency varies with scheduling and machine load, so the
    // histogram sits on the wall side of the determinism split.
    static obs::Histogram RoundMicros(Domain::Names.RoundMicros,
                                      /*Deterministic=*/false);
    static obs::Gauge BytesHwm(Domain::Names.BytesHwm);
    static obs::Gauge SatBytesHwm(Domain::Names.SatBytesHwm);
    static obs::Gauge CacheEntriesHwm(Domain::Names.CacheEntriesHwm);
    ++Rounds;
    auto T0 = std::chrono::steady_clock::now();
    obs::ScopedSpan Round(Domain::Names.RoundSpan, obs::Trace::CatDet);
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

  /// Number of symbolic states stored (|S_k|; canonical rows under a
  /// symmetry).
  size_t symbolicStateCount() const { return Rows.size(); }

  /// |T(S_k)|: the sum of the recorded canonical states' orbit sizes,
  /// saturating at UINT64_MAX.
  size_t visibleSize() const { return VisibleTotal; }

  /// The number of orbits in T(S_k), i.e. of recorded canonical states.
  /// T(S_k) grows monotonically and is closed under the class
  /// permutations, so this count plateaus exactly when visibleSize()
  /// does; unlike the orbit sum it never saturates, so plateau tests use
  /// it.
  size_t visibleOrbits() const { return VisibleSeen.size(); }

  /// True when no new symbolic state was added by the last round: S has
  /// reached a fixpoint, so every R_k has been covered (the symbolic
  /// analogue of the Scheme 1 collapse test).
  bool frontierEmpty() const { return Frontier.empty() && Bound > 0; }

  /// Visible states first reached in the current round, sorted (their
  /// canonical forms under a symmetry).
  std::vector<VisibleState> newVisibleThisRound() const {
    return VisibleSeen.statesInRound(Bound);
  }

  bool visibleReached(const VisibleState &V) const {
    VisibleState W = V;
    Symmetry.canonicalize(W);
    return VisibleSeen.contains(W);
  }

  /// All reachable visible states with first-seen rounds, sorted by the
  /// VisibleState ordering (canonical forms under a symmetry).
  std::vector<std::pair<VisibleState, unsigned>> visibleFirstSeen() const {
    return VisibleSeen.sortedEntries();
  }

  const LimitTracker &limits() const { return Limits; }

  /// The language arena; exposed for statistics (number of distinct
  /// stack languages ever canonicalised).
  const DfaStore &languageStore() const { return Store; }

  /// Number of saturations currently retained; exposed for statistics
  /// and benches.  Under a MaxCacheBytes budget this can shrink at round
  /// boundaries as generations are evicted.
  size_t saturationCount() const { return SharedSats.size(); }

  /// Bytes retained by the saturation cache, extraction caches included
  /// (the MaxCacheBytes subject).
  uint64_t retainedSatBytes() const { return SatBytes; }

  /// Logical byte footprint of the engine-owned stores (language arena,
  /// state table and producer masks, retained saturations with their
  /// extraction caches, transaction records, visible tuples and set),
  /// derived from element counts so it is deterministic.
  uint64_t memoryUsage() const {
    return Store.memoryBytes() + Rows.memoryBytes() +
           static_cast<uint64_t>(Rows.size()) * sizeof(uint32_t) +
           VisTuples.memoryBytes() + SatBytes + TrBytes +
           static_cast<uint64_t>(VisibleSeen.size()) * VisibleEntryBytes;
  }

private:
  /// One cached per-root transaction: the successors an extraction
  /// produced plus the exact step-charge schedule of the original
  /// computation (the saturation's pop charge when this was the first
  /// root extracted -- zero afterwards -- then one charge per
  /// successor), so a replay charges the budget in the same order a
  /// fresh re-expansion would and exhausts at exactly the same point,
  /// states-added and all.
  struct Transaction {
    struct Succ {
      QState Q;
      DfaId Lang;
      uint64_t StepCost; // The charge for this successor's extraction.
    };
    std::vector<Succ> Succs;
    uint64_t BaseSteps = 0; // The saturation charge (first root only).
  };

  /// One saturation per (thread, input DfaId): the relation retained for
  /// lazy per-root extraction, the saturation charge still to be carried
  /// by the first root's record, and the per-root records extracted so
  /// far.  The key it was registered under and its last-touched round
  /// are kept for generation-based eviction (the SatCache rebuild needs
  /// the key back).
  struct SharedSat {
    Sat S;
    uint64_t PendingBase = 0;
    FlatMap<uint32_t, uint32_t> Roots; // root -> Transactions idx
    unsigned Thread = 0;
    DfaId InLang = 0;
    unsigned LastUsed = 0; // Round stamp, updated when a round touches it.
    /// The domain's per-root extraction cache, read and grown by each
    /// fresh root's extraction (extractRoot).  Evicted along with the
    /// saturation.
    Cache Extract;
    uint64_t Bytes = 0; // Its share of SatBytes, Extract's included.
  };

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

  /// Expands the symbolic state with row \p S (a caller-owned copy:
  /// interning successors may move the table) by thread \p I; new
  /// successors' ids are pushed onto NewFrontier.  Returns false on
  /// budget exhaustion.
  bool expand(const uint32_t *S, unsigned I,
              std::vector<uint32_t> &NewFrontier) {
    // Resolved once: the registry lookup costs a string hash, which is
    // too expensive now that cache hits make expand() itself cheap.
    static obs::Counter TransCounter(Domain::Names.Transactions);
    static obs::Counter HitCounter(Domain::Names.TransactionsCached);
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
      DomainSaturation<Sat> D = Dom.saturate(R, Store.get(Lang), &Limits);
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
  uint32_t registerSaturation(unsigned I, DfaId Lang, Sat S, uint64_t BaseSteps,
                              uint64_t BeginNs, uint64_t EndNs) {
    static obs::Histogram PopsPerSat(Domain::Names.PopsPerSaturation);
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
  /// S[0]'s successors from SharedSats[\p SatIdx] through its cache, then
  /// per successor charge -> intern -> register, and records it under the
  /// saturation's Roots[S[0]] (consuming the pending base charge into the
  /// record).  Returns false on exhaustion, leaving the root unrecorded
  /// with the successor prefix registered.
  bool extractRoot(uint32_t SatIdx, const uint32_t *S, unsigned I,
                   std::vector<uint32_t> &NewFrontier) {
    static obs::Histogram Fanout(Domain::Names.ExtractionFanout);
    static obs::Counter SkippedUnchanged(Domain::Names.SkippedUnchanged);
    SharedSat &SS = SharedSats[SatIdx];
    std::vector<ExtractedSucc> Succs;
    DomainExtraction Use;
    {
      obs::ScopedSpan Extract("extract", obs::Trace::CatDet);
      Use = Dom.extract(SS.S, SS.Extract, S[0], Succs);
      Extract.arg("thread", I);
      Extract.arg("root", S[0]);
      Extract.arg("fanout", Succs.size());
    }
    Fanout.observe(Succs.size());
    SkippedUnchanged += Use.Reused;
    Transaction TR;
    TR.BaseSteps = SS.PendingBase; // First extracted root carries the base.
    SS.PendingBase = 0;
    // What the cache newly retains joins the saturation's bytes, and so
    // the byte budget, at this same point.
    if (Use.Bytes) {
      SS.Bytes += Use.Bytes;
      SatBytes += Use.Bytes;
      if (!Limits.checkMemory(memoryUsage()))
        return false;
    }
    for (ExtractedSucc &PS : Succs) {
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
    TrBytes += sizeof(Transaction) + static_cast<uint64_t>(TR.Succs.size()) *
                                         sizeof(typename Transaction::Succ);
    Transactions.push_back(std::move(TR));
    SS.Roots.tryEmplace(S[0], static_cast<uint32_t>(Transactions.size() - 1));
    return true;
  }

  /// The round's expansion sequence: every frontier state by every
  /// thread its live producer mask allows, with budget charges, cache
  /// hits, interning (DfaId assignment order) and successor
  /// registration.  The "commit" span records the expansion count
  /// (truncation point included).
  RoundStatus commitRound(std::vector<uint32_t> &NewFrontier) {
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
  std::pair<bool, bool> addState(const uint32_t *Row, unsigned Round,
                                 uint32_t Producer,
                                 std::vector<uint32_t> *NewFrontier) {
    static obs::Counter StateCounter(Domain::Names.States);
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
  bool addSuccessor(const uint32_t *S, unsigned I, QState Q2, DfaId Lang,
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
  bool replayTransaction(const Transaction &TR, const uint32_t *S, unsigned I,
                         std::vector<uint32_t> &NewFrontier) {
    if (!Limits.chargeStep(TR.BaseSteps))
      return false;
    for (const typename Transaction::Succ &Succ : TR.Succs) {
      if (!Limits.chargeStep(Succ.StepCost))
        return false;
      if (!addSuccessor(S, I, Succ.Q, Succ.Lang, NewFrontier))
        return false;
    }
    return true;
  }

  /// Records the visible projections T(tau) of the symbolic state row
  /// \p Row, unless its tuple of top sets was recorded before.
  void recordVisible(const uint32_t *Row, unsigned Round) {
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
  void evictSaturations() {
    uint64_t Budget = Limits.limits().MaxCacheBytes;
    if (!Budget || SatBytes <= Budget)
      return;
    static obs::Counter Evictions(Domain::Names.Evictions);
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
                     sizeof(typename Transaction::Succ);
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
  uint32_t topSetOf(unsigned Thread, DfaId Lang) {
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

  /// The producer-mask bit of thread \p I; threads past 31 have none.
  static uint32_t producerBit(unsigned I) { return I < 32 ? 1u << I : 0u; }

  /// True when column \p I of the canonical row or tuple \p S continues
  /// a run: it equals the column of the thread before \p I in its class,
  /// whose expansion (or enumeration) stands for it.
  bool repeatsRun(const uint32_t *S, unsigned I) const {
    return Symmetry.repeatsPrev(I, S + 1);
  }

  const Cpds &C;
  Domain Dom;
  LimitTracker Limits;
  /// The symmetry rows are canonical under.
  const ThreadSymmetry Symmetry;
  unsigned Bound = 0;

  /// The hash-consing arena all per-thread languages live in.
  DfaStore Store;

  /// All symbolic states, one row [q, A_1..A_n] per dense id, with the
  /// set of threads that produced each (Producers, a bitmask indexed by
  /// id); states are expanded once, by every thread not in their mask.
  StateRows Rows;
  std::vector<uint32_t> Producers;
  /// Ids of the states first reached in the current round.
  std::vector<uint32_t> Frontier;
  VisibleRoundSet VisibleSeen;
  /// Every (q, top set_1..top set_n) tuple whose product recordVisible
  /// has enumerated.
  StateRows VisTuples;
  /// Row scratch: the parent of the expansion being committed, its
  /// successor and a visible tuple.
  std::vector<uint32_t> ParentBuf, SuccBuf, TupleBuf;

  /// Top-set cache: per thread, the distinct top sets (Sets, interned
  /// through SetIds) and each DfaId's set id plus one (SetOf, grown
  /// lazily to the arena size; 0 marks an entry not yet computed).
  struct TopsCacheEntry {
    std::vector<uint32_t> SetOf;
    std::vector<std::vector<Sym>> Sets;
    std::map<std::vector<Sym>, uint32_t> SetIds;
  };
  std::vector<TopsCacheEntry> TopsCache;

  /// Saturation cache: per thread, input DfaId -> index into
  /// SharedSats.  A hit skips the saturation entirely; the per-root
  /// records inside the entry skip the extraction too.
  std::vector<FlatMap<DfaId, uint32_t>> SatCache;
  std::vector<SharedSat> SharedSats;
  std::vector<Transaction> Transactions;

  /// Logical bytes per packed visible entry (word + first-seen round).
  static constexpr uint64_t VisibleEntryBytes = 16;
  /// The number of visible states the recorded canonical ones stand for
  /// (saturating).
  uint64_t VisibleTotal = 0;
  /// Running byte counts of the retained saturations (extraction caches
  /// included) and transaction records, so memoryUsage() is O(1).
  uint64_t SatBytes = 0;
  uint64_t TrBytes = 0;
};

} // namespace cuba

#endif // CUBA_CORE_SYMBOLICROUNDS_H
