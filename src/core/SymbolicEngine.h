//===-- core/SymbolicEngine.h - PSA-based symbolic engine -------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic context-bounded engine of Sec. 6 / App. E, used when the
/// system does not satisfy FCR and the sets R_k can be infinite.  State
/// sets S_k are sets of *symbolic states* <q | A_1..A_n>: a shared state
/// plus one regular stack language per thread (the Qadeer-Rehof
/// aggregate).  One round expands each frontier symbolic state by each
/// thread i: a post* saturation of thread i's PDS (read with its
/// built-in bottom marker, Pds::bottom) from the rooted language yields,
/// for every shared state q' reachable in that transaction, a successor
/// symbolic state.
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
/// Saturation layer: a transaction's successors depend only on
/// (expanding thread, shared root q, thread i's language), and the
/// saturation itself is shared across roots -- psa/SaturationEngine
/// saturates the multi-rooted input (one mirror row per shared state,
/// root masks on every transition) ONCE per (thread, input DfaId), and
/// per-root answers are extracted from the retained masked relation via
/// direct canonicalization (fa/Canonicalize, no complete-DFA detour).
/// The engine therefore keys its cache at two levels: SatCache maps
/// (thread, input DfaId) to the retained saturation, and each
/// saturation's per-root records replay previously extracted
/// transactions.  A replay charges the same step schedule the original
/// computation did (the first extracted root's record carries the
/// saturation's pop charge; every record carries its per-successor
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
/// Parallel rounds (setParallel): a round's transactions only interact
/// through the state-table / DfaStore interning and the budget, and their
/// *content* depends only on (thread, shared root, input language).  The
/// parallel path computes each distinct uncached (thread, input DfaId)
/// key's work speculatively across workers -- the shared saturation plus
/// the per-root extractions every frontier root of that key needs, all
/// against the frozen arena -- and then replays the round's (frontier,
/// thread) sequence serially, charging budgets and interning canonical
/// forms in exactly the serial order.  Keys repeated within the round
/// become cache hits at the replay, just as they do serially, so
/// verdicts, first-seen rounds, budget exhaustion points and DfaId
/// assignment are bit-identical to `--jobs 1` (pinned by
/// ParallelDeterminismTest).  Grouping by (thread, DfaId) instead of
/// (thread, root, DfaId) makes the speculative tasks fewer and larger --
/// better scaling for the same serial commit.
///
/// Round pipelining: a successor produced by thread P inherits every
/// other thread's language, so the saturation keys round k+1 will need
/// beyond round k's own are (P, A_P) for P in S's producer mask
/// -- exactly the expansions the mask rules out this round, known
/// before any of round k+1 exists.  Parallel rounds append those keys
/// to round k's speculative batch as uncharged prefetch tasks
/// (saturation only, no roots yet); round k+1's phase 1 adopts a
/// prefetched saturation instead of recomputing it, and unconsumed
/// prefetches are dropped after one round.  Budgets are only ever
/// charged at the serial commit of the round that actually consumes
/// the work, and a saturation's pop count, byte peak and content are
/// deterministic per (thread, language), so pipelining shifts wall
/// time only -- every committed figure stays bit-identical to the
/// serial path.  The serial path never prefetches.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_SYMBOLICENGINE_H
#define CUBA_CORE_SYMBOLICENGINE_H

#include <map>
#include <vector>

#include "exec/ThreadPool.h"
#include "fa/DfaStore.h"
#include "pds/Cpds.h"
#include "pds/VisibleSet.h"
#include "psa/SaturationEngine.h"
#include "support/FlatHash.h"
#include "support/Limits.h"
#include "support/StateRows.h"

namespace cuba {

/// Round-by-round symbolic CBA exploration; the interface mirrors
/// CbaEngine so the Alg. 3 driver can run over either engine.
class SymbolicEngine {
public:
  enum class RoundStatus { Ok, Exhausted };

  SymbolicEngine(const Cpds &C, const ResourceLimits &Limits);

  /// The bound k whose set S_k is currently complete.
  unsigned bound() const { return Bound; }

  /// Advances from S_k to S_{k+1}.
  RoundStatus advance();

  /// Number of symbolic states stored (|S_k|).
  size_t symbolicStateCount() const { return Rows.size(); }

  /// |T(S_k)|.
  size_t visibleSize() const { return VisibleSeen.size(); }

  /// True when no new symbolic state was added by the last round: S has
  /// reached a fixpoint, so every R_k has been covered (the symbolic
  /// analogue of the Scheme 1 collapse test).
  bool frontierEmpty() const { return Frontier.empty() && Bound > 0; }

  /// Visible states first reached in the current round, sorted.
  std::vector<VisibleState> newVisibleThisRound() const {
    return VisibleSeen.statesInRound(Bound);
  }

  bool visibleReached(const VisibleState &V) const {
    return VisibleSeen.contains(V);
  }

  /// All reachable visible states with first-seen rounds, sorted by the
  /// VisibleState ordering.
  std::vector<std::pair<VisibleState, unsigned>> visibleFirstSeen() const {
    return VisibleSeen.sortedEntries();
  }

  const LimitTracker &limits() const { return Limits; }

  /// The language arena; exposed for statistics (number of distinct
  /// stack languages ever canonicalised).
  const DfaStore &languageStore() const { return Store; }

  /// Number of shared saturations currently retained; exposed for
  /// statistics and benches.  Under a MaxCacheBytes budget this can
  /// shrink at round boundaries as generations are evicted.
  size_t saturationCount() const { return SharedSats.size(); }

  /// Bytes retained by the saturation cache (the MaxCacheBytes subject).
  uint64_t retainedSatBytes() const { return SatBytes; }

  /// Logical byte footprint of the engine-owned stores (language arena,
  /// state table and producer masks, retained saturations, transaction
  /// records, visible tuples and set), derived from element counts so
  /// the figure is deterministic at any `--jobs`.
  uint64_t memoryUsage() const {
    return Store.memoryBytes() + Rows.memoryBytes() +
           static_cast<uint64_t>(Rows.size()) * sizeof(uint32_t) +
           VisTuples.memoryBytes() + SatBytes + TrBytes +
           static_cast<uint64_t>(VisibleSeen.size()) * VisibleEntryBytes;
  }

  /// Fans subsequent rounds' transactions out across \p Pool's workers
  /// (nullptr, or a one-job pool, restores the serial path).  Results
  /// are bit-identical either way; the pool must outlive the engine or
  /// the next setParallel call.
  void setParallel(exec::ThreadPool *Pool) {
    this->Pool = Pool && Pool->jobs() > 1 ? Pool : nullptr;
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

  /// One shared saturation per (thread, input DfaId): the masked
  /// relation retained for lazy per-root extraction, the saturation
  /// charge still to be carried by the first root's record, and the
  /// per-root records extracted so far.  The key it was registered
  /// under and its last-touched round are kept for generation-based
  /// eviction (the SatCache rebuild needs the key back).
  struct SharedSat {
    SharedSaturation Sat;
    uint64_t PendingBase = 0;
    FlatMap<uint32_t, uint32_t> Roots; // shared root -> Transactions idx
    unsigned Thread = 0;
    DfaId InLang = 0;
    unsigned LastUsed = 0; // Round stamp, updated at serial touch points.
    /// Interned per-root extraction state (root classes and per-target
    /// canonical forms); read concurrently by speculative extractions,
    /// mutated only at the serial commit (commitRootExtraction), so its
    /// content -- and the skipped-target counter derived from it -- is
    /// identical at any job count.  Evicted along with the saturation;
    /// like TopsCache, a derived index outside the byte budgets.
    SharedSaturation::ExtractionCache Extract;
  };

  /// A per-root extraction staged before budget charging and interning:
  /// canonical successor languages by value with their structural
  /// hashes and charge schedule.  Shared by the serial fresh path and
  /// the parallel speculative phase.  The trace fields record where and
  /// when the extraction actually ran (a worker in parallel rounds);
  /// the serial commit emits the "extract" span from them, so span
  /// *content* stays identical at any job count while the attribution
  /// is honest.
  struct PendingExtraction {
    struct PSucc {
      QState Q;
      CanonicalDfa D;
      uint64_t Hash;
      uint64_t StepCost;
    };
    std::vector<PSucc> Succs;
    /// The cached-extraction payload: committed into the owning
    /// SharedSat's ExtractionCache at the serial commit, where the
    /// already-present targets are counted as extract.skipped_unchanged.
    SharedSaturation::RootExtraction X;
    uint64_t TsBegin = 0;
    uint64_t TsEnd = 0;
    uint32_t Worker = 0;
  };

  /// One distinct (thread, input DfaId) unit of speculative work in a
  /// parallel round: the shared saturation (unless already cached) plus
  /// the extraction of every root the round's frontier asks of it.
  struct PendingSat {
    unsigned Thread = 0;
    DfaId InLang = 0;
    uint32_t CachedSat = UINT32_MAX; // SharedSats index when pre-cached.
    /// True when a prior round's prefetch already saturated this key:
    /// Sat / BaseSteps / PeakSatBytes / Complete and the trace
    /// attribution were adopted at phase 1, and the speculative phase
    /// runs only the per-root extractions.
    bool Prefilled = false;
    uint64_t BaseSteps = 0;
    /// Peak in-flight footprint the speculative saturation sampled, and
    /// whether it ran to fixpoint under the MaxBytes budget.  The serial
    /// commit replays the peak against the live tracker: max-folding is
    /// order-insensitive, so the tracker ends bit-identical to a serial
    /// run that sampled every pop itself.
    uint64_t PeakSatBytes = 0;
    bool Complete = true;
    SharedSaturation Sat; // Valid when CachedSat == UINT32_MAX.
    std::vector<QState> Roots;
    FlatMap<uint32_t, uint32_t> RootIdx; // root -> Extr index
    std::vector<PendingExtraction> Extr;
    /// Task-local extraction overlay: roots of one speculative task
    /// extract in frontier order and accumulate their fresh targets
    /// here, so later roots reuse earlier ones' canonical forms exactly
    /// as the serial path's live cache would let them.  Discarded after
    /// the round; the real cache is populated by the serial commit.
    SharedSaturation::ExtractionCache SpecCache;
    /// Trace attribution of the speculative saturation (see
    /// PendingExtraction): emitted by the serial commit's
    /// registerSaturation.
    uint64_t TsBegin = 0;
    uint64_t TsEnd = 0;
    uint32_t Worker = 0;
  };

  /// One saturation computed a round ahead of need (see the round
  /// -pipelining model above): the same uncharged recorder figures a
  /// speculative task produces, without any roots -- those arrive with
  /// the round that consumes it.  Held outside every budget and cache
  /// until adopted by a PendingSat (Prefilled) or dropped.
  struct PrefetchedSat {
    unsigned Thread = 0;
    DfaId InLang = 0;
    uint64_t BaseSteps = 0;
    uint64_t PeakSatBytes = 0;
    bool Complete = true;
    SharedSaturation Sat;
    uint64_t TsBegin = 0;
    uint64_t TsEnd = 0;
    uint32_t Worker = 0;
  };

  /// Expands the symbolic state with row \p S (a caller-owned copy:
  /// interning successors may move the table) by thread \p I; new
  /// successors' ids are pushed onto NewFrontier.  Returns false on
  /// budget exhaustion.
  bool expand(const uint32_t *S, unsigned I,
              std::vector<uint32_t> &NewFrontier);

  /// Installs a completed saturation under (thread \p I, \p Lang) with
  /// \p BaseSteps still to be charged to the first extracted root's
  /// record; returns its SharedSats index.  A serial commit point in
  /// both round paths: emits the "saturate" trace span with the
  /// recorded [\p BeginNs, \p EndNs] x \p Worker attribution.
  uint32_t registerSaturation(unsigned I, DfaId Lang, SharedSaturation Sat,
                              uint64_t BaseSteps, uint64_t BeginNs,
                              uint64_t EndNs, uint32_t Worker);

  /// Extracts root \p Root's canonical successor languages (with
  /// structural hashes and charge schedule) from \p Sat, probing
  /// \p Committed (the saturation's serially committed extraction
  /// cache) and \p Overlay (a task-local accumulation cache, populated
  /// here when non-null) read-only; only targets neither holds are
  /// canonicalized.  Output is byte-identical to a cache-less
  /// extraction.  Shared by the serial fresh path and the parallel
  /// speculative phase.
  void extractRootPending(const SharedSaturation &Sat,
                          const SharedSaturation::ExtractionCache *Committed,
                          SharedSaturation::ExtractionCache *Overlay,
                          QState Root, PendingExtraction &P) const;

  /// The budget-charging tail of a fresh per-root extraction --
  /// per-successor charge -> intern -> register, then record it under
  /// SharedSats[\p SatIdx].Roots[\p Root] (consuming the saturation's
  /// pending base charge into the record).  Sharing this sequence
  /// between the serial path and the parallel commit is what keeps the
  /// two bit-identical by construction.  Returns false on exhaustion,
  /// leaving the root unrecorded with the successor prefix registered.
  bool commitRootExtraction(uint32_t SatIdx, PendingExtraction &P,
                            const uint32_t *S, unsigned I,
                            std::vector<uint32_t> &NewFrontier);

  /// The serial round loop (the original expand() sequence).
  RoundStatus advanceRoundSerial(std::vector<uint32_t> &NewFrontier);

  /// The parallel round: speculative per-(thread, DfaId) saturations and
  /// extractions, then a serial ordered replay.  Observable behaviour
  /// identical to advanceRoundSerial.
  RoundStatus advanceRoundParallel(std::vector<uint32_t> &NewFrontier);

  /// Computes \p P's saturation (unless cached) and per-root
  /// extractions against the frozen arena (parallel phase; must not
  /// touch engine state).  \p Worker is recorded for trace attribution
  /// only.
  void computePendingSat(PendingSat &P, uint32_t Worker) const;

  /// Saturates \p P's key against the frozen arena with an uncharged
  /// recorder (parallel phase; must not touch engine state).  The
  /// saturation half of computePendingSat, run one round early.
  void computePrefetch(PrefetchedSat &P, uint32_t Worker) const;

  /// Registers the row \p Row (if new) at round \p Round, recording its
  /// visible projections; \p Producer is the expanding thread
  /// (UINT32_MAX for the initial state).  Returns {isNew, budgetOk}.
  std::pair<bool, bool> addState(const uint32_t *Row, unsigned Round,
                                 uint32_t Producer,
                                 std::vector<uint32_t> *NewFrontier);

  /// Registers the successor of row \p S produced by thread \p I
  /// reaching shared state \p Q2 with language \p Lang: \p S with two
  /// words patched.  Returns false on budget exhaustion.
  bool addSuccessor(const uint32_t *S, unsigned I, QState Q2, DfaId Lang,
                    std::vector<uint32_t> &NewFrontier);

  /// Replays the recorded transaction \p TR as an expansion of \p S by
  /// thread \p I -- the cache-hit charge schedule (lump-sum base, then
  /// one charge per successor, each interleaved with registration).
  /// Shared by the serial hit path and the parallel commit so the two
  /// cannot drift apart.  Returns false on budget exhaustion.
  bool replayTransaction(const Transaction &TR, const uint32_t *S,
                         unsigned I, std::vector<uint32_t> &NewFrontier);

  /// Records the visible projections T(tau) of the symbolic state row
  /// \p Row, unless its tuple of top sets was recorded before.
  void recordVisible(const uint32_t *Row, unsigned Round);

  /// Generation-based cache eviction, run only at serial round
  /// boundaries (end of advance(), before the bound increments): while
  /// the retained saturations exceed MaxCacheBytes, drop the ones with
  /// the oldest LastUsed stamp — never one touched in the round just
  /// committed — compacting SharedSats and Transactions in index order
  /// and rebuilding the SatCache.  Everything here is a deterministic
  /// function of serially committed state, so the eviction schedule is
  /// bit-identical at any `--jobs` (pinned by ParallelDeterminismTest).
  void evictSaturations();

  /// The interned id of thread \p Thread's top set of the stack
  /// language \p Lang (bottom marker reported as EpsSym); cached densely
  /// by DfaId.  The set itself is TopsCache[Thread].Sets[id].
  uint32_t topSetOf(unsigned Thread, DfaId Lang);

  /// The producer-mask bit of thread \p I; threads past 31 have none.
  static uint32_t producerBit(unsigned I) { return I < 32 ? 1u << I : 0u; }

  const Cpds &C;
  LimitTracker Limits;
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
  /// SharedSats.  A hit skips the post* saturation entirely; the
  /// per-root records inside the entry skip the extraction too.
  std::vector<FlatMap<DfaId, uint32_t>> SatCache;
  std::vector<SharedSat> SharedSats;
  std::vector<Transaction> Transactions;

  /// The pipeline buffer: saturations prefetched by the previous
  /// parallel round for this round's phase 1 to adopt, with a per
  /// -thread key index.  Replaced wholesale each parallel round
  /// (unconsumed entries are dropped); always empty on the serial path.
  std::vector<PrefetchedSat> Prefetch;
  std::vector<FlatMap<DfaId, uint32_t>> PrefetchIdx;

  /// Logical bytes per packed visible entry (word + first-seen round).
  static constexpr uint64_t VisibleEntryBytes = 16;
  /// Running byte counts of the retained saturations and transaction
  /// records (kept incrementally so memoryUsage() is O(1)).
  uint64_t SatBytes = 0;
  uint64_t TrBytes = 0;

  /// Parallel execution (null on the serial path).
  exec::ThreadPool *Pool = nullptr;
};

} // namespace cuba

#endif // CUBA_CORE_SYMBOLICENGINE_H
