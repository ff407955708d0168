//===-- core/CbaEngine.h - Explicit context-bounded engine -------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicit-state computation of the sets R_k of global states reachable
/// within k contexts (Sec. 2.3), one context bound per round:
///
///   R_0     = { initial state }
///   R_{k+1} = union over s in R_k and threads i of closure_i(s),
///
/// where closure_i(s) is the set of states reachable from s by letting
/// thread i run alone (this is the union in the proof of Thm. 17; a
/// context is a maximal single-thread block, and closures include their
/// start state, so "at most k contexts" is preserved exactly).
///
/// Explicit storage is feasible exactly when the system satisfies finite
/// context reachability (Sec. 5); for other systems the per-context
/// closure can diverge, which the resource budget turns into an
/// "exhausted" result.
///
/// Data plane: a state is a row [q, w1..wn] of interned 32-bit stack
/// ids (pds/StackStore.h) in one hash-consing StateRows table
/// (support/StateRows.h) that assigns dense state ids.  A successor is
/// its parent row with q and one stack id patched, so deriving, hashing
/// and storing it costs O(threads) words and no allocation of its own.
/// Per-closure visited sets are epoch stamps on the dense state ids --
/// no per-round hashing at all.  T(R_k) is kept packed in single words
/// (pds/VisibleSet.h).
///
/// Frontier optimisation: only states first reached in round k are
/// expanded in round k+1; closures of older states were already expanded
/// in their discovery round (their closure is idempotent and monotone),
/// so R_k is computed exactly.  bench_ablation_frontier measures the
/// effect; setExpandAll(true) disables it.
///
/// One closure loop: the merged BFS of a thread's closure is processed
/// level by level -- the queue of a serial BFS is the concatenation of
/// its levels, each in the append order of the previous one.  A level
/// is expanded in place on the driver thread unless a pool is set
/// (setParallel) and it holds at least MinParallelLevel parents; such a
/// level fans its successor derivation out across the workers (each
/// with a StackOverlay over the frozen stack arena, probing the frozen
/// state table) and is then committed in one serial pass over the
/// per-chunk candidate lists in level order, which translates overlay
/// stacks, interns rows in candidate order and charges the budget at
/// exactly the points the in-place expansion does.  State ids, budget
/// figures and first-seen rounds are therefore bit-identical for any
/// job count and any dispatch threshold; see ParallelDeterminismTest
/// and BUILDING.md.  Small levels stay in place because their data sits
/// in the driver core's cache: dispatching them costs more in wake-ups
/// and cache misses than the workers save (MinParallelLevel records the
/// measured crossover).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_CBAENGINE_H
#define CUBA_CORE_CBAENGINE_H

#include <memory>
#include <vector>

#include "exec/WorkerLocal.h"
#include "pds/Cpds.h"
#include "pds/StackStore.h"
#include "pds/VisibleSet.h"
#include "support/Limits.h"
#include "support/StateRows.h"

namespace cuba {

/// One step of a reconstructed counterexample: thread \p Thread fired
/// the action labelled \p Label, reaching \p State.
struct TraceStep {
  unsigned Thread = 0;
  std::string Label;
  GlobalState State;
};

/// Round-by-round explicit CBA exploration.
class CbaEngine {
public:
  enum class RoundStatus {
    Ok,        ///< The round completed; R_{k+1} is exact.
    Exhausted, ///< The resource budget ran out mid-round.
  };

  CbaEngine(const Cpds &C, const ResourceLimits &Limits);

  /// The bound k whose set R_k is currently complete.
  unsigned bound() const { return Bound; }

  /// Advances from R_k to R_{k+1}.
  RoundStatus advance();

  /// |R_k| for the current bound.
  size_t reachedSize() const { return Rows.size(); }

  /// |T(R_k)| for the current bound.
  size_t visibleSize() const { return VisibleSeen.size(); }

  /// |T(R_k)| again: the explicit engine keeps every state, so each
  /// orbit is a single one (the symbolic engine's plateau count).
  size_t visibleOrbits() const { return visibleSize(); }

  /// True when the last round stored no new state: R_{k-1} = R_k.
  bool frontierEmpty() const { return Frontier.empty(); }

  /// The frontier R_k \ R_{k-1}: states first reached in the current
  /// round (the initial state for k = 0), materialised from the arena.
  std::vector<GlobalState> frontier() const;

  /// Visible states first reached in the current round, sorted (the
  /// T(R_k) \ T(R_{k-1}) column of Fig. 1).
  std::vector<VisibleState> newVisibleThisRound() const {
    return VisibleSeen.statesInRound(Bound);
  }

  /// All reachable visible states so far with the round each was first
  /// seen in, sorted by the VisibleState ordering.
  std::vector<std::pair<VisibleState, unsigned>> visibleFirstSeen() const {
    return VisibleSeen.sortedEntries();
  }

  /// True when \p V has been reached within the current bound.
  bool visibleReached(const VisibleState &V) const {
    return VisibleSeen.contains(V);
  }

  /// The layout of the packed words below; the word queries require
  /// visiblePacker().packable().
  const VisiblePacker &visiblePacker() const { return VisibleSeen.packer(); }

  /// newVisibleThisRound() as packed words, unsorted.
  std::span<const uint64_t> newVisibleWordsThisRound() const {
    return VisibleSeen.wordsFirstSeenIn(Bound);
  }

  /// visibleReached() for a packed word.
  bool visibleWordReached(uint64_t W) const {
    return VisibleSeen.containsWord(W);
  }

  /// When true, every known state is re-expanded each round instead of
  /// only the frontier (the ablation baseline; results are identical).
  void setExpandAll(bool B) { ExpandAll = B; }

  /// Levels smaller than this are expanded in place even with a pool.
  /// The measured crossover (BST-Insert 3+3, Release, 4-vCPU host, jobs
  /// 4, medians of interleaved runs): dispatching the levels of 32K-64K
  /// parents cost 8% to k = 24 (355K states) and saved 6% to k = 40
  /// (3.06M states, within noise); dispatching those of 64K and up saved
  /// 11% to k = 40.
  static constexpr size_t MinParallelLevel = 65536;

  /// Fans levels of at least \p MinLevel parents out across \p Pool's
  /// workers (nullptr, or a one-job pool, expands every level in place).
  /// Results are bit-identical either way; the pool must outlive the
  /// engine or the next setParallel call.  Tests pass a \p MinLevel of 1
  /// to dispatch every level.
  void setParallel(exec::ThreadPool *Pool,
                   size_t MinLevel = MinParallelLevel);

  const LimitTracker &limits() const { return Limits; }

  /// Logical byte footprint of the engine-owned stores (stack arena,
  /// state table, metadata, visible set), derived from element counts
  /// so the figure is deterministic at any `--jobs`.
  uint64_t memoryUsage() const {
    return stateBytes() + Store.memoryBytes() +
           static_cast<uint64_t>(VisibleSeen.size()) * VisibleEntryBytes;
  }

  /// Reconstructs a run from the initial state to the earliest-found
  /// state whose projection equals \p V: the initial state as step 0
  /// (with an empty label), then one step per fired action.  Empty when
  /// \p V was never reached.  First-discovery parent edges guarantee a
  /// run within the state's discovery bound.
  std::vector<TraceStep> traceToVisible(const VisibleState &V) const;

private:
  /// Discovery metadata per stored state, indexed by the dense state id:
  /// round (drives the frontier pruning rule), BFS parent and the
  /// (thread, action) edge that first reached it (drive traces).
  struct StateInfo {
    unsigned Round = 0;
    uint32_t Parent = UINT32_MAX; // Id of the predecessor state.
    unsigned Thread = 0;
    uint32_t ActionIdx = 0;
  };

  /// One thread step out of a state: the action and the patched words.
  struct Step {
    uint32_t ActionIdx;
    QState Q;
    StackId W;
  };

  /// Closes the seeds under thread \p I's steps, one BFS level at a
  /// time, appending the states it discovers to \p NewFrontier.
  RoundStatus closeUnderThread(unsigned I, const std::vector<uint32_t> &Seeds,
                               std::vector<uint32_t> &NewFrontier);

  /// Expands \p Level in place on the calling thread, appending the next
  /// level's ids to \p Next; \p SkipOwn replays the seeds discoveredBy
  /// thread \p I by their charge alone.
  RoundStatus expandLevel(unsigned I, const std::vector<uint32_t> &Level,
                          bool SkipOwn, std::vector<uint32_t> &NewFrontier,
                          std::vector<uint32_t> &Next);

  /// True when thread \p I's closure discovered state \p Id in the
  /// previous round (the initial state has no discoverer): it expanded
  /// the state then, so every thread-I successor is already stored.
  bool discoveredBy(uint32_t Id, unsigned I) const {
    const StateInfo &S = Info[Id];
    return S.Round == Bound && S.Thread == I && S.Parent != UINT32_MAX;
  }

  /// The number of thread-\p I steps out of state \p Id, what the
  /// expansion charges for it, from the action index alone.
  template <typename StoreT>
  size_t ownSuccessorCount(uint32_t Id, unsigned I,
                           const StoreT &S) const {
    const uint32_t *Row = Rows.row(Id);
    return C.thread(I).actionsFrom(Row[0], S.topOf(Row[1 + I])).size();
  }

  /// One successor surfaced by the parallel derive phase: its parent's
  /// row with q' and thread I's stack w' patched in.  Known candidates
  /// name a state that was already stored when the level's derive began;
  /// for new ones, w' may be an overlay id until the commit translates
  /// it.  Workers precompute what the serial commit would otherwise
  /// hash: the row hash (valid only when w' is a base id, i.e.
  /// translate() is the identity) and the packed visible word (tops are
  /// translation-invariant, so it is valid whenever the system packs at
  /// all).
  struct Candidate {
    uint64_t Hash = 0;
    uint64_t VisWord = 0;
    QState Q = 0;
    StackId W = 0;
    uint32_t ActionIdx = 0;
    uint32_t KnownId = UINT32_MAX;
    uint8_t HasHash = 0;
    uint8_t HasVis = 0;
  };

  /// Output of one derive chunk: per-parent successor counts (the
  /// serial charge schedule) plus the filtered candidate list, with
  /// CandEnd[i] delimiting parent i's candidates.  Self-delimiting, so
  /// commits concatenate chunks in index order regardless of where the
  /// grain cut the level.  Padded to a cache line: adjacent chunks'
  /// vector headers are written by different workers on every push.
  struct alignas(64) ChunkOut {
    unsigned Worker = 0;
    std::vector<std::pair<uint32_t, uint32_t>> Parents; // (id, succs)
    std::vector<uint32_t> CandEnd;
    std::vector<Candidate> Cands;
  };

  /// Per-worker derive scratch; the overlay is rebased once per level
  /// (Gen tracks which level it is valid for) and must stay alive until
  /// that level's commit has translated every candidate out of it.
  struct DeriveScratch {
    StackOverlay Overlay;
    uint64_t Gen = 0;
    std::vector<Step> Steps;
    std::vector<uint32_t> Row;
    std::vector<Sym> TopsBuf;
  };

  /// expandLevel's dispatched counterpart: derives \p Level on the pool,
  /// then commits it.  Identical observable behaviour, pinned by
  /// ParallelDeterminismTest.
  RoundStatus dispatchLevel(unsigned I, const std::vector<uint32_t> &Level,
                            bool SkipOwn, std::vector<uint32_t> &NewFrontier,
                            std::vector<uint32_t> &Next);

  /// Derives successors of Level[Begin..End) by thread \p I into \p Out,
  /// reading only state frozen for the level (arenas, table, marks).
  void deriveChunk(unsigned Worker, ChunkOut &Out, unsigned I,
                   const std::vector<uint32_t> &Level, bool SkipOwn,
                   size_t Begin, size_t End);

  /// Commits one derived level in a single serial pass, in candidate
  /// order: per parent, the step charge; per candidate, the overlay
  /// translation, the intern and, for a new state, its metadata and
  /// charges.  Appends the next level's ids to \p Next.
  RoundStatus commitLevel(unsigned I, std::vector<uint32_t> &NewFrontier,
                          std::vector<uint32_t> &Next, size_t NumChunks);

  /// Records the discovery metadata of the freshly interned state \p Id;
  /// the caller records its visible projection.
  void appendState(uint32_t Id, unsigned Round, uint32_t Parent,
                   unsigned Thread, uint32_t ActionIdx) {
    assert(Id == Info.size() && "state ids must be dense");
    (void)Id;
    Info.push_back({Round, Parent, Thread, ActionIdx});
    LocalMark.push_back(0);
  }

  /// Byte footprint of the per-state stores alone: the state table plus
  /// the per-id metadata, a pure function of the state count, so it is
  /// safe to probe at every state commit -- unlike the stack arena and
  /// visible set, whose mid-closure contents differ between inline and
  /// dispatched levels (an inline level interns successor stacks per
  /// parent and inserts visible words immediately; a dispatched one
  /// translates per candidate and batch-flushes).  Those are folded in
  /// through CommittedArenaBytes, refreshed only at closure boundaries
  /// where the paths agree.
  uint64_t stateBytes() const {
    return Rows.memoryBytes() +
           static_cast<uint64_t>(Rows.size()) * PerStateBytes;
  }

  /// Charges one new state against both the count and byte budgets.
  bool chargeNewState() {
    if (!Limits.chargeState())
      return false;
    return Limits.checkMemory(stateBytes() + CommittedArenaBytes);
  }

  /// Refreshes CommittedArenaBytes and re-probes the byte budget.  Call
  /// only at closure/round boundaries (see stateBytes).
  bool checkMemoryAtBoundary() {
    CommittedArenaBytes =
        Store.memoryBytes() +
        static_cast<uint64_t>(VisibleSeen.size()) * VisibleEntryBytes;
    return Limits.checkMemory(stateBytes() + CommittedArenaBytes);
  }

  /// Records the visible projection of state row \p Row, first seen in
  /// round \p Round.
  void recordVisible(const uint32_t *Row, unsigned Round) {
    for (unsigned T = 0; T < TopsBuf.size(); ++T)
      TopsBuf[T] = Store.topOf(Row[1 + T]);
    VisibleSeen.insertTops(Row[0], TopsBuf.data(), Round);
  }

  /// Loads state \p Id's row into \p Row (an intern may move the table,
  /// so successors are patched into this copy).
  void loadRow(uint32_t Id, std::vector<uint32_t> &Row) const {
    const uint32_t *R = Rows.row(Id);
    Row.assign(R, R + Rows.width());
  }

  /// Logical bytes per packed visible entry (word + first-seen round).
  static constexpr uint64_t VisibleEntryBytes = 16;
  /// Logical bytes of per-id metadata per stored state (Info, LocalMark).
  static constexpr uint64_t PerStateBytes =
      sizeof(StateInfo) + sizeof(uint32_t);

  const Cpds &C;
  LimitTracker Limits;
  unsigned Bound = 0;
  bool ExpandAll = false;
  /// Stack-arena + visible-set bytes as of the last closure boundary.
  uint64_t CommittedArenaBytes = 0;

  /// The interning arena all stack ids below refer to.
  StackStore Store;
  /// R_k: one row [q, w1..wn] per state, dense ids in discovery order.
  StateRows Rows;
  /// Per-state discovery metadata, indexed by state id.
  std::vector<StateInfo> Info;
  /// Ids of the states first reached in the current round.
  std::vector<uint32_t> Frontier;
  /// T(R_k) with first-seen rounds, packed.
  VisibleRoundSet VisibleSeen;

  /// Per-closure visited stamps: LocalMark[id] == Epoch iff id was
  /// traversed by the closure currently running (the merged-BFS local
  /// set that makes the frontier optimisation exact).
  std::vector<uint32_t> LocalMark;
  uint32_t Epoch = 0;

  /// Scratch buffers reused across rounds.
  std::vector<Step> StepsBuf;
  std::vector<uint32_t> RowBuf;
  std::vector<Sym> TopsBuf;
  std::vector<uint32_t> LevelBuf, NextLevelBuf;

  /// Level dispatch (no pool: every level is expanded in place).
  exec::ThreadPool *Pool = nullptr;
  size_t MinDispatchLevel = MinParallelLevel;
  std::unique_ptr<exec::WorkerLocal<DeriveScratch>> Scratch;
  uint64_t DeriveGen = 0;
  std::vector<ChunkOut> ChunksBuf;
  /// Visible words of states appended by dispatched commits, flushed in
  /// one batch per closure.
  std::vector<uint64_t> VisBatch;
};

} // namespace cuba

#endif // CUBA_CORE_CBAENGINE_H
