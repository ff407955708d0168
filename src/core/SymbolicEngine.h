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
/// sets S_k are sets of *symbolic states* <q | A_1..A_n>: a control state
/// plus one regular stack language per thread (the Qadeer-Rehof
/// aggregate).  One round expands each frontier symbolic state by each
/// thread i: a post* saturation of thread i's PDS (read with its built-in
/// bottom marker, Pds::bottom) from the rooted language yields, for every
/// control state q' reachable in that transaction, a successor symbolic
/// state.
///
/// Saturation layer: psa/SaturationEngine saturates the multi-rooted
/// input (one mirror row per shared state, root masks on every
/// transition) ONCE per (thread, input DfaId), and per-root answers are
/// extracted from the retained masked relation via direct
/// canonicalization (fa/Canonicalize, no complete-DFA detour).  The
/// extraction cache is SharedSaturation::ExtractionCache: root classes
/// and per-target canonical forms, so a repeated root skips the product
/// rebuild and a root whose mask rows partially changed re-extracts only
/// the changed targets (counted as extract.skipped_unchanged).  Each
/// successor is charged the size of the automaton its canonicalization
/// reads, and the saturation charges one step per pop.
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
/// and a producer bit there skips the whole run.  A class shares one
/// Pds, so the saturation and top-set caches are keyed by the class
/// representative.  Visible states are recorded in canonical form, each
/// class's columns with equal top sets enumerated as multisets, and
/// visibleSize() adds up their orbit sizes.  Because T(R_k) is closed
/// under class permutations, the visible interface stays exact:
/// visibleSize() equals the unreduced engine's, visibleOrbits() plateaus
/// exactly when it does, newVisibleThisRound() is the canonical image of
/// its rounds (newVisibleWordsThisRound() the same as packed words), and
/// visibleReached canonicalizes its argument (visibleWordReached takes a
/// canonical word).  Under a
/// symmetry without classes (an engine built without a property) every
/// row, key and enumeration is the unreduced one.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_SYMBOLICENGINE_H
#define CUBA_CORE_SYMBOLICENGINE_H

#include <map>
#include <vector>

#include "fa/DfaStore.h"
#include "pds/Cpds.h"
#include "pds/ThreadSymmetry.h"
#include "pds/VisibleSet.h"
#include "psa/SaturationEngine.h"
#include "support/FlatHash.h"
#include "support/Limits.h"
#include "support/StateRows.h"

namespace cuba {

namespace exec {
class ThreadPool;
} // namespace exec

/// Round-by-round symbolic CBA exploration, over one canonical row per
/// orbit of \p Symmetry's classes; built without one, unreduced.  The
/// interface mirrors CbaEngine so one round loop runs over either engine.
class SymbolicEngine {
public:
  enum class RoundStatus { Ok, Exhausted };

  SymbolicEngine(const Cpds &C, const ResourceLimits &Limits)
      : SymbolicEngine(C, Limits, ThreadSymmetry(C)) {}
  SymbolicEngine(const Cpds &C, const ResourceLimits &Limits,
                 ThreadSymmetry Symmetry);

  /// Does nothing: symbolic rounds run serially at every `--jobs`.  Kept
  /// only for verifybench's staged pass, which still hands the engine
  /// its pool; it goes with that pass (ROADMAP direction 1).
  void setParallel(exec::ThreadPool *) {}

  /// The bound k whose set S_k is currently complete.
  unsigned bound() const { return Bound; }

  /// Advances from S_k to S_{k+1}.
  RoundStatus advance();

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

  /// The layout of the packed words below; the word queries require
  /// visiblePacker().packable().
  const VisiblePacker &visiblePacker() const { return VisibleSeen.packer(); }

  /// newVisibleThisRound() as packed words, unsorted.
  std::span<const uint64_t> newVisibleWordsThisRound() const {
    return VisibleSeen.wordsFirstSeenIn(Bound);
  }

  /// visibleReached() for a packed word that is already canonical (the
  /// words of a G cap Z built under this engine's symmetry are).
  bool visibleWordReached(uint64_t W) const {
    return VisibleSeen.containsWord(W);
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

  /// Logical byte footprint of the engine-owned stores (language arena,
  /// state table and producer masks, retained saturations, transaction
  /// records, visible tuples and set), derived from element counts so it
  /// is deterministic.
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
    SharedSaturation S;
    uint64_t PendingBase = 0;
    FlatMap<uint32_t, uint32_t> Roots; // root -> Transactions idx
    unsigned Thread = 0;
    DfaId InLang = 0;
    unsigned LastUsed = 0; // Round stamp, updated when a round touches it.
    /// Root classes and per-target canonical forms, read and grown by
    /// each fresh root's extraction (extractRoot).  Like the top-set
    /// cache it stays outside the byte budgets; evicted along with the
    /// saturation.
    SharedSaturation::ExtractionCache Extract;
    uint64_t Bytes = 0; // Its share of SatBytes.
  };

  bool expand(const uint32_t *S, unsigned I,
              std::vector<uint32_t> &NewFrontier);
  uint32_t registerSaturation(unsigned I, DfaId Lang, SharedSaturation S,
                              uint64_t BaseSteps, uint64_t BeginNs,
                              uint64_t EndNs);
  bool extractRoot(uint32_t SatIdx, const uint32_t *S, unsigned I,
                   std::vector<uint32_t> &NewFrontier);
  RoundStatus commitRound(std::vector<uint32_t> &NewFrontier);
  std::pair<bool, bool> addState(const uint32_t *Row, unsigned Round,
                                 uint32_t Producer,
                                 std::vector<uint32_t> *NewFrontier);
  bool addSuccessor(const uint32_t *S, unsigned I, QState Q2, DfaId Lang,
                    std::vector<uint32_t> &NewFrontier);
  bool replayTransaction(const Transaction &TR, const uint32_t *S, unsigned I,
                         std::vector<uint32_t> &NewFrontier);
  void recordVisible(const uint32_t *Row, unsigned Round);
  void evictSaturations();
  uint32_t topSetOf(unsigned Thread, DfaId Lang);

  /// The producer-mask bit of thread \p I; threads past 31 have none.
  static uint32_t producerBit(unsigned I) { return I < 32 ? 1u << I : 0u; }

  /// True when column \p I of the canonical row or tuple \p S continues
  /// a run: it equals the column of the thread before \p I in its class,
  /// whose expansion (or enumeration) stands for it.
  bool repeatsRun(const uint32_t *S, unsigned I) const {
    return Symmetry.repeatsPrev(I, S + 1);
  }

  const Cpds &C;
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
  /// Running byte counts of the retained saturations and transaction
  /// records, so memoryUsage() is O(1).
  uint64_t SatBytes = 0;
  uint64_t TrBytes = 0;
};

} // namespace cuba

#endif // CUBA_CORE_SYMBOLICENGINE_H
