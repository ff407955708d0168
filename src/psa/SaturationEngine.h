//===-- psa/SaturationEngine.h - Shared multi-root post* --------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared-saturation post*: saturate ONCE per (PDS, input language) for
/// every shared root simultaneously, instead of once per (root, input
/// language) as the classical pipeline (psa/PostStar.h) does when driven
/// per query.
///
/// The input is a multi-rooted P-automaton built from one canonical DFA:
/// a single copy of the DFA's states and edges, plus, for every shared
/// state q, a mirror of the DFA's start row on q -- i.e. the automaton
/// of the union over q of {q} x L.  Saturating that union naively would
/// conflate the roots (the language extracted at a target q' would be
/// the union over all source roots), so every transition carries a
/// *root mask*: root r is in the mask of transition t iff t belongs to
/// the saturation of the single-rooted input {r} x L.  Seeds: the DFA
/// copy's edges exist for every root (full mask); q's mirror row exists
/// only for root q (singleton mask).  Derived transitions inherit the
/// triggering transition's mask; epsilon compositions intersect the two
/// premises' masks; masks union over derivations.  The worklist
/// processes (transition, mask-delta) batches, so a transition whose
/// derivation is root-independent -- the common case, since the DFA copy
/// and the pushdown program are shared -- is processed once with a full
/// mask rather than once per root.
///
/// Per-root answers then come for free: the sub-automaton of transitions
/// whose mask contains r is exactly the classical saturation for root r
/// (state identities aside), so reading from a target shared state q'
/// through that filter yields the same language as the per-root
/// pipeline -- pinned against tests/ReferencePostStar.h by the
/// shared-saturation property suite.
///
/// Budget accounting mirrors postStar: one step per worklist pop,
/// charged against the caller's LimitTracker; an exhausted saturation
/// reports Complete == false and underapproximates.
///
/// The worklist, its transition creation order, mask rows and budget
/// charges are pinned bit for bit by SharedSaturationTest against an
/// independent copy (tests/ReferenceSharedSaturation.h).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PSA_SATURATIONENGINE_H
#define CUBA_PSA_SATURATIONENGINE_H

#include <vector>

#include "fa/Canonicalize.h"
#include "fa/Nfa.h"
#include "pds/Pds.h"
#include "support/FlatHash.h"
#include "support/Limits.h"

namespace cuba {

class SharedSaturation;
struct SharedSaturationResult;
SharedSaturationResult sharedPostStar(const Pds &P, uint32_t NumShared,
                                      const CanonicalDfa &Lang,
                                      LimitTracker *Limits);

namespace psa_testing {
/// Testing hook for the shared-saturation property suite's
/// mutation-sensitivity check (the saturation analogue of
/// OracleOptions::InjectDropVisible): when true, a transition that
/// already exists never gains new root-mask bits, simulating a lost
/// mask-propagation bug that under-saturates some roots.  A correct
/// differential comparison against the per-root reference pipeline must
/// then report language mismatches.  Never set outside tests.
extern bool InjectDropMaskGrowth;
} // namespace psa_testing

/// A completed shared saturation: the saturated multi-rooted relation
/// with per-transition root masks, ready for per-root extraction.
/// States [0, numShared()) are the PDS shared states, then the input
/// DFA's state copy, then the push helper states.
class SharedSaturation {
public:
  uint32_t numShared() const { return NumShared; }
  uint32_t numStates() const { return NumStates; }
  uint32_t numSymbols() const { return NumSymbols; }
  size_t numTransitions() const { return TFrom.size(); }

  /// Words per root mask (ceil(numShared / 64)).
  uint32_t maskWords() const { return MaskWords; }

  /// True when transition \p T is active for \p Root.
  bool activeFor(size_t T, QState Root) const {
    return (Masks[T * MaskWords + Root / 64] >> (Root % 64)) & 1;
  }

  /// Flat transition-array reads, in creation order; the property
  /// suite compares these word for word against the pre-refactor shim
  /// (tests/ReferenceSharedSaturation.h).
  uint32_t transFrom(size_t T) const { return TFrom[T]; }
  uint32_t transTo(size_t T) const { return TTo[T]; }
  Sym transLabel(size_t T) const { return TLabel[T]; }
  const std::vector<uint64_t> &maskRows() const { return Masks; }

  /// Materialises the sub-NFA active for \p Root: every transition whose
  /// mask contains Root, with the input language's acceptance on the DFA
  /// copy (and on Root itself when the language accepts the empty word).
  /// No initial states are set; callers seed reads per target state.
  Nfa rootView(QState Root) const;

  /// The canonical successor language at every shared target for
  /// \p Root: (target, canonical form) pairs in ascending target order,
  /// empty languages omitted.  This is the per-root answer of the
  /// classical pipeline (postStar -> rootedNfa -> canonical form, kept
  /// as tests/ReferencePostStar.h), canonicalized via canonicalizeNfa.
  std::vector<std::pair<QState, CanonicalDfa>> extractRoot(QState Root) const;

  //===--------------------------------------------------------------------===//
  // Incremental per-root extraction
  //
  // extractRoot recanonicalizes every shared target from scratch.
  // Across the roots of one saturation most of that work repeats:
  // shared states never gain incoming transitions (every derived
  // transition targets a DFA-copy or helper state), so a target's
  // language depends only on (a) the root-independent base acceptance,
  // (b) the set of transitions sourced at non-shared states active for
  // the root -- the "root class", identical for whole groups of roots
  // because root-independent (full-mask) derivations dominate -- and
  // (c) the target's own active out-row.  The cache interns both
  // layers: the base adjacency per distinct class (verified against
  // the stored exact bit set, never trusted to the digest alone) and
  // the canonical DFA per (class, out-row, self-accept) key, so a
  // repeated root skips the product rebuild entirely and a root whose
  // mask rows partially changed re-extracts only the targets whose
  // rows changed.
  //
  // The cache grows only through extractRootCached, so its content, and
  // the reused-target count each call returns, are functions of the
  // extraction sequence.
  //===--------------------------------------------------------------------===//

  /// The interned extraction state for one retained saturation; opaque
  /// to callers, grown only by extractRootCached.
  class ExtractionCache {
    friend class SharedSaturation;

    /// One interned base adjacency: the exact active-transition bit set
    /// (bits only on non-shared-sourced transitions) and the view
    /// holding those transitions plus the base acceptance.
    struct BaseClass {
      std::vector<uint64_t> Bits;
      Nfa View{0};
    };

    /// One cached per-target extraction.  Class/Row/SelfAccept are the
    /// exact key; the digest is only the index key, so a colliding
    /// probe degrades to a miss, never to a wrong answer.
    struct Entry {
      std::vector<uint32_t> Row;
      CanonicalDfa D;    // Valid when !Empty.
      uint64_t Hash = 0; // D.hash(), precomputed.
      uint32_t Class = 0;
      uint8_t SelfAccept = 0;
      uint8_t Empty = 0;
    };

    FlatMap<uint64_t, uint32_t> ClassIdx; // class digest -> Classes index
    std::vector<BaseClass> Classes;
    FlatMap<uint64_t, uint32_t> EntryIdx; // entry digest -> Entries index
    std::vector<Entry> Entries;
  };

  /// extractRoot through \p Cache: canonicalizes only the targets the
  /// cache does not hold and adds them to it, in target order (a target
  /// whose key an earlier target of the same call added is a hit).
  /// Appends the per-target languages, byte-identical to
  /// extractRoot(\p Root) -- the canonical form is unique per language,
  /// and a hit's stored key proves language equality exactly -- to
  /// \p Langs, and each one's structural hash to \p Hashes.  Returns
  /// the number of targets the cache already held (the
  /// "skipped_unchanged" figure).
  uint64_t
  extractRootCached(QState Root, ExtractionCache &Cache,
                    std::vector<std::pair<QState, CanonicalDfa>> &Langs,
                    std::vector<uint64_t> &Hashes) const;

  /// Logical footprint of the retained relation: flat transition arrays,
  /// mask rows, and base acceptance — deterministic in the transition
  /// count.  This is what the symbolic engine's cache-retention budget
  /// sums over.
  uint64_t memoryBytes() const {
    return static_cast<uint64_t>(TFrom.size()) *
               (2 * sizeof(uint32_t) + sizeof(Sym)) +
           static_cast<uint64_t>(Masks.size()) * sizeof(uint64_t) +
           AcceptBase.size();
  }

private:
  friend SharedSaturationResult sharedPostStar(const Pds &P,
                                               uint32_t NumShared,
                                               const CanonicalDfa &Lang,
                                               LimitTracker *Limits);

  uint32_t NumShared = 0;
  uint32_t NumStates = 0;
  uint32_t NumSymbols = 0;
  uint32_t MaskWords = 1;

  /// Flat transition arrays plus row-per-transition mask words.
  std::vector<uint32_t> TFrom, TTo;
  std::vector<Sym> TLabel;
  std::vector<uint64_t> Masks;

  /// Acceptance of the non-root states (the DFA copy; helpers never
  /// accept) and whether the input language accepts the empty word (the
  /// root itself then accepts in its own view).
  std::vector<uint8_t> AcceptBase;
  bool StartAccepting = false;

  /// Per-shared-state transition rows (CSR over sources < NumShared,
  /// ascending transition order), built once after saturation for the
  /// cached extraction's row probes, and whether the
  /// no-incoming-shared-state invariant its reachability argument rests
  /// on holds.  It always does for saturations this module builds
  /// (every derived transition targets a DFA-copy or helper state);
  /// checked anyway so a future construction change degrades to
  /// cache-off, never to a wrong answer.  Excluded from memoryBytes():
  /// like the engine's top-set cache, it is a derived index, not part
  /// of the retained relation the eviction budget governs.
  std::vector<uint32_t> RowStart, RowTrans;
  bool RootedReadsSound = true;
  void buildRootRows();

  /// Materializes one class's base view from its exact active bit set:
  /// every state, the base acceptance, and the flagged transitions in
  /// ascending index order (the per-state adjacency order rootView
  /// produces, which the cached and fresh pipelines must share for
  /// byte-identity).
  Nfa classView(const std::vector<uint64_t> &Bits) const;
};

/// Result of one shared saturation run.
struct SharedSaturationResult {
  SharedSaturation Sat;
  bool Complete = true;
};

/// Saturates the multi-rooted input built from \p Lang (which must be
/// non-empty) under \p P for all of \p NumShared roots at once.
/// \p P is frozen and \p Lang ranges over its bottom-lifted alphabet
/// 1..P.bottom() (or just 1..P.numSymbols()); empty-stack rules fire on
/// bottom-marker transitions, as in postStar.  \p Limits may be null
/// for unbounded runs; one step is charged per worklist pop.
SharedSaturationResult sharedPostStar(const Pds &P, uint32_t NumShared,
                                      const CanonicalDfa &Lang,
                                      LimitTracker *Limits = nullptr);

} // namespace cuba

#endif // CUBA_PSA_SATURATIONENGINE_H
