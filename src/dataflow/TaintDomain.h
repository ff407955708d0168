//===-- dataflow/TaintDomain.h - GEN/KILL taint weight domain ---*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The set-of-transformers weight domain for interprocedural GEN/KILL
/// dataflow (taint) over the semiring-generic saturation core
/// (psa/WeightedPostStar.h).
///
/// A single transformer is a (Kill, Gen) pair of fact bitmasks with
///
///   apply(T, facts)  =  (facts & ~Kill) | Gen
///   seq(A, B)        =  (Kill: A.Kill | B.Kill,
///                        Gen:  (A.Gen & ~B.Kill) | B.Gen)
///
/// where seq(A, B) means "A executes, then B".  GEN/KILL transformers
/// are closed under composition but NOT under union -- the join of two
/// paths' effects is not itself one (Kill, Gen) pair -- so the exact
/// semiring element is a *finite set* of transformers:
///
///   combine = set union          zero = the empty set
///   extend  = pairwise seq       one  = { identity }
///
/// A weight then answers, per accepting path family, every distinct
/// "what does this derivation do to the fact vector" summary, and the
/// bounded height (at most 2^(2F) transformers over F facts, far fewer
/// in practice) guarantees the saturation fixpoint.
///
/// Transformers and transformer sets are interned in a
/// TaintWeightTable; rows are sparse sorted (root, SetId) vectors, so
/// the root-indexed row interface of psa/Semiring.h carries over with
/// set ids where the boolean domain had mask bits.  Rule weights come
/// from a per-action table (TfByAction) built by the caller from the
/// Boolean-program frontend's taint annotations (bp/Translate.h).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_DATAFLOW_TAINTDOMAIN_H
#define CUBA_DATAFLOW_TAINTDOMAIN_H

#include <cstdint>
#include <map>
#include <vector>

#include "pds/Pds.h"
#include "support/FlatHash.h"

namespace cuba {

/// One GEN/KILL transformer over up to 32 taint facts.
struct TaintTf {
  uint32_t Kill = 0;
  uint32_t Gen = 0;

  bool operator==(const TaintTf &O) const {
    return Kill == O.Kill && Gen == O.Gen;
  }
};

/// facts after = (facts before & ~Kill) | Gen.
inline uint32_t applyTf(const TaintTf &T, uint32_t Facts) {
  return (Facts & ~T.Kill) | T.Gen;
}

/// "A executes, then B": apply(seq(A,B), x) == apply(B, apply(A, x)).
/// The result is canonical (Kill and Gen disjoint; Gen wins): a
/// (Kill, Gen) pair with overlapping masks denotes the same function
/// as (Kill & ~Gen, Gen), and keeping the representation unique per
/// function keeps transformer sets minimal and seq structurally
/// associative.
inline TaintTf seqTf(const TaintTf &A, const TaintTf &B) {
  uint32_t Gen = (A.Gen & ~B.Kill) | B.Gen;
  return {(A.Kill | B.Kill) & ~Gen, Gen};
}

/// Interner for transformers and transformer sets, plus memoised binary
/// operations on interned sets.  Id 0 is pinned in both spaces: TfId 0
/// is the identity transformer, SetId 0 is { identity } -- the semiring
/// `one`.  The empty set (the semiring `zero`) is never interned; it is
/// the EmptySet sentinel, and sparse rows simply omit the root.
class TaintWeightTable {
public:
  static constexpr uint32_t EmptySet = UINT32_MAX;

  TaintWeightTable();

  uint32_t internTf(TaintTf T);
  TaintTf tf(uint32_t Id) const { return Tfs[Id]; }

  /// Interns a sorted, duplicate-free vector of TfIds (non-empty).
  uint32_t internSet(std::vector<uint32_t> Members);
  const std::vector<uint32_t> &set(uint32_t Id) const { return Sets[Id]; }

  /// combine: A union B.
  uint32_t unionSets(uint32_t A, uint32_t B);

  /// extend: { seq(f, g) : f in A, g in B } -- A executes first.
  uint32_t composeSets(uint32_t A, uint32_t B);

  /// Members of A not in B; EmptySet when nothing remains.
  uint32_t diffSets(uint32_t A, uint32_t B);

  /// { seq(f, tf(T)) : f in A } -- rule application.
  uint32_t composeSetWithTf(uint32_t A, uint32_t T);

  /// The union of apply(f, Facts) over every f in A -- the may-taint
  /// reading a client reports.
  uint32_t applySetMay(uint32_t A, uint32_t Facts) const;

  /// Deterministic logical footprint of the interned structures and
  /// memo tables, charged into the saturation's memory budget.
  uint64_t bytes() const { return Bytes; }

private:
  uint32_t memoised(FlatMap<uint64_t, uint32_t> &Cache, uint32_t A,
                    uint32_t B, uint32_t (TaintWeightTable::*Op)(uint32_t,
                                                                 uint32_t));

  uint32_t unionSetsImpl(uint32_t A, uint32_t B);
  uint32_t composeSetsImpl(uint32_t A, uint32_t B);
  uint32_t diffSetsImpl(uint32_t A, uint32_t B);
  uint32_t composeSetWithTfImpl(uint32_t A, uint32_t T);

  std::vector<TaintTf> Tfs;
  FlatMap<uint64_t, uint32_t> TfIndex;

  /// Set storage plus a deterministic (ordered) index: iteration order
  /// of interning never depends on hash seeding.
  std::vector<std::vector<uint32_t>> Sets;
  std::map<std::vector<uint32_t>, uint32_t> SetIndex;

  FlatMap<uint64_t, uint32_t> UnionCache, ComposeCache, DiffCache,
      ComposeTfCache;
  uint64_t Bytes = 0;
};

/// The set-of-transformers weight domain, implementing the row-managed
/// interface psa/Semiring.h documents.  Rows are sparse vectors sorted
/// by root; a missing root is weight zero (the empty set).  The domain
/// owns its weight table and the per-action rule weights, so a
/// completed WeightedRelation<TaintDomain> is self-contained: clients
/// read rows and decode them through table().
class TaintDomain {
public:
  struct Entry {
    uint32_t Root;
    uint32_t Set;
  };
  using Row = std::vector<Entry>;

  TaintDomain() = default;

  /// \p TfByActionIn maps a PDS action index to the interned TfId of
  /// its rule weight; actions past the end (or mapped to 0) are
  /// identity.  The TfIds must have been interned in \p Tab.
  TaintDomain(TaintWeightTable Tab, std::vector<uint32_t> TfByActionIn)
      : Tab(std::move(Tab)), TfByAction(std::move(TfByActionIn)) {}

  void init(uint32_t NumSharedIn) {
    NumShared = NumSharedIn;
    Full.clear();
    Full.reserve(NumShared);
    for (uint32_t Q = 0; Q < NumShared; ++Q)
      Full.push_back({Q, 0});
  }

  const Row &fullRow() const { return Full; }

  const Row &singletonRow(QState Q) {
    Single.assign(1, {static_cast<uint32_t>(Q), 0});
    return Single;
  }

  void addTransitionRow() {
    Active.emplace_back();
    Pending.emplace_back();
  }

  bool accumulate(uint32_t T, const Row &Delta);
  void take(uint32_t T, Row &CurDelta);

  bool extendSymbolWithEps(const Row &SymDelta, uint32_t EpsT, Row &Out) {
    // Composed edge replaces "eps then symbol" in reading order, so the
    // SYMBOL edge executes first (INV1): out = seq(symbol, eps).
    return composeRows(SymDelta, Active[EpsT], Out);
  }

  bool extendEpsWithSymbol(const Row &EpsDelta, uint32_t SymT, Row &Out) {
    return composeRows(Active[SymT], EpsDelta, Out);
  }

  const Row &applyRule(const Row &Delta, uint32_t ActionIdx, Row &Scratch) {
    uint32_t W = ActionIdx < TfByAction.size() ? TfByAction[ActionIdx] : 0;
    if (W == 0)
      return Delta;
    Scratch.clear();
    Scratch.reserve(Delta.size());
    for (const Entry &E : Delta)
      Scratch.push_back({E.Root, Tab.composeSetWithTf(E.Set, W)});
    return Scratch;
  }

  const Row &pushEntryRow(const Row &Delta, Row &Scratch) const {
    // Support of the delta, every root at weight one (the Schwoon push
    // helper's weightless entry edge).
    Scratch.clear();
    Scratch.reserve(Delta.size());
    for (const Entry &E : Delta)
      Scratch.push_back({E.Root, 0});
    return Scratch;
  }

  bool activeFor(size_t T, QState Root) const {
    return findRoot(Active[T], Root) != EmptyMark;
  }

  uint64_t activeBytes() const {
    return ActiveEntries * sizeof(Entry) + Tab.bytes();
  }
  uint64_t pendingBytes() const { return PendingEntries * sizeof(Entry); }

  /// SetId active at (T, Root), or TaintWeightTable::EmptySet.
  uint32_t setAt(size_t T, QState Root) const {
    return findRoot(Active[T], Root);
  }

  const TaintWeightTable &table() const { return Tab; }

private:
  static constexpr uint32_t EmptyMark = TaintWeightTable::EmptySet;

  static uint32_t findRoot(const Row &R, QState Root);

  /// Out[r] = composeSets(First[r], Second[r]) for roots present in
  /// both (First executes first); false when the intersection is empty.
  bool composeRows(const Row &First, const Row &Second, Row &Out);

  TaintWeightTable Tab;
  std::vector<uint32_t> TfByAction;

  uint32_t NumShared = 0;
  std::vector<Row> Active, Pending;
  uint64_t ActiveEntries = 0, PendingEntries = 0;
  Row Full, Single;
};

} // namespace cuba

#endif // CUBA_DATAFLOW_TAINTDOMAIN_H
