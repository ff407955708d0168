//===-- pds/VisibleSet.h - Packed visible-state sets ------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engines' visible-state sets T(R_k) are keyed millions of times
/// per run; a VisibleState is a heap-allocated vector per query.  This
/// header packs visible states <q | s1..sn> into a single uint64_t
/// whenever the CPDS's field widths fit (they essentially always do:
/// seven 8-bit threads plus a shared state already fit), and stores them
/// in flat open-addressing tables.  The packing is order-preserving --
/// the shared state occupies the most significant field, then the tops
/// in thread order -- so sorting packed words reproduces the exact
/// VisibleState ordering the round-difference APIs promise.  Systems too
/// wide to pack fall back to the ordered-map representation.
///
/// On a packing system the verdict path never leaves the words: M_n is
/// explored on them (core/ZOverapprox), G cap Z is kept as words and
/// probed against T(R_k) by word (containsWord), and each round's new
/// words (wordsFirstSeenIn) are scanned against the property compiled to
/// mask/value pairs (PackedProperty).  Only the least violating word is
/// unpacked, for the witness and the trace.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PDS_VISIBLESET_H
#define CUBA_PDS_VISIBLESET_H

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "pds/Cpds.h"
#include "support/FlatHash.h"

namespace cuba {

/// Order-preserving bit layout for one CPDS's visible states.
class VisiblePacker {
public:
  /// Lays out <q | s1..sn> for \p C's shared states and stack symbols.
  explicit VisiblePacker(const Cpds &C);

  /// True when every visible state of the CPDS fits in one uint64_t.
  bool packable() const { return Packable; }

  unsigned numThreads() const {
    return static_cast<unsigned>(FieldBits.size());
  }

  /// Packs <Q | Tops[0..N)>; requires packable() and N == numThreads().
  uint64_t pack(QState Q, const Sym *Tops, size_t N) const {
    assert(Packable && N == FieldBits.size() && "packer misuse");
    uint64_t Bits = Q;
    for (size_t I = 0; I < N; ++I)
      Bits = (Bits << FieldBits[I]) | Tops[I];
    return Bits;
  }

  uint64_t pack(const VisibleState &V) const {
    return pack(V.Q, V.Tops.data(), V.Tops.size());
  }

  VisibleState unpack(uint64_t Bits) const;

  /// Decodes \p Bits into \p Tops[0..numThreads()) and returns its shared
  /// state, without allocating; requires packable().
  QState unpack(uint64_t Bits, Sym *Tops) const {
    assert(Packable && "packer misuse");
    for (size_t I = 0; I < FieldBits.size(); ++I)
      Tops[I] = static_cast<Sym>((Bits & topMask(I)) >> TopShift[I]);
    return static_cast<QState>(Bits >> QShift);
  }

  /// Bit offset of the shared-state field, the most significant one.
  /// Always below 64: Q keeps at least one bit.
  unsigned sharedShift() const { return QShift; }

  /// Bit offset of thread \p I's top field.
  unsigned topShift(unsigned I) const { return TopShift[I]; }

  /// Thread \p I's top field, in place: clearing these bits and or-ing in
  /// `S << topShift(I)` rewrites that thread's top to S.
  uint64_t topMask(unsigned I) const {
    return ((uint64_t(1) << FieldBits[I]) - 1) << TopShift[I];
  }

private:
  bool Packable = false;
  std::vector<unsigned> FieldBits; // Per-thread top width; Q gets the rest.
  std::vector<unsigned> TopShift;  // Per-thread top offset.
  unsigned QShift = 0;             // Sum of FieldBits.
};

/// The set T(R_k) with the round each visible state was first seen in.
/// Insertions keep the earliest round (rounds are visited in order by
/// the engines, but re-insertions happen within a round).
class VisibleRoundSet {
public:
  explicit VisibleRoundSet(const Cpds &C)
      : Packer(C), NumThreads(Packer.numThreads()) {}

  size_t size() const {
    return Packer.packable() ? Packed.size() : Fallback.size();
  }

  void reserve(size_t N) {
    if (Packer.packable())
      Packed.reserve(N);
  }

  /// Fast path: record <Q | Tops[0..NumThreads)> at \p Round if absent;
  /// true when it was.
  bool insertTops(QState Q, const Sym *Tops, unsigned Round) {
    if (Packer.packable())
      return insertWord(Packer.pack(Q, Tops, NumThreads), Round);
    VisibleState V;
    V.Q = Q;
    V.Tops.assign(Tops, Tops + NumThreads);
    return Fallback.emplace(std::move(V), Round).second;
  }

  void insert(const VisibleState &V, unsigned Round) {
    if (Packer.packable())
      insertWord(Packer.pack(V), Round);
    else
      Fallback.emplace(V, Round);
  }

  /// The packer, for callers that pre-pack words off the hot path (the
  /// explicit engine's parallel derive workers); only meaningful when
  /// packable().
  const VisiblePacker &packer() const { return Packer; }

  /// Batch insertion of pre-packed words first seen in \p Round: one
  /// reserve, then plain probes.  Requires packer().packable();
  /// duplicates within the batch (or against earlier rounds) keep the
  /// earliest round, exactly like insert().
  void insertPackedBatch(const std::vector<uint64_t> &Words,
                         unsigned Round) {
    assert(Packer.packable() && "packed batch on an unpackable system");
    Packed.reserve(Packed.size() + Words.size());
    for (uint64_t W : Words)
      insertWord(W, Round);
  }

  bool contains(const VisibleState &V) const {
    return Packer.packable() ? Packed.contains(Packer.pack(V))
                             : Fallback.count(V) != 0;
  }

  /// contains() for a packed word; requires packer().packable().
  bool containsWord(uint64_t W) const {
    assert(Packer.packable() && "word probe on an unpackable system");
    return Packed.contains(W);
  }

  /// The packed words first seen in \p Round, in insertion order, for a
  /// round no earlier than the latest one any word was first seen in
  /// (the round loop's current bound); empty when that round added none.
  /// Requires packer().packable().
  std::span<const uint64_t> wordsFirstSeenIn(unsigned Round) const {
    assert(Packer.packable() && "word scan on an unpackable system");
    assert(Round >= LatestRound && "older rounds are not kept as lists");
    if (Round != LatestRound)
      return {};
    return LatestWords;
  }

  /// All entries sorted by VisibleState order (the packing preserves it).
  std::vector<std::pair<VisibleState, unsigned>> sortedEntries() const;

  /// The visible states first seen in \p Round, sorted.  The latest
  /// round any state was first seen in is served from its own list;
  /// older rounds scan the whole set.
  std::vector<VisibleState> statesInRound(unsigned Round) const;

private:
  /// Records packed word \p W at \p Round if absent; true when it was.
  bool insertWord(uint64_t W, unsigned Round) {
    if (!Packed.tryEmplace(W, Round).second)
      return false;
    if (Round > LatestRound) {
      LatestRound = Round;
      LatestWords.clear();
    }
    if (Round == LatestRound)
      LatestWords.push_back(W);
    return true;
  }

  VisiblePacker Packer;
  unsigned NumThreads;
  FlatMap<uint64_t, unsigned> Packed;
  std::map<VisibleState, unsigned> Fallback;
  /// The packed words first seen in LatestRound, the latest round of any
  /// first insertion, in insertion order.
  std::vector<uint64_t> LatestWords;
  unsigned LatestRound = 0;
};

/// A SafetyProperty compiled to one packer's words: each bad pattern
/// becomes a (mask, value) pair whose mask covers the fields the pattern
/// fixes, so a word violates the property iff (W & mask) == value for
/// some pair.  A pattern naming a shared state or symbol too large for
/// its field can match no word and is dropped.
class PackedProperty {
public:
  PackedProperty(const SafetyProperty &Prop, const VisiblePacker &P);

  /// False when words cannot stand for the property: the packer does not
  /// pack, or a pattern does not give one entry per thread.  Callers then
  /// test VisibleStates with SafetyProperty::violatedBy.
  bool compiled() const { return Compiled; }

  /// SafetyProperty::violatedBy on the packed word \p W; requires
  /// compiled().
  bool violatedBy(uint64_t W) const {
    for (const auto &[Mask, Value] : Patterns)
      if ((W & Mask) == Value)
        return true;
    return false;
  }

  /// The least word of \p Words that violates the property -- by the
  /// packing's order, the least violating visible state -- or nullopt.
  std::optional<uint64_t>
  leastViolation(std::span<const uint64_t> Words) const;

private:
  bool Compiled = false;
  std::vector<std::pair<uint64_t, uint64_t>> Patterns; // (mask, value)
};

} // namespace cuba

#endif // CUBA_PDS_VISIBLESET_H
