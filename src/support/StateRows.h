//===-- support/StateRows.h - Hash-consed fixed-width state rows -*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state store of both round engines.  A global state <q | x1..xn>
/// (Sec. 2.3; each xi an interned stack id, or a DfaId for the symbolic
/// states of App. E) is one row of 1 + n 32-bit words, and the table
/// hash-conses rows into dense 32-bit ids:
///
///   - rows live back to back in one word array, so storing a state
///     costs no allocation of its own and equality is a word compare;
///   - each row's 64-bit hash is computed once and stored, and the probe
///     index is the id-keyed InternIndex DfaStore uses, so growing the
///     index never re-hashes a row;
///   - a successor is its parent row with the shared state and one
///     thread's word patched, hashed once in O(width).
///
/// Ids are dense and stable (rows are only appended); a row() pointer is
/// invalidated by the next intern(), so copy a parent row before
/// interning its successors.  find() is const, so workers may probe a
/// table that no one is interning into.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_SUPPORT_STATEROWS_H
#define CUBA_SUPPORT_STATEROWS_H

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/FaultInject.h"
#include "support/FlatHash.h"
#include "support/Hashing.h"

namespace cuba {

/// A hash-consing arena of fixed-width 32-bit word rows.
class StateRows {
public:
  /// Returned by find() for a row the table does not hold.
  static constexpr uint32_t NoRow = UINT32_MAX;

  explicit StateRows(unsigned Width) : Width(Width) {
    assert(Width > 0 && "a row holds at least the shared state");
  }

  unsigned width() const { return Width; }

  /// Number of distinct rows interned.
  size_t size() const { return Hashes.size(); }

  /// The hash of the \p Width-word row \p Row: one multiply-xor step per
  /// word, then the SplitMix64 finaliser (whose full avalanche is what
  /// the index's low-bit masking needs).  Each step is a bijection in
  /// its word, so rows that differ in one word never collide.
  static uint64_t hashRow(const uint32_t *Row, unsigned Width) {
    uint64_t H = Width;
    for (unsigned I = 0; I < Width; ++I)
      H = (H ^ Row[I]) * 0x9e3779b97f4a7c15ULL;
    return splitMix64(H);
  }

  uint64_t hash(const uint32_t *Row) const { return hashRow(Row, Width); }

  /// The id of \p Row (whose hash is \p H), or NoRow.
  uint32_t find(const uint32_t *Row, uint64_t H) const {
    assert(H == hash(Row) && "probe with a stale hash");
    return Index.find(H, Hashes, [&](uint32_t Id) { return equal(Id, Row); });
  }

  /// Interns \p Row (whose hash is \p H): {id, true when newly added}.
  /// \p Row must not point into this table.
  std::pair<uint32_t, bool> intern(const uint32_t *Row, uint64_t H) {
    uint32_t Found = find(Row, H);
    if (Found != NoRow)
      return {Found, false};
    assert((Words.empty() || Row < Words.data() ||
            Row >= Words.data() + Words.size()) &&
           "interning a row of this table");
    // Probe before any mutation so an injected failure cannot leave a
    // torn row behind.
    fault::checkAlloc();
    uint32_t Id = static_cast<uint32_t>(Hashes.size());
    assert(Id != NoRow && "state id space exhausted");
    Words.insert(Words.end(), Row, Row + Width);
    Hashes.push_back(H);
    Index.insert(H, Id, Hashes);
    return {Id, true};
  }

  /// The words of row \p Id; valid until the next intern().
  const uint32_t *row(uint32_t Id) const {
    assert(Id < size() && "row id out of range");
    return Words.data() + static_cast<size_t>(Id) * Width;
  }

  /// Logical footprint: row words, stored hashes and the probe index.
  /// A pure function of size(), so it is the same whatever the order or
  /// the schedule that built the table.
  uint64_t memoryBytes() const {
    return static_cast<uint64_t>(size()) *
               (Width * sizeof(uint32_t) + sizeof(uint64_t)) +
           Index.memoryBytes();
  }

private:
  bool equal(uint32_t Id, const uint32_t *Row) const {
    const uint32_t *Mine = row(Id);
    for (unsigned I = 0; I < Width; ++I)
      if (Mine[I] != Row[I])
        return false;
    return true;
  }

  unsigned Width;
  std::vector<uint32_t> Words;   // Row Id at [Id * Width, (Id + 1) * Width).
  std::vector<uint64_t> Hashes;  // Per-id stored hash.
  InternIndex Index;
};

} // namespace cuba

#endif // CUBA_SUPPORT_STATEROWS_H
