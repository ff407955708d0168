//===-- support/FlatHash.h - Open-addressing hash containers ----*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat open-addressing hash set/map for the engine hot paths.  The
/// node-based std::unordered_* containers cost one allocation plus one
/// pointer chase per element; the reachability engines insert and probe
/// millions of small keys (packed transitions, stack ids, visible-state
/// words), where a linear-probing table over contiguous storage is
/// several times faster and allocation-free on lookups.
///
/// Design: power-of-two capacity, one control byte per slot (empty /
/// occupied), linear probing, growth at 3/4 load.  Erase uses
/// backward-shift deletion, so there are no tombstones and probe chains
/// never degrade.  Keys hash through splitMix64 (integers) or a
/// caller-supplied functor whose result is assumed well-mixed.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_SUPPORT_FLATHASH_H
#define CUBA_SUPPORT_FLATHASH_H

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/Hashing.h"

namespace cuba {

/// Default hasher: SplitMix64 over integral keys.
struct IntKeyHash {
  template <typename K> uint64_t operator()(const K &Key) const {
    static_assert(std::is_integral_v<K> && sizeof(K) <= 8,
                  "IntKeyHash requires a 32/64-bit integer key; supply a "
                  "custom hasher for other key types");
    return splitMix64(static_cast<uint64_t>(Key));
  }
};

/// Open-addressing hash map.  \p HashFn must return a well-distributed
/// 64-bit hash (the table masks it to the low bits).
template <typename K, typename V, typename HashFn = IntKeyHash>
class FlatMap {
public:
  FlatMap() = default;

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  /// Grows the backing array so \p N entries fit without rehashing.
  void reserve(size_t N) {
    size_t Needed = capacityFor(N);
    if (Needed > Ctrl.size())
      rehash(Needed);
  }

  void clear() {
    Ctrl.assign(Ctrl.size(), Empty);
    Size = 0;
  }

  /// Inserts (Key, Value) if absent.  Returns {slot value pointer, true
  /// when newly inserted}; an existing mapping is left untouched.
  ///
  /// Probes before growing: a duplicate probe must leave the capacity
  /// untouched even at the load threshold, or memoryBytes() would
  /// depend on the probe schedule rather than on the insertion count.
  std::pair<V *, bool> tryEmplace(const K &Key, V Value = V()) {
    uint64_t H = Hash(Key);
    size_t I = 0;
    if (!Ctrl.empty()) {
      I = findSlotHashed(Key, H);
      if (Ctrl[I] == Occupied)
        return {&Vals[I], false};
    }
    if (Ctrl.empty() || Size + 1 > Ctrl.size() - Ctrl.size() / 4) {
      rehash(Ctrl.empty() ? 16 : Ctrl.size() * 2);
      I = findSlotHashed(Key, H);
    }
    Ctrl[I] = Occupied;
    Keys[I] = Key;
    Vals[I] = std::move(Value);
    ++Size;
    return {&Vals[I], true};
  }

  /// The value mapped to \p Key, or nullptr.
  V *find(const K &Key) {
    if (Ctrl.empty())
      return nullptr;
    size_t I = findSlot(Key);
    return Ctrl[I] == Occupied ? &Vals[I] : nullptr;
  }
  const V *find(const K &Key) const {
    return const_cast<FlatMap *>(this)->find(Key);
  }

  bool contains(const K &Key) const { return find(Key) != nullptr; }

  /// Removes \p Key; returns true when it was present.  Backward-shift
  /// deletion: the following probe cluster is compacted in place.
  bool erase(const K &Key) {
    if (Ctrl.empty())
      return false;
    size_t I = findSlot(Key);
    if (Ctrl[I] != Occupied)
      return false;
    size_t Mask = Ctrl.size() - 1;
    size_t Hole = I;
    for (size_t J = (Hole + 1) & Mask;; J = (J + 1) & Mask) {
      if (Ctrl[J] != Occupied)
        break;
      size_t Ideal = Hash(Keys[J]) & Mask;
      // Move J back iff the hole lies within J's probe path, i.e. the
      // cyclic distance ideal->hole does not exceed ideal->J.
      if (((Hole - Ideal) & Mask) <= ((J - Ideal) & Mask)) {
        Keys[Hole] = std::move(Keys[J]);
        Vals[Hole] = std::move(Vals[J]);
        Hole = J;
      }
    }
    Ctrl[Hole] = Empty;
    --Size;
    return true;
  }

  /// Invokes \p Fn(key, value) for every entry, in table order.
  template <typename Callback> void forEach(Callback Fn) const {
    for (size_t I = 0; I < Ctrl.size(); ++I)
      if (Ctrl[I] == Occupied)
        Fn(Keys[I], Vals[I]);
  }

  /// Like forEach, but the value is mutable.  Keys stay const: rewriting
  /// a key in place would desynchronise it from its probe position.
  template <typename Callback> void forEachMut(Callback Fn) {
    for (size_t I = 0; I < Ctrl.size(); ++I)
      if (Ctrl[I] == Occupied)
        Fn(Keys[I], Vals[I]);
  }

  /// Logical footprint of the backing arrays.  Capacity is a
  /// deterministic function of the insertion count (growth depends only
  /// on Size), so this figure is reproducible across runs and
  /// usable for the MaxBytes budget.
  uint64_t memoryBytes() const {
    return static_cast<uint64_t>(Ctrl.size()) * (1 + sizeof(K) + sizeof(V));
  }

private:
  enum : uint8_t { Empty = 0, Occupied = 1 };

  // Growth at 3/4 load: linear probing without SIMD group scans degrades
  // steeply past that (expected miss probes grow with 1/(1-load)^2).
  static size_t capacityFor(size_t N) {
    size_t Cap = 16;
    while (Cap - Cap / 4 < N)
      Cap <<= 1;
    return Cap;
  }

  /// The slot holding \p Key, or the empty slot terminating its probe
  /// chain.  Requires a non-empty table.
  size_t findSlot(const K &Key) const { return findSlotHashed(Key, Hash(Key)); }

  size_t findSlotHashed(const K &Key, uint64_t H) const {
    size_t Mask = Ctrl.size() - 1;
    size_t I = H & Mask;
    while (Ctrl[I] == Occupied && !(Keys[I] == Key))
      I = (I + 1) & Mask;
    return I;
  }

  void rehash(size_t NewCap) {
    assert((NewCap & (NewCap - 1)) == 0 && "capacity must be a power of two");
    std::vector<uint8_t> OldCtrl = std::move(Ctrl);
    std::vector<K> OldKeys = std::move(Keys);
    std::vector<V> OldVals = std::move(Vals);
    Ctrl.assign(NewCap, Empty);
    Keys.assign(NewCap, K());
    Vals.assign(NewCap, V());
    for (size_t I = 0; I < OldCtrl.size(); ++I) {
      if (OldCtrl[I] != Occupied)
        continue;
      size_t J = findSlot(OldKeys[I]);
      Ctrl[J] = Occupied;
      Keys[J] = std::move(OldKeys[I]);
      Vals[J] = std::move(OldVals[I]);
    }
  }

  [[no_unique_address]] HashFn Hash;
  std::vector<uint8_t> Ctrl;
  std::vector<K> Keys;
  std::vector<V> Vals;
  size_t Size = 0;
};

/// Probe-table core shared by the hash-consing arenas (fa/DfaStore,
/// support/StateRows and fa/SubsetInterner): open addressing over dense
/// 32-bit ids whose entry storage lives with the caller.  The caller
/// keeps one stored 64-bit hash per id (so probe chains compare one
/// word before touching the entry) and supplies the entry-equality
/// predicate; the index only owns the slot array.  Growth at 3/4 load,
/// like FlatMap; no erase -- arenas only ever append.
class InternIndex {
public:
  InternIndex() : Slots(64, 0) {}

  /// The id interned under hash \p H for which \p Eq(id) holds, or
  /// UINT32_MAX when absent.  \p Hashes are the caller's per-id stored
  /// hashes.
  template <typename EqualFn>
  uint32_t find(uint64_t H, const std::vector<uint64_t> &Hashes,
                EqualFn Eq) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask; Slots[I] != 0; I = (I + 1) & Mask) {
      uint32_t Id = Slots[I] - 1;
      if (Hashes[Id] == H && Eq(Id))
        return Id;
    }
    return UINT32_MAX;
  }

  /// Records the freshly appended id \p Id under \p H, growing (and
  /// rehashing from \p Hashes) past 3/4 load.
  void insert(uint64_t H, uint32_t Id, const std::vector<uint64_t> &Hashes) {
    place(H, Id);
    if (Hashes.size() > Slots.size() - Slots.size() / 4) {
      Slots.assign(Slots.size() * 2, 0);
      for (uint32_t J = 0; J < Hashes.size(); ++J)
        place(Hashes[J], J);
    }
  }

  /// Logical footprint of the slot array (deterministic: growth depends
  /// only on the number of interned ids).
  uint64_t memoryBytes() const {
    return static_cast<uint64_t>(Slots.size()) * sizeof(uint32_t);
  }

private:
  void place(uint64_t H, uint32_t Id) {
    size_t Mask = Slots.size() - 1;
    size_t I = H & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    Slots[I] = Id + 1;
  }

  std::vector<uint32_t> Slots; // Dense id + 1; 0 = empty slot.
};

/// Open-addressing hash set over the same machinery.
template <typename K, typename HashFn = IntKeyHash> class FlatSet {
public:
  size_t size() const { return M.size(); }
  bool empty() const { return M.empty(); }
  void reserve(size_t N) { M.reserve(N); }
  void clear() { M.clear(); }

  /// Inserts \p Key; returns true when it was not yet present.
  bool insert(const K &Key) { return M.tryEmplace(Key).second; }
  bool contains(const K &Key) const { return M.contains(Key); }
  bool erase(const K &Key) { return M.erase(Key); }

  /// Invokes \p Fn(key) for every element, in table order.
  template <typename Callback> void forEach(Callback Fn) const {
    M.forEach([&](const K &Key, const Unit &) { Fn(Key); });
  }

  /// Logical footprint of the backing arrays (see FlatMap::memoryBytes).
  uint64_t memoryBytes() const { return M.memoryBytes(); }

private:
  struct Unit {};
  FlatMap<K, Unit, HashFn> M;
};

} // namespace cuba

#endif // CUBA_SUPPORT_FLATHASH_H
