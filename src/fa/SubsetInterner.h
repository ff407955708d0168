//===-- fa/SubsetInterner.h - Flat interner for state vectors ---*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interner behind fa/Canonicalize: uint32 vectors (subset-
/// construction state sets, minimisation signatures) are stored back to
/// back in one flat pool and named by dense 32-bit ids through a shared
/// InternIndex probe table.  Vectors are compared verbatim, so callers
/// that need canonical identity (the subset construction) must intern
/// sorted duplicate-free vectors.  Replaces the former
/// std::map<std::vector<uint32_t>, uint32_t> (a node allocation plus
/// O(log n) lexicographic vector comparisons per probe) with hashed
/// probes over contiguous storage; stored hashes filter almost all
/// probe-chain comparisons down to one word.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_FA_SUBSETINTERNER_H
#define CUBA_FA_SUBSETINTERNER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/FaultInject.h"
#include "support/FlatHash.h"

namespace cuba::detail {

class SubsetInterner {
public:
  explicit SubsetInterner(uint32_t ExpectedStatesPerSubset) {
    Pool.reserve(64 * static_cast<size_t>(
                          ExpectedStatesPerSubset ? ExpectedStatesPerSubset
                                                  : 1));
    Off.reserve(65);
    Off.push_back(0);
    Hashes.reserve(64);
  }

  uint32_t numSubsets() const {
    return static_cast<uint32_t>(Off.size() - 1);
  }

  const uint32_t *begin(uint32_t Id) const { return Pool.data() + Off[Id]; }
  const uint32_t *end(uint32_t Id) const { return Pool.data() + Off[Id + 1]; }
  size_t size(uint32_t Id) const { return Off[Id + 1] - Off[Id]; }

  /// Interns \p Subset (compared verbatim); returns its id and whether
  /// it was newly added.
  std::pair<uint32_t, bool> intern(const std::vector<uint32_t> &Subset) {
    uint64_t H = hashRange(Subset.begin(), Subset.end());
    uint32_t Found = Index.find(H, Hashes, [&](uint32_t Id) {
      size_t Len = Off[Id + 1] - Off[Id];
      return Len == Subset.size() &&
             std::equal(Subset.begin(), Subset.end(), Pool.begin() + Off[Id]);
    });
    if (Found != UINT32_MAX)
      return {Found, false};
    fault::checkAlloc();
    uint32_t Id = numSubsets();
    Pool.insert(Pool.end(), Subset.begin(), Subset.end());
    Off.push_back(static_cast<uint32_t>(Pool.size()));
    Hashes.push_back(H);
    Index.insert(H, Id, Hashes);
    return {Id, true};
  }

  /// Logical footprint of the pool, offsets, hashes, and probe table.
  uint64_t memoryBytes() const {
    return (static_cast<uint64_t>(Pool.size()) + Off.size()) *
               sizeof(uint32_t) +
           static_cast<uint64_t>(Hashes.size()) * sizeof(uint64_t) +
           Index.memoryBytes();
  }

private:
  std::vector<uint32_t> Pool;
  std::vector<uint32_t> Off; // Subset Id spans Pool[Off[Id], Off[Id+1]).
  std::vector<uint64_t> Hashes;
  InternIndex Index;
};

} // namespace cuba::detail

#endif // CUBA_FA_SUBSETINTERNER_H
