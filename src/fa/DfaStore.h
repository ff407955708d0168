//===-- fa/DfaStore.h - Hash-consed canonical DFAs --------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interning arena for canonical DFAs, mirroring pds/StackStore for
/// the symbolic data plane.  A regular stack language is a 32-bit DfaId
/// naming an interned CanonicalDfa; because canonical forms are unique
/// per language, two ids are equal iff the languages are equal, so:
///
///   - symbolic-state equality/hashing is O(threads) over ids instead of
///     re-hashing whole transition tables per probe;
///   - every distinct language's table is stored exactly once, however
///     many symbolic states <q | A_1..A_n> share it;
///   - ids key the engine's per-transaction and top-set caches as plain
///     integers.
///
/// Ids are dense and stable: entries are only ever appended, so ids
/// remain valid across arena growth.  Not thread-safe; each engine owns
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_FA_DFASTORE_H
#define CUBA_FA_DFASTORE_H

#include <vector>

#include "fa/Canonicalize.h"
#include "support/FlatHash.h"

namespace cuba {

/// Interned canonical-DFA handle.
using DfaId = uint32_t;

/// The interning arena.
class DfaStore {
public:
  /// Number of distinct interned languages.
  size_t size() const { return Dfas.size(); }

  /// Interns \p D: structurally equal canonical forms (i.e. equal
  /// languages) always receive the same id.
  DfaId intern(CanonicalDfa D);

  /// intern() with the structural hash precomputed (it must equal
  /// D.hash()).  The symbolic engine's parallel transactions hash their
  /// canonical forms off the serial commit path and intern here, so the
  /// ordered commit only probes and compares.
  DfaId intern(CanonicalDfa D, uint64_t Hash);

  /// The canonical form named by \p Id.  The id stays valid forever; the
  /// returned reference only until the next intern() (the arena vector
  /// may then grow and relocate its elements), so consume it before
  /// interning again rather than holding it.
  const CanonicalDfa &get(DfaId Id) const { return Dfas[Id]; }

  /// The cached structural hash of \p Id (computed once at interning).
  uint64_t hashOf(DfaId Id) const { return Hashes[Id]; }

  /// Logical footprint: per-DFA table bytes (a running counter updated
  /// on intern, so this is O(1)) plus hashes and intern index.  All
  /// terms are deterministic functions of the interned set.
  uint64_t memoryBytes() const {
    return TableBytes +
           static_cast<uint64_t>(Dfas.size()) *
               (sizeof(CanonicalDfa) + sizeof(uint64_t)) +
           Index.memoryBytes();
  }

private:
  std::vector<CanonicalDfa> Dfas;
  std::vector<uint64_t> Hashes;
  InternIndex Index;
  uint64_t TableBytes = 0;
};

} // namespace cuba

#endif // CUBA_FA_DFASTORE_H
