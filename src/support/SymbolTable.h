//===-- support/SymbolTable.h - String interning -----------------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns strings to dense 32-bit ids.  Shared-state and stack-symbol
/// names in parsed CPDS / Boolean-program inputs are interned once; the
/// analysis engines work purely on the ids.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_SUPPORT_SYMBOLTABLE_H
#define CUBA_SUPPORT_SYMBOLTABLE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/FlatHash.h"
#include "support/Hashing.h"

namespace cuba {

/// Finds the lowest id I with Names[I] == \p Name through \p Index,
/// which maps a name hash (hashString) to the lowest id carrying that
/// hash.  A hash shared by two distinct names falls back to scanning past
/// the owner, so the answer is exact either way.  Returns \p NotFound on
/// a miss.
inline uint32_t findName(const std::vector<std::string> &Names,
                         const FlatMap<uint64_t, uint32_t> &Index,
                         std::string_view Name, uint32_t NotFound) {
  const uint32_t *Owner = Index.find(hashString(Name));
  if (!Owner)
    return NotFound;
  for (size_t I = *Owner; I < Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<uint32_t>(I);
  return NotFound;
}

/// Bidirectional map between names and dense ids [0, size()).  Names are
/// indexed by hash (findName), so interning allocates no per-name node.
class SymbolTable {
public:
  /// Interns \p Name, returning its id; repeated calls with the same name
  /// return the same id.
  uint32_t intern(std::string_view Name) {
    uint32_t Id = lookup(Name);
    if (Id != UINT32_MAX)
      return Id;
    Id = size();
    Index.tryEmplace(hashString(Name), Id);
    Names.emplace_back(Name);
    return Id;
  }

  /// Returns the id of \p Name, or UINT32_MAX when it was never interned.
  uint32_t lookup(std::string_view Name) const {
    return findName(Names, Index, Name, UINT32_MAX);
  }

  bool contains(std::string_view Name) const {
    return lookup(Name) != UINT32_MAX;
  }

  const std::string &name(uint32_t Id) const {
    assert(Id < Names.size() && "symbol id out of range");
    return Names[Id];
  }

  uint32_t size() const { return static_cast<uint32_t>(Names.size()); }
  bool empty() const { return Names.empty(); }

private:
  std::vector<std::string> Names;
  /// Name hash -> lowest id with that hash.
  FlatMap<uint64_t, uint32_t> Index;
};

} // namespace cuba

#endif // CUBA_SUPPORT_SYMBOLTABLE_H
