//===-- pds/State.h - Global and visible CPDS states ------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global states <q | w1, ..., wn> of a concurrent pushdown system and
/// their visible projections <q | T(w1), ..., T(wn)> (Sec. 2.2).  Stacks
/// are stored with the top at the back so push/pop are O(1); printing
/// renders top-first to match the paper's notation.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PDS_STATE_H
#define CUBA_PDS_STATE_H

#include <compare>
#include <cstddef>
#include <vector>

#include "pds/Pds.h"
#include "support/Hashing.h"

namespace cuba {

/// One thread's stack; element back() is the top symbol sigma_1.
using Stack = std::vector<Sym>;

/// Extracts the top symbol of \p W, or EpsSym when the stack is empty
/// (the function T of Eq. 1 applied to a single stack).
inline Sym topOf(const Stack &W) { return W.empty() ? EpsSym : W.back(); }

/// A global state <q | w1, ..., wn> of an n-thread CPDS.
struct GlobalState {
  QState Q = 0;
  std::vector<Stack> Stacks;

  bool operator==(const GlobalState &) const = default;
  auto operator<=>(const GlobalState &) const = default;
};

/// A visible state <q | s1, ..., sn>: the shared state plus the top of
/// each stack (EpsSym for empty stacks).  This is T(s) of Sec. 2.2; the
/// domain of visible states is finite.
struct VisibleState {
  QState Q = 0;
  std::vector<Sym> Tops;

  bool operator==(const VisibleState &) const = default;
  auto operator<=>(const VisibleState &) const = default;
};

/// Projects a global state to its visible state.
inline VisibleState project(const GlobalState &S) {
  VisibleState V;
  V.Q = S.Q;
  V.Tops.reserve(S.Stacks.size());
  for (const Stack &W : S.Stacks)
    V.Tops.push_back(topOf(W));
  return V;
}

struct GlobalStateHash {
  size_t operator()(const GlobalState &S) const {
    uint64_t H = hashCombine(0x1234, S.Q);
    for (const Stack &W : S.Stacks) {
      H = hashCombine(H, W.size());
      H = hashCombine(H, hashRange(W.begin(), W.end()));
    }
    return static_cast<size_t>(H);
  }
};

struct VisibleStateHash {
  size_t operator()(const VisibleState &V) const {
    uint64_t H = hashCombine(0x5678, V.Q);
    H = hashCombine(H, hashRange(V.Tops.begin(), V.Tops.end()));
    return static_cast<size_t>(H);
  }
};

} // namespace cuba

#endif // CUBA_PDS_STATE_H
