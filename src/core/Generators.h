//===-- core/Generators.h - Generator sets (Sec. 4.1.2) ---------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generator set G of Eq. (2): visible states <q | s1..sn> where, for
/// some thread i, (q, si) can be the thread-visible state emerging from a
/// pop -- q is the target of a pop edge of Delta_i and si is either eps
/// or a symbol overwritten-under by some push of Delta_i.  Thm. 11 shows
/// G is a generator set in the sense of Def. 10: at a plateau, if all
/// reachable generators have been reached, the visible-state observation
/// sequence has converged.
///
/// G is purely syntactic and can be huge (all other threads' entries are
/// unconstrained), so it is never materialised; membership is evaluated
/// as a predicate, and G cap Z is obtained by filtering the finite set Z
/// (core/ZOverapprox filters Z's packed words, which Alg. 3's test then
/// keeps as words).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_GENERATORS_H
#define CUBA_CORE_GENERATORS_H

#include <vector>

#include "pds/Cpds.h"
#include "pds/VisibleSet.h"

namespace cuba {

/// Membership oracle for the generator set G of a CPDS.  The per-thread
/// pop-target and emerging-symbol sets are precomputed into dense flag
/// arrays, so one membership query is O(threads) array loads (the
/// oracle filters every state of Z and runs inside Alg. 3's plateau
/// test).
class GeneratorSet {
public:
  explicit GeneratorSet(const Cpds &C);

  /// True iff \p V is a generator (Eq. 2).
  bool contains(const VisibleState &V) const {
    for (unsigned I = 0; I < NumThreads; ++I) {
      // (q, eps) must be the target of a pop edge of Delta_i ...
      if (!PopTargetFlag[I][V.Q])
        continue;
      // ... and s_i is eps or a symbol some push writes underneath its
      // new top (the emerging candidates E of Alg. 2).
      Sym S = V.Tops[I];
      if (S == EpsSym || EmergingFlag[I][S])
        return true;
    }
    return false;
  }

  /// contains() on the word \p W packed by \p P, without unpacking it.
  bool containsWord(uint64_t W, const VisiblePacker &P) const {
    QState Q = static_cast<QState>(W >> P.sharedShift());
    for (unsigned I = 0; I < NumThreads; ++I) {
      if (!PopTargetFlag[I][Q])
        continue;
      Sym S = static_cast<Sym>((W & P.topMask(I)) >> P.topShift(I));
      if (S == EpsSym || EmergingFlag[I][S])
        return true;
    }
    return false;
  }

  /// Filters \p Candidates (e.g. the overapproximation Z) down to the
  /// generators among them; the relative order is preserved.
  std::vector<VisibleState>
  intersect(const std::vector<VisibleState> &Candidates) const;

private:
  unsigned NumThreads;
  /// Per thread: flag per shared state / per stack symbol (incl. eps).
  std::vector<std::vector<uint8_t>> PopTargetFlag;
  std::vector<std::vector<uint8_t>> EmergingFlag;
};

} // namespace cuba

#endif // CUBA_CORE_GENERATORS_H
