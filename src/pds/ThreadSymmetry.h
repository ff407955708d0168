//===-- pds/ThreadSymmetry.h - Classes of interchangeable threads -*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symmetry reduction for identical threads, the multiset view of
/// identical threads in Atig/Bouajjani/Qadeer (arXiv:1111.1011).
///
/// A *class* is a set of two or more threads with an identical Pds (the
/// same alphabet and the same rules in the same order; labels aside) and
/// an identical initial stack, such that swapping any two of them maps
/// the property's bad-pattern set onto itself.  Permuting a class's
/// threads then maps the transition relation, the initial state and the
/// property onto themselves (permutations never act on the shared state),
/// so every set the engines compute -- R_k, T(R_k), Z, G and the bad
/// states -- is closed under class permutations.  An engine may therefore
/// keep one representative per orbit: the *canonical* form, which sorts
/// each class's entries ascending in thread order.  It is the least
/// element of its orbit in the VisibleState order, so the first violating
/// state of a round is canonical, and reduced and unreduced runs report
/// the same witness.
///
/// The module owns both halves of that bookkeeping: canonicalization and
/// orbit sizes (how many states one canonical visible state stands for:
/// per class, the multinomial coefficient of its equal entries).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PDS_THREADSYMMETRY_H
#define CUBA_PDS_THREADSYMMETRY_H

#include <cstdint>
#include <vector>

#include "pds/Cpds.h"

namespace cuba {

class VisiblePacker;

/// The partition of one CPDS's threads into classes of interchangeable
/// threads, under one safety property.
class ThreadSymmetry {
public:
  static constexpr unsigned NoThread = UINT32_MAX;

  /// No classes: every thread is its own representative, canonical forms
  /// are the states themselves and every orbit is one state.  Engines
  /// built without a property run under it, unreduced.
  explicit ThreadSymmetry(const Cpds &C);

  /// The classes of \p C under \p Prop; \p C must be frozen.
  ThreadSymmetry(const Cpds &C, const SafetyProperty &Prop);

  /// The classes, each listing its threads in ascending order.
  const std::vector<std::vector<unsigned>> &classes() const {
    return Classes;
  }

  /// The number of threads that belong to some class.
  unsigned classifiedThreads() const;

  /// The lowest thread of \p T's class (\p T itself outside a class): the
  /// thread whose saturations and top sets the whole class shares.
  unsigned rep(unsigned T) const { return Rep[T]; }

  /// The thread before \p T in its class, NoThread for a class's first
  /// thread and for threads outside a class.
  unsigned prev(unsigned T) const { return Prev[T]; }

  /// True when Cols[T] repeats the entry of the thread before \p T in its
  /// class.  Equal entries are adjacent in canonical form, and that
  /// thread's moves (or top choices) cover \p T's up to a permutation.
  template <typename V> bool repeatsPrev(unsigned T, const V *Cols) const {
    return Prev[T] != NoThread && Cols[Prev[T]] == Cols[T];
  }

  /// Sorts the entries Cols[t] of \p T's class ascending in thread order
  /// (insertion sort: a row whose other entries are already sorted
  /// needs one pass).
  template <typename V> void sortClassOf(unsigned T, V *Cols) const {
    if (ClassOf[T] != NoClass)
      sortClass(Classes[ClassOf[T]], Cols);
  }

  /// Puts \p Cols (one entry per thread) into canonical form.
  template <typename V> void sortClasses(V *Cols) const {
    for (const std::vector<unsigned> &K : Classes)
      sortClass(K, Cols);
  }

  void canonicalize(VisibleState &V) const { sortClasses(V.Tops.data()); }

  /// The canonical form of the packed visible word \p W (\p P must be
  /// packable; a class's fields all have the same width).
  uint64_t canonicalize(uint64_t W, const VisiblePacker &P) const;

  /// The first thread of \p T's class whose entry Cols[t] is \p X (\p T
  /// itself outside a class, or when none is).  In a canonical row that
  /// thread stands for the whole run of entries equal to \p X.
  template <typename V>
  unsigned firstHolding(unsigned T, const V *Cols, V X) const {
    if (ClassOf[T] == NoClass)
      return T;
    for (unsigned U : Classes[ClassOf[T]])
      if (Cols[U] == X)
        return U;
    return T;
  }

  /// The number of visible states in the orbit of the canonical tops
  /// \p Tops: the product over classes of m! / (c_1! ... c_r!), where the
  /// c_i count equal entries.  Saturates at UINT64_MAX.
  uint64_t orbitSize(const Sym *Tops) const;

private:
  static constexpr unsigned NoClass = UINT32_MAX;

  template <typename V>
  static void sortClass(const std::vector<unsigned> &K, V *Cols) {
    for (size_t I = 1; I < K.size(); ++I) {
      V X = Cols[K[I]];
      size_t J = I;
      for (; J > 0 && X < Cols[K[J - 1]]; --J)
        Cols[K[J]] = Cols[K[J - 1]];
      Cols[K[J]] = X;
    }
  }

  std::vector<std::vector<unsigned>> Classes;
  std::vector<unsigned> Rep, Prev, ClassOf;
};

} // namespace cuba

#endif // CUBA_PDS_THREADSYMMETRY_H
