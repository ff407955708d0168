//===-- core/SymbolicAlgorithms.h - Alg. 3 over T(S_k) ----------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Alg. 3 instantiated with the symbolic engine (the paper's third
/// approach, Alg. 3(T(S_k)), Sec. 6): visible states are extracted from
/// per-thread pushdown store automata instead of explicit state sets, so
/// non-FCR systems with infinite R_k are handled.  In addition to the
/// plateau-plus-generators test, a round that discovers no new symbolic
/// state is a fixpoint of S and proves collapse outright (the symbolic
/// analogue of Scheme 1's test, made cheap by canonical languages).
///
/// The run partitions the threads into classes of interchangeable ones
/// (pds/ThreadSymmetry.h) and, when a class exists, explores one
/// canonical symbolic state per orbit; the det gauges symmetry.classes
/// and symmetry.threads report the partition.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_SYMBOLICALGORITHMS_H
#define CUBA_CORE_SYMBOLICALGORITHMS_H

#include "core/Algorithms.h"

namespace cuba {

/// Result of a symbolic run.
struct SymbolicRunResult {
  /// Merged outcome (ConvergedAt is the earliest conclusion).
  RunResult Run;
  /// Collapse bound from the plateau+generator test (Alg. 3 proper).
  std::optional<unsigned> TkCollapse;
  /// Collapse bound from the symbolic-state fixpoint test.
  std::optional<unsigned> SFixpoint;
  /// Number of symbolic states stored at the end of the run (canonical
  /// ones when the run had a thread symmetry).
  size_t SymbolicStates = 0;
  /// Number of distinct stack languages interned by the engine's
  /// DfaStore arena (every canonical form ever computed, deduplicated).
  size_t DistinctLanguages = 0;
};

/// Runs Alg. 3 with symbolic state sets on \p C.
SymbolicRunResult runAlg3Symbolic(const Cpds &C, const SafetyProperty &Prop,
                                  const RunOptions &Opts);

} // namespace cuba

#endif // CUBA_CORE_SYMBOLICALGORITHMS_H
