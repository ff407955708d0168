//===-- core/CubaDriver.h - The overall CUBA procedure ----------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level verifier of Sec. 6.  Given a CPDS and a property:
///
///   1: if the system satisfies FCR then
///   2:   Alg. 3(T(R_k)) in parallel with Scheme 1(R_k)   [explicit]
///   3: else
///   4:   Alg. 3(T(S_k))                                  [symbolic]
///
/// The "parallel" composition of line 2 is realised by evaluating both
/// convergence tests on a single engine per round; the first conclusion
/// wins, exactly as with two racing computations in lockstep.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_CORE_CUBADRIVER_H
#define CUBA_CORE_CUBADRIVER_H

#include "core/Algorithms.h"
#include "core/FcrCheck.h"

namespace cuba {

/// Which engine family a run used.
enum class ApproachKind {
  ExplicitCombined, ///< FCR held: Scheme 1(R_k) || Alg. 3(T(R_k)).
  Symbolic,         ///< FCR not established: Alg. 3(T(S_k)).
};

/// Options for the top-level driver.
struct DriverOptions {
  RunOptions Run;
  /// Skip the FCR test and force one approach (for ablations).
  std::optional<ApproachKind> Force;
};

/// Everything a Table 2 row needs.
struct DriverResult {
  FcrResult Fcr;
  ApproachKind Used = ApproachKind::ExplicitCombined;
  RunResult Run;
  /// Collapse of (R_k) when the explicit Scheme 1 concluded, or of the
  /// symbolic fixpoint test; unset when interrupted (printed as ">= k").
  std::optional<unsigned> RkCollapse;
  /// Collapse of the visible-state sequence when Alg. 3 concluded.
  std::optional<unsigned> TkCollapse;
};

/// Runs the Sec. 6 procedure on \p C.
DriverResult runCuba(const Cpds &C, const SafetyProperty &Prop,
                     const DriverOptions &Opts);

} // namespace cuba

#endif // CUBA_CORE_CUBADRIVER_H
