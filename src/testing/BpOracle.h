//===-- testing/BpOracle.h - Program-level differential oracle --*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Boolean-program pipeline oracle behind `cuba fuzz --mode bp`: one
/// generated program is pushed through every frontend stage and the
/// cross-engine harness, checking
///
///  * print/parse fixpoint: the AstPrinter output re-parses, and
///    printing the re-parse reproduces the text byte for byte,
///  * translation reproducibility: compiling the printed program twice
///    yields byte-identical .cpds text (the detector the injected
///    translate mutation bp_testing::InjectDropAssignRule must trip),
///  * CpdsIO round-trip: the translated system's .cpds text re-parses
///    and is a fixed point of print(parse(.)) -- i.e. --emit-cpds output
///    is always loadable again,
///  * frame pruning: translating every frame instead of only those
///    reachable from each thread's entry (bp::TranslateOptions::
///    AllFrames) yields the same visible states, by name, in every round
///    both symbolic engines complete,
///  * engine agreement: the full testing/DifferentialOracle battery on
///    the translated system.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTING_BPORACLE_H
#define CUBA_TESTING_BPORACLE_H

#include "bp/Ast.h"
#include "testing/DifferentialOracle.h"

namespace cuba::testing {

/// Configuration for one program-level oracle run.
struct BpOracleOptions {
  /// Budgets and toggles for the cross-engine phase.
  OracleOptions Engine;
  /// Mutation check: compile the second of the two translation runs
  /// with bp_testing::InjectDropAssignRule set.  A correct oracle must
  /// then report a mismatch on any program whose threads can reach an
  /// assignment.
  bool InjectTranslateBug = false;
};

/// The outcome of one program-level oracle run.
struct BpOracleReport {
  /// Frontend-stage disagreements (fixpoint, reproducibility, CpdsIO).
  std::vector<std::string> Mismatches;
  /// The cross-engine phase's report (empty when a frontend mismatch
  /// already stopped the pipeline).
  OracleReport Engine;
  /// The printed program, for reproduction dumps.
  std::string Source;

  bool ok() const { return Mismatches.empty() && Engine.ok(); }
  /// All mismatch lines (frontend then engine) joined for diagnostics.
  std::string str() const;
};

/// Runs every pipeline check on \p P (an unanalyzed or analyzed AST;
/// only its printed text is used downstream).
BpOracleReport runBpOracle(const bp::Program &P,
                           const BpOracleOptions &Opts = {});

/// Convenience for the fuzz loop and tests: generate the seed's program
/// under the shape rotation and run the oracle on it.
BpOracleReport checkBpSeed(uint64_t Seed, const BpOracleOptions &Opts = {});

} // namespace cuba::testing

#endif // CUBA_TESTING_BPORACLE_H
