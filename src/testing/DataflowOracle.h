//===-- testing/DataflowOracle.h - Folds vs the full fold -------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential oracle for the per-fact taint folds (dataflow/TaintFolds.h),
/// the check the folds' separability rests on.  One annotated Boolean
/// program is compiled once per fact with only that fact folded into the
/// control state -- what `cuba dataflow` runs, each fold on the engine
/// FCR picks -- and once with every fact folded (the full fold, at most
/// MaxFullFacts facts, run through the explicit engine).  All of them
/// are driven in lockstep:
///
///  * per-round agreement: in every completed round, each fold's new
///    visible states equal the full fold's visible states projected onto
///    that fact's bit, less the projections seen in earlier rounds,
///  * verdict agreement: the sink-hit scan (dataflow/TaintFolds.h's
///    scanSinkHits, one shared function of the visible set) reports the
///    same leaks on both sides, compared over completed rounds only, so
///    budget truncation never fabricates a mismatch,
///  * mutation check: with InjectDropMaskGrowth the folds' saturations
///    drop every mask growth of an existing transition; the suite must
///    catch this on seeds whose folds take the symbolic route.
///
/// Budget exhaustion is never an error: the oracle compares only rounds
/// every engine completed and reports how far it got.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_TESTING_DATAFLOWORACLE_H
#define CUBA_TESTING_DATAFLOWORACLE_H

#include <optional>
#include <string>
#include <vector>

#include "bp/Translate.h"
#include "support/Limits.h"

namespace cuba::exec {
class ThreadPool;
} // namespace cuba::exec

namespace cuba::testing {

/// Configuration for one dataflow oracle run.
struct DataflowOracleOptions {
  /// Deepest context bound to compare round by round.
  unsigned MaxK = 4;
  /// Budget for each engine run; exhaustion truncates the comparison.
  ResourceLimits Limits{20'000, 2'000'000, 16, 0};
  /// When set, the explicit engines run their levels on this pool
  /// (parallel levels are bit-identical to serial ones); symbolic rounds
  /// are serial.
  exec::ThreadPool *Pool = nullptr;
  /// Mutation check: run the folds with psa_testing::InjectDropMaskGrowth
  /// set (a lost mask propagation in the symbolic route's saturations).
  /// The full fold is explicit-state and unaffected, so a correct oracle
  /// must mismatch on instances whose symbolic folds lose a state.
  bool InjectDropMaskGrowth = false;
};

/// Facts the full fold may hold: it has 2^facts times the control
/// states of the unfolded program.
constexpr size_t MaxFullFacts = 8;

/// The outcome of one dataflow oracle run.
struct DataflowOracleReport {
  /// One human-readable line per detected disagreement; empty == pass.
  std::vector<std::string> Mismatches;
  /// Rounds compared before a budget stopped an engine (k = 0..KCompared).
  unsigned KCompared = 0;
  bool FoldsExhausted = false;
  bool FullExhausted = false;
  /// The full fold was not built: more than MaxFullFacts facts, or the
  /// frontend size guard refused it.  The instance carries no comparison.
  bool FullRejected = false;
  /// The agreed verdict (meaningful when ok()): some sink observed a
  /// tainted fact within the compared rounds.
  bool Leak = false;
  /// Taint facts in the instance, and how many of their folds took the
  /// symbolic route, for suite statistics.
  size_t FactCount = 0;
  unsigned SymbolicFolds = 0;

  bool ok() const { return Mismatches.empty(); }
  /// All mismatch lines joined for diagnostics.
  std::string str() const;
};

/// One annotated program, re-parsed and analyzed as `cuba dataflow`
/// analyzes it (for translations of any fold set).
struct AnnotatedProgram {
  bp::Program Program;
  bp::SemaInfo Info;
};

/// Re-parses \p P from its printed text (Sema is not idempotent on an
/// analyzed tree, and callers hand in analyzed ones) and analyzes it.
/// The error names the stage that refused the program.
ErrorOr<AnnotatedProgram> reanalyze(const bp::Program &P);

/// Compiles \p P's folds and its full fold and runs the lockstep
/// comparison.  Only \p P's printed text is used downstream (the
/// program is re-parsed, so already-analyzed ASTs are fine).
DataflowOracleReport runDataflowOracle(const bp::Program &P,
                                       const DataflowOracleOptions &Opts = {});

/// Inserts seeded random source/sanitize/sink annotations over the
/// program's shared variables into the bodies of the functions some
/// thread can run (main's thread_create targets and their transitive
/// callees; main itself is never annotated).  When a shared variable
/// and such a function exist, every fact gets at least one source, one
/// sanitize and one sink.
void injectTaintAnnotations(bp::Program &P, uint64_t Seed);

/// The seed's program under the shape rotation, with seeded taint
/// annotations injected: the instance checkDataflowSeed runs.
bp::Program annotatedDataflowProgram(uint64_t Seed);

/// Convenience for the suite: the seed's annotatedDataflowProgram
/// through the oracle.  Returns
/// nullopt when the full fold was not built (callers skip such seeds).
std::optional<DataflowOracleReport>
checkDataflowSeed(uint64_t Seed, const DataflowOracleOptions &Opts = {});

} // namespace cuba::testing

#endif // CUBA_TESTING_DATAFLOWORACLE_H
