//===-- testing/DataflowOracle.h - Weighted-vs-folded oracle ----*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential oracle for the weighted dataflow client: one annotated
/// Boolean program is compiled twice -- the base translation with the
/// taint side table (what `cuba dataflow` runs through DataflowEngine)
/// and the naive product construction folding the fact bits into the
/// control state (TranslateOptions::FoldTaint, run through the ordinary
/// explicit engine) -- and the two pipelines are driven in lockstep:
///
///  * per-k agreement: the weighted engine's projected visible states
///    and the folded system's T(R_k) coincide in every completed round,
///  * verdict agreement: the sink-hit scan (dataflow/DataflowEngine.h's
///    scanSinkHits, one shared function of the visible set) reports the
///    same leaks on both sides, compared over completed rounds only, so
///    budget truncation never fabricates a mismatch,
///  * mutation check: with InjectDropCombine the weighted saturation
///    drops every `combine` into an existing transition
///    (psa_testing::InjectDropMaskGrowth); the suite must catch this on
///    seeds whose saturations revisit transitions.
///
/// Budget exhaustion is never an error: the oracle compares only rounds
/// both engines completed and reports how far it got.
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
  /// When set, the folded explicit reference runs its levels on this
  /// pool (parallel levels are bit-identical to serial ones); the
  /// weighted engine's rounds are serial.
  exec::ThreadPool *Pool = nullptr;
  /// Mutation check: run the weighted engine's saturations with
  /// psa_testing::InjectDropMaskGrowth set (a lost `combine`).  The
  /// folded reference is explicit-state and unaffected, so a correct
  /// oracle must mismatch on any instance whose saturation accumulates.
  bool InjectDropCombine = false;
};

/// The outcome of one dataflow oracle run.
struct DataflowOracleReport {
  /// One human-readable line per detected disagreement; empty == pass.
  std::vector<std::string> Mismatches;
  /// Rounds compared before a budget stopped an engine (k = 0..KCompared).
  unsigned KCompared = 0;
  bool WeightedExhausted = false;
  bool FoldedExhausted = false;
  /// The folded translation exceeded the frontend size guard (the
  /// 2^facts control blowup): the instance carries no comparison.
  bool FoldedRejected = false;
  /// The agreed verdict (meaningful when ok()): some sink observed a
  /// tainted fact within the compared rounds.
  bool Leak = false;
  /// Taint facts in the instance, for suite statistics.
  size_t FactCount = 0;

  bool ok() const { return Mismatches.empty(); }
  /// All mismatch lines joined for diagnostics.
  std::string str() const;
};

/// One annotated program compiled the way `cuba dataflow` compiles it:
/// the base translation with its taint side table, plus the fresh tree
/// and analysis it came from (for further translations of that tree).
struct AnnotatedBase {
  bp::Program Program;
  bp::SemaInfo Info;
  CpdsFile Base;
  bp::TaintInfo Taint;
};

/// Re-parses \p P from its printed text (Sema is not idempotent on an
/// analyzed tree, and callers hand in analyzed ones), analyzes it and
/// translates it with the taint side table.  The error names the stage
/// that refused the program.
ErrorOr<AnnotatedBase> annotatedBaseTranslation(const bp::Program &P);

/// Compiles \p P through both pipelines and runs the lockstep
/// comparison.  Only \p P's printed text is used downstream (the
/// program is re-parsed, so already-analyzed ASTs are fine).
DataflowOracleReport runDataflowOracle(const bp::Program &P,
                                       const DataflowOracleOptions &Opts = {});

/// Inserts seeded random source/sanitize/sink annotations over the
/// program's shared variables into its non-main function bodies; at
/// least one source and one sink are always placed when a shared
/// variable and a non-main function exist.
void injectTaintAnnotations(bp::Program &P, uint64_t Seed);

/// The seed's program under the shape rotation, with seeded taint
/// annotations injected: the instance checkDataflowSeed runs.
bp::Program annotatedDataflowProgram(uint64_t Seed);

/// Convenience for the suite: the seed's annotatedDataflowProgram
/// through the oracle.  Returns
/// nullopt when the folded product was rejected by the size guard
/// (callers skip such seeds).
std::optional<DataflowOracleReport>
checkDataflowSeed(uint64_t Seed, const DataflowOracleOptions &Opts = {});

} // namespace cuba::testing

#endif // CUBA_TESTING_DATAFLOWORACLE_H
