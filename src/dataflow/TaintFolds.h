//===-- dataflow/TaintFolds.h - Taint queries as per-fact folds -*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural GEN/KILL taint analysis of an annotated Boolean
/// program, one ordinary CUBA run per fact.
///
/// Taint annotations are control no-ops: source/sanitize/sink never
/// change a control bit or a frame the program's own statements read.
/// So whether fact d may be tainted when a thread sits at a sink depends
/// on d's bit alone, and a fact's question is answered exactly by the
/// *fold* of that fact: the program translated with only d's bit added
/// to the control state (bp::TranslateOptions::FoldTaint), which source
/// sets and sanitize clears.  Every visible state of the fold at round k
/// is the projection onto d's bit of a visible state of the fold of all
/// facts at round k, and conversely, because the runs of the two systems
/// are the same runs of the program.  The dataflow oracle
/// (testing/DataflowOracle.h) pins this round by round.
///
/// Each fold then runs on the paper's own engines, chosen as runCuba
/// chooses: the explicit R_k (CbaEngine) when FCR holds (Sec. 5),
/// otherwise the symbolic S_k (SymbolicEngine, App. E), to the context
/// bound or until the frontier is empty.  A sink hit is a visible state
/// whose sink thread sits at the sink frame with the fact bit set, so a
/// fact without a sink site in a reached frame cannot leak at any bound,
/// and its fold does not run.
///
/// The folds run in fact order and share one budget: the states, steps
/// and time the earlier folds spent are gone for the later ones, and a
/// fold starts only while every limited axis has some left.  The byte
/// budget bounds each fold's own peak.  The first fold to exhaust the
/// budget ends the run.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_DATAFLOW_TAINTFOLDS_H
#define CUBA_DATAFLOW_TAINTFOLDS_H

#include <bit>
#include <vector>

#include "bp/Translate.h"
#include "support/Limits.h"

namespace cuba {

namespace exec {
class ThreadPool;
} // namespace exec

/// One concrete leak: thread \p Thread sits at sink frame \p Frame (a
/// top-of-stack in some reachable visible state) while fact \p Fact may
/// be tainted; \p Round is the context bound it was first seen at.
struct SinkHit {
  unsigned Thread = 0;
  Sym Frame = 0;
  int Fact = -1;
  unsigned Round = 0;

  auto operator<=>(const SinkHit &) const = default;
};

/// Scans the visible set of a system translated with the facts
/// \p Folded folded into Q (first-seen rounds attached) against the sink
/// table: a hit is a state whose thread sits at a sink frame of a folded
/// fact while that fact's bit is set.  Entries first seen after
/// \p MaxRound are ignored, making comparisons safe under budget
/// truncation.
std::vector<SinkHit>
scanSinkHits(const std::vector<std::pair<VisibleState, unsigned>> &Visible,
             const bp::TaintInfo &Taint, uint32_t Folded,
             unsigned MaxRound = UINT32_MAX);

/// The err state of a system with \p Folded folded: one past the states
/// its fold bits span.
inline QState foldErr(const bp::TaintInfo &Taint, uint32_t Folded) {
  return static_cast<QState>(1)
         << (Taint.SharedBits + std::popcount(Folded));
}

/// One fact's fold, as far as it ran.
struct FactFold {
  int Fact = -1;
  /// The route: the explicit engine when FCR held, else the symbolic one.
  bool Explicit = false;
  /// The bound k the fold's rounds completed.
  unsigned Bound = 0;
  /// The frontier emptied: no bound adds a state.
  bool Converged = false;
  /// Stored states (|R_k| or |S_k|), |T(R_k)|, and retained saturations
  /// (symbolic route only).
  uint64_t States = 0;
  uint64_t Visible = 0;
  uint64_t Saturations = 0;
  /// The fold's logical byte peak.
  uint64_t PeakBytes = 0;
  /// Every visible state with its first-seen round, in the fold's
  /// coordinates; filled only under TaintFoldOptions::KeepVisible.
  std::vector<std::pair<VisibleState, unsigned>> FirstSeen;
};

struct TaintFoldOptions {
  /// The run's one budget; MaxContexts caps every fold's bound.
  ResourceLimits Limits;
  /// When set, explicit folds fan their large levels out on this pool
  /// (bit-identical to serial levels).  Symbolic rounds are serial.
  exec::ThreadPool *Pool = nullptr;
  /// Keep each fold's visible states (FactFold::FirstSeen).
  bool KeepVisible = false;
};

/// The outcome of the folds of one program.
struct TaintFoldResult {
  /// The facts, sink sites and control bits (from the first fact's
  /// translation; every fold records the same).
  bp::TaintInfo Taint;
  /// The first fact's translation, for naming frames: every fold has the
  /// same stack alphabets.  Empty when the program has no facts.
  CpdsFile Names;
  /// The folds run, in fact order (facts without a sink site have none);
  /// an exhausted fold is the last one.
  std::vector<FactFold> Folds;
  /// Every fold's sink hits, sorted; empty == no leak.
  std::vector<SinkHit> Hits;
  /// The budget axis that ended the run, None when every fold reached
  /// its bound or its fixpoint.
  ExhaustKind ExhaustedBy = ExhaustKind::None;

  bool exhausted() const { return ExhaustedBy != ExhaustKind::None; }
};

/// Answers every taint fact of the analyzed program \p P that has a sink
/// site with one fold; a program without facts runs no fold.  Fails only
/// when a translation is refused.  Records a det `fold` span per fold
/// run and counts them in the det counter `dataflow.folds`.
ErrorOr<TaintFoldResult> runTaintFolds(const bp::Program &P,
                                       const bp::SemaInfo &Info,
                                       const TaintFoldOptions &Opts);

} // namespace cuba

#endif // CUBA_DATAFLOW_TAINTFOLDS_H
