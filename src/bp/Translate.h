//===-- bp/Translate.h - Boolean program to CPDS ------------------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles an analyzed Boolean program into a CPDS (the App. B
/// semantics).  Encoding:
///
/// * Shared state = valuation of the shared variables that some
///   statement reads or writes (a variable no statement touches stays 0
///   in every state, so it gets no bit; taint annotations do not count),
///   plus the hidden bits $ret (return-value registers, one bit per
///   thread, present when any function returns bool) and $lock (global
///   mutex for lock/unlock/atomic), plus a dedicated `err` state entered
///   on assertion failure.  The safety property of the result is "err is
///   unreachable".
/// * Stack symbol = (function, program point, valuation of the
///   function's parameters and locals); one PDS per created thread.
///   Only the frames a thread can reach are emitted: a worklist seeded
///   with the thread's entry frame emits each frame's rules over every
///   shared valuation and queues the frames those rules write, so symbol
///   ids follow discovery order and other threads' entries and uncalled
///   helpers cost nothing.  Reachability ignores the shared state, so a
///   reached frame may still have no run that gets there.  A frame's
///   expressions are evaluated once for all shared valuations, as
///   can-be-1 / can-be-0 bit masks (64 valuations per word); its rules
///   are then read off the masks valuation by valuation, in ascending
///   order.
/// * Calls push the callee's entry frame over the caller's return-site
///   frame (arguments are copied into the callee's parameter slots);
///   returns pop, with `return e` latching e into the thread's $ret bit,
///   which a `x := call f(...)` statement reads at its return site.
/// * `atomic { ... }` is sugar for lock; ...; unlock -- mutual exclusion
///   against other atomic sections, the usual Boolean-program reading.
/// * Shared variables and locals start at 0; nondeterministic initial
///   values are written explicitly (`x := *;`), as in the paper's
///   examples.
/// * `constrain e` filters assignments by evaluating e over the *post*
///   state (a simplification of primed-variable constraints; documented
///   in BUILDING.md, "Model reconstructions").
///
/// Size limits, checked as frames are reached: at most 4,000,000 rule
/// slots (reached frame x shared valuation pairs, summed over threads)
/// and fewer than 2^21 frames plus the bottom marker per thread.
/// threads x 2^bits is an exact floor of the slot count, checked before
/// any shared state is built.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_BP_TRANSLATE_H
#define CUBA_BP_TRANSLATE_H

#include <string_view>

#include "bp/Ast.h"
#include "bp/Sema.h"
#include "pds/CpdsIO.h"
#include "support/ErrorOr.h"

namespace cuba::bp_testing {

/// Testing hook for the program-level fuzz oracle's mutation check, the
/// translate-side analogue of testing::OracleOptions::InjectDropVisible:
/// when true, translateProgram silently drops the first `assign` rule it
/// would emit, simulating a lost transfer function.  The dual-compile
/// comparison in testing/BpOracle must flag this on any program whose
/// threads can reach an assignment.  Not thread-safe; reset to false
/// after use.
extern bool InjectDropAssignRule;

} // namespace cuba::bp_testing

namespace cuba::bp {

/// One sink site: observing \p Fact tainted with thread \p Thread's
/// control at stack frame \p Frame is a leak.
struct TaintSinkSite {
  unsigned Thread = 0;
  Sym Frame = 0;
  int Fact = -1;
};

/// Side table the dataflow client consumes (dataflow/TaintFolds.h): the
/// facts and where the sinks are.  Frames refer to the CpdsFile produced
/// by the same translateProgram call; every fold set gives the same
/// stack alphabets, so they refer to any fold of the program too.
struct TaintInfo {
  std::vector<std::string> FactNames;
  std::vector<TaintSinkSite> Sinks;
  /// Control-state bits of the unfolded translation, hidden bits
  /// included.  A folded system's control states are
  /// Q | (folded facts << SharedBits), the folded facts in fact order,
  /// with err renumbered last.
  unsigned SharedBits = 0;
};

struct TranslateOptions {
  /// The taint facts folded into the shared control state, bit i for
  /// fact i (SemaInfo::TaintFacts order): each gets a bit above the
  /// hidden $ret/$lock bits, which source sets and sanitize clears; sink
  /// stays a skip.  `cuba dataflow` folds one fact per translation; the
  /// dataflow oracle's reference folds them all.
  uint32_t FoldTaint = 0;
  /// When non-null, receives the taint side table.
  TaintInfo *Taint = nullptr;
  /// Testing only: emit every (function, pc, locals) frame, reachable
  /// or not, after the entry frame.  The program-level oracle
  /// (testing/BpOracle) checks that this changes no visible round.
  bool AllFrames = false;
};

/// Translates the analyzed program \p P; the returned system is frozen
/// and carries the assertion property.  Taint annotations translate to
/// skip-shaped rules labeled source/sanitize/sink; by default (and in
/// every non-dataflow pipeline) they are control no-ops, so any two fold
/// sets differ only in the fold bits -- same per-thread stack alphabets,
/// same symbol interning order, rule-for-rule isomorphic deltas.  (The
/// fold bits sit above every bit an expression or a bind reads, so they
/// reach no new frame.)  Records a det
/// `translate` span and adds the emitted frames and actions to the det
/// counters `bp.frames` and `bp.actions`.
ErrorOr<CpdsFile> translateProgram(const Program &P, const SemaInfo &Info,
                                   const TranslateOptions &Opts = {});

/// Convenience pipeline: lex, parse, analyze, translate.
ErrorOr<CpdsFile> compileBooleanProgram(std::string_view Source,
                                        const TranslateOptions &Opts = {});

} // namespace cuba::bp

#endif // CUBA_BP_TRANSLATE_H
