//===-- core/CubaDriver.cpp - The overall CUBA procedure ------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/CubaDriver.h"

#include "obs/Trace.h"
#include "support/FaultInject.h"

using namespace cuba;

DriverResult cuba::runCuba(const Cpds &C, const SafetyProperty &Prop,
                           const DriverOptions &Opts) {
  DriverResult R;
  // The FCR saturations run under the run's budget: an exhausted check
  // reports Holds = false / Complete = false, which routes to the
  // symbolic engine -- the documented "unknown" behavior -- instead of
  // diverging before the engines ever see their limits.  An allocation
  // failure (real or injected) during the check degrades the same way:
  // incomplete answer, never a crash.
  LimitTracker FcrLimits(Opts.Run.Limits);
  auto SafeFcr = [&]() -> FcrResult {
    obs::ScopedSpan Span("fcr", obs::Trace::CatDet);
    try {
      FcrResult Res = checkFcr(C, &FcrLimits);
      Span.arg("holds", Res.Holds);
      Span.arg("complete", Res.Complete);
      Span.arg("helpers", Res.Helpers);
      Span.arg("steps", FcrLimits.steps());
      return Res;
    } catch (const std::bad_alloc &) {
      FcrResult Failed;
      Failed.Complete = false; // Holds stays false: "unknown".
      return Failed;
    }
  };
  if (Opts.Force) {
    R.Used = *Opts.Force;
    // The FCR answer is still reported for the record.
    R.Fcr = SafeFcr();
  } else {
    R.Fcr = SafeFcr();
    R.Used = R.Fcr.Holds ? ApproachKind::ExplicitCombined
                         : ApproachKind::Symbolic;
  }

  RoundsResult Rounds = R.Used == ApproachKind::ExplicitCombined
                            ? runExplicitCombined(C, Prop, Opts.Run)
                            : runAlg3Symbolic(C, Prop, Opts.Run);
  R.Run = std::move(Rounds.Run);
  R.RkCollapse = Rounds.RkCollapse;
  R.TkCollapse = Rounds.TkCollapse;
  return R;
}
