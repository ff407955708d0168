//===-- core/Algorithms.cpp - Scheme 1 and Alg. 3 (explicit) --------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/Algorithms.h"

#include <algorithm>

#include "core/CbaEngine.h"
#include "core/ObservationSequence.h"
#include "core/ZOverapprox.h"
#include "pds/CpdsIO.h"
#include "support/Timer.h"

using namespace cuba;

namespace {

/// Shared loop for the explicit procedures; each test can be enabled
/// independently, and the combined driver enables both.
class ExplicitRunner {
public:
  ExplicitRunner(const Cpds &C, const SafetyProperty &Prop,
                 const RunOptions &Opts, bool UseScheme1, bool UseAlg3)
      : C(C), Prop(Prop), Opts(Opts), UseScheme1(UseScheme1),
        UseAlg3(UseAlg3), Engine(C, Opts.Limits),
        Generators(C, Opts.Limits, ThreadSymmetry(C)) {
    Engine.setExpandAll(Opts.ExpandAll);
    Engine.setParallel(Opts.Pool);
  }

  ExplicitCombinedResult run() {
    WallTimer Timer;
    ExplicitCombinedResult R;

    // G cap Z depends on the CPDS alone: with spare workers it is built
    // beside the rounds.  Scheme 1 alone never reads it.
    if (UseAlg3)
      Generators.start(Opts.Pool);

    RkSizes.record(Engine.reachedSize());   // |R_0|
    TkSizes.record(Engine.visibleSize());   // |T(R_0)|
    checkViolations(R.Run);

    unsigned MaxK = Opts.Limits.MaxContexts ? Opts.Limits.MaxContexts
                                            : UINT32_MAX;
    while (Engine.bound() < MaxK) {
      if (R.Run.BugBound && !Opts.ContinueAfterBug)
        break;
      if (Engine.advance() == CbaEngine::RoundStatus::Exhausted) {
        R.Run.Exhausted = true;
        break;
      }
      RkSizes.record(Engine.reachedSize());
      TkSizes.record(Engine.visibleSize());
      checkViolations(R.Run);

      // Scheme 1, line 4: a plateau of the stutter-free (R_k) is a
      // collapse (Lemma 7 + Prop. 4).
      if (UseScheme1 && !R.RkCollapse && RkSizes.plateauAtLatest())
        R.RkCollapse = Engine.bound() - 1;

      // Alg. 3, line 4: a new plateau of (T(R_k)) plus the generator
      // test G cap Z <= T(R_k).
      if (UseAlg3 && !R.TkCollapse && TkSizes.newPlateauAtLatest() &&
          Generators.coveredBy(Engine))
        R.TkCollapse = Engine.bound() - 1;

      if (concluded(R))
        break;
    }
    if (Engine.bound() >= MaxK && !concluded(R) && !R.Run.BugBound)
      R.Run.Exhausted = true;
    Generators.finish();

    if (R.RkCollapse && R.TkCollapse)
      R.Run.ConvergedAt = std::min(*R.RkCollapse, *R.TkCollapse);
    else if (R.RkCollapse)
      R.Run.ConvergedAt = R.RkCollapse;
    else if (R.TkCollapse)
      R.Run.ConvergedAt = R.TkCollapse;

    R.Run.KMax = Engine.bound();
    R.Run.StatesStored = Engine.reachedSize();
    R.Run.VisibleStates = Engine.visibleSize();
    R.Run.Millis = Timer.millis();
    // None when only the context bound ran out (the loop above exited on
    // MaxK); a tracker axis otherwise.
    R.Run.ExhaustedBy = Engine.limits().reason();
    return R;
  }

private:
  /// One procedure concluding ends the run ("return the answer of
  /// whichever terminates first").  ContinueAfterBug only delays the
  /// bug-found exit, not the convergence exit.
  bool concluded(const ExplicitCombinedResult &R) const {
    return (UseScheme1 && R.RkCollapse.has_value()) ||
           (UseAlg3 && R.TkCollapse.has_value());
  }

  void checkViolations(RunResult &Run) {
    if (Run.BugBound || Prop.trivial())
      return;
    for (const VisibleState &V : Engine.newVisibleThisRound()) {
      if (!Prop.violatedBy(V))
        continue;
      Run.BugBound = Engine.bound();
      Run.Witness = toString(C, V);
      if (Opts.BuildTrace)
        Run.Trace = formatTrace(Engine.traceToVisible(V));
      return;
    }
  }

  /// Renders a counterexample, one "thread/action: state" line per step.
  std::string formatTrace(const std::vector<TraceStep> &Steps) const {
    std::string Out;
    for (const TraceStep &S : Steps) {
      if (Out.empty()) {
        Out += "  initial:  " + toString(C, S.State) + "\n";
        continue;
      }
      Out += "  " + C.threadName(S.Thread) + "/" + S.Label + ": " +
             toString(C, S.State) + "\n";
    }
    return Out;
  }

  const Cpds &C;
  const SafetyProperty &Prop;
  const RunOptions &Opts;
  bool UseScheme1, UseAlg3;
  CbaEngine Engine;
  GeneratorTest Generators;
  ObservationTracker RkSizes, TkSizes;
};

/// The engine's construction allocates too, so it runs guarded along
/// with the loop.
ExplicitCombinedResult runExplicitGuarded(const Cpds &C,
                                          const SafetyProperty &Prop,
                                          const RunOptions &Opts,
                                          bool UseScheme1, bool UseAlg3) {
  return runGuarded<ExplicitCombinedResult>([&] {
    ExplicitRunner R(C, Prop, Opts, UseScheme1, UseAlg3);
    return R.run();
  });
}

} // namespace

RunResult cuba::runScheme1Explicit(const Cpds &C, const SafetyProperty &Prop,
                                   const RunOptions &Opts) {
  return runExplicitGuarded(C, Prop, Opts, /*UseScheme1=*/true,
                            /*UseAlg3=*/false)
      .Run;
}

RunResult cuba::runAlg3Explicit(const Cpds &C, const SafetyProperty &Prop,
                                const RunOptions &Opts) {
  return runExplicitGuarded(C, Prop, Opts, /*UseScheme1=*/false,
                            /*UseAlg3=*/true)
      .Run;
}

ExplicitCombinedResult cuba::runExplicitCombined(const Cpds &C,
                                                 const SafetyProperty &Prop,
                                                 const RunOptions &Opts) {
  return runExplicitGuarded(C, Prop, Opts, /*UseScheme1=*/true,
                            /*UseAlg3=*/true);
}
