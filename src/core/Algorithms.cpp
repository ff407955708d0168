//===-- core/Algorithms.cpp - Scheme 1 and Alg. 3 -------------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/Algorithms.h"

#include <type_traits>

#include "core/CbaEngine.h"
#include "core/ObservationSequence.h"
#include "core/SymbolicEngine.h"
#include "core/ZOverapprox.h"
#include "obs/Metrics.h"
#include "pds/CpdsIO.h"
#include "pds/ThreadSymmetry.h"
#include "pds/VisibleSet.h"
#include "support/Timer.h"

using namespace cuba;

namespace {

/// Renders a counterexample, one "thread/action: state" line per step.
std::string formatTrace(const Cpds &C, const std::vector<TraceStep> &Steps) {
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

/// The least visible state first reached in \p Engine's current round
/// that violates the property, if any.  \p Bad is the property compiled
/// to the engine's words: when it compiled, the round's words are
/// scanned and only the least violating one is unpacked (the packing
/// preserves order, so it is the least violating state); otherwise the
/// round's sorted states are tested against \p Prop.
template <typename EngineT>
std::optional<VisibleState> leastViolation(const EngineT &Engine,
                                           const PackedProperty &Bad,
                                           const SafetyProperty &Prop) {
  if (Bad.compiled()) {
    if (std::optional<uint64_t> W =
            Bad.leastViolation(Engine.newVisibleWordsThisRound()))
      return Engine.visiblePacker().unpack(*W);
    return std::nullopt;
  }
  for (const VisibleState &V : Engine.newVisibleThisRound())
    if (Prop.violatedBy(V))
      return V;
  return std::nullopt;
}

/// The round loop: advances \p Engine one context bound per round and
/// applies the enabled tests to each round; the first conclusion ends
/// the run ("return the answer of whichever terminates first").
/// ContinueAfterBug only delays the bug-found exit, not the convergence
/// exit.  G cap Z is explored on the orbits of \p Symmetry, a symmetry
/// of \p C and \p Prop (see GeneratorTest).  Fills every field of the
/// result but Run.StatesStored, which the caller reads off its engine.
template <typename EngineT>
RoundsResult runRounds(EngineT &Engine, ThreadSymmetry Symmetry,
                       const Cpds &C, const SafetyProperty &Prop,
                       const RunOptions &Opts, bool UseScheme1,
                       bool UseAlg3) {
  WallTimer Timer;
  RoundsResult R;
  GeneratorTest Generators(C, Opts.Limits, std::move(Symmetry));
  // The plateaus of T are tracked on its orbit count: it plateaus
  // exactly when |T| does, but never saturates as the symbolic orbit sum
  // can (two saturated rounds would read as a plateau).
  ObservationTracker TkSizes;
  const PackedProperty Bad(Prop, Engine.visiblePacker());

  auto CheckViolations = [&] {
    if (R.Run.BugBound || Prop.trivial())
      return;
    std::optional<VisibleState> V = leastViolation(Engine, Bad, Prop);
    if (!V)
      return;
    R.Run.BugBound = Engine.bound();
    R.Run.Witness = toString(C, *V);
    if constexpr (std::is_same_v<EngineT, CbaEngine>)
      if (Opts.BuildTrace)
        R.Run.Trace = formatTrace(C, Engine.traceToVisible(*V));
  };

  // G cap Z depends on the CPDS alone: with spare workers it is built
  // beside the rounds.  Scheme 1 alone never reads it.
  if (UseAlg3)
    Generators.start(Opts.Pool);

  TkSizes.record(Engine.visibleOrbits()); // T(R_0)
  CheckViolations();

  unsigned MaxK =
      Opts.Limits.MaxContexts ? Opts.Limits.MaxContexts : UINT32_MAX;
  while (Engine.bound() < MaxK) {
    if (R.Run.BugBound && !Opts.ContinueAfterBug)
      break;
    if (Engine.advance() == EngineT::RoundStatus::Exhausted) {
      R.Run.Exhausted = true;
      break;
    }
    TkSizes.record(Engine.visibleOrbits());
    CheckViolations();

    // Scheme 1, line 4: a plateau of the stutter-free (R_k) is a
    // collapse (Lemma 7 + Prop. 4); the frontier is R_k \ R_{k-1}.
    if (UseScheme1 && !R.RkCollapse && Engine.frontierEmpty())
      R.RkCollapse = Engine.bound() - 1;

    // Alg. 3, line 4: a new plateau of (T(R_k)) plus the generator
    // test G cap Z <= T(R_k).
    if (UseAlg3 && !R.TkCollapse && TkSizes.newPlateauAtLatest() &&
        Generators.coveredBy(Engine))
      R.TkCollapse = Engine.bound() - 1;

    if (R.RkCollapse || R.TkCollapse)
      break;
  }
  // Both tests ran in the concluding round, so when both concluded
  // they agree.
  R.Run.ConvergedAt = R.RkCollapse ? R.RkCollapse : R.TkCollapse;
  if (Engine.bound() >= MaxK && !R.Run.ConvergedAt && !R.Run.BugBound)
    R.Run.Exhausted = true;
  Generators.finish();

  R.Run.KMax = Engine.bound();
  R.Run.VisibleStates = Engine.visibleSize();
  R.Run.Millis = Timer.millis();
  // None when only the context bound ran out (the loop above exited on
  // MaxK); a tracker axis otherwise.
  R.Run.ExhaustedBy = Engine.limits().reason();
  return R;
}

/// The classes of interchangeable threads a run reduces by, reported in
/// the det gauges symmetry.classes and symmetry.threads.
ThreadSymmetry classifyThreads(const Cpds &C, const SafetyProperty &Prop) {
  static obs::Gauge SymClasses("symmetry.classes");
  static obs::Gauge SymThreads("symmetry.threads");
  ThreadSymmetry Symmetry(C, Prop);
  SymClasses.recordMax(Symmetry.classes().size());
  SymThreads.recordMax(Symmetry.classifiedThreads());
  return Symmetry;
}

/// The engine's construction allocates too, so it runs guarded along
/// with the loop.  The engine stores every state, but G cap Z is built on
/// orbits: class threads share their Pds and initial stack and the
/// property is symmetric, so T(R_k) is closed under the class
/// permutations.
RoundsResult runExplicit(const Cpds &C, const SafetyProperty &Prop,
                         const RunOptions &Opts, bool UseScheme1,
                         bool UseAlg3) {
  return runGuarded<RoundsResult>([&] {
    CbaEngine Engine(C, Opts.Limits);
    Engine.setExpandAll(Opts.ExpandAll);
    Engine.setParallel(Opts.Pool);
    RoundsResult R = runRounds(Engine, classifyThreads(C, Prop), C, Prop,
                               Opts, UseScheme1, UseAlg3);
    R.Run.StatesStored = Engine.reachedSize();
    return R;
  });
}

} // namespace

RunResult cuba::runScheme1Explicit(const Cpds &C, const SafetyProperty &Prop,
                                   const RunOptions &Opts) {
  return runExplicit(C, Prop, Opts, /*UseScheme1=*/true, /*UseAlg3=*/false)
      .Run;
}

RunResult cuba::runAlg3Explicit(const Cpds &C, const SafetyProperty &Prop,
                                const RunOptions &Opts) {
  return runExplicit(C, Prop, Opts, /*UseScheme1=*/false, /*UseAlg3=*/true)
      .Run;
}

RoundsResult cuba::runExplicitCombined(const Cpds &C,
                                       const SafetyProperty &Prop,
                                       const RunOptions &Opts) {
  return runExplicit(C, Prop, Opts, /*UseScheme1=*/true, /*UseAlg3=*/true);
}

RoundsResult cuba::runAlg3Symbolic(const Cpds &C, const SafetyProperty &Prop,
                                   const RunOptions &Opts) {
  return runGuarded<RoundsResult>([&] {
    // Classes of interchangeable threads: with one, the rounds and G cap
    // Z run on orbits.  Visible counts, plateaus, generator coverage and
    // the first violation are those of the unreduced run.
    ThreadSymmetry Symmetry = classifyThreads(C, Prop);
    SymbolicEngine Engine(C, Opts.Limits, Symmetry);
    RoundsResult R = runRounds(Engine, std::move(Symmetry), C, Prop, Opts,
                               /*UseScheme1=*/true, /*UseAlg3=*/true);
    R.Run.StatesStored = Engine.symbolicStateCount();
    return R;
  });
}
