//===-- core/SymbolicAlgorithms.cpp - Alg. 3 over T(S_k) ------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/SymbolicAlgorithms.h"

#include "core/ObservationSequence.h"
#include "core/SymbolicEngine.h"
#include "core/ZOverapprox.h"
#include "obs/Metrics.h"
#include "pds/CpdsIO.h"
#include "pds/ThreadSymmetry.h"
#include "support/Timer.h"

using namespace cuba;

namespace {

SymbolicRunResult runAlg3SymbolicImpl(const Cpds &C,
                                      const SafetyProperty &Prop,
                                      const RunOptions &Opts) {
  WallTimer Timer;
  SymbolicRunResult R;
  // Classes of interchangeable threads: with one, the rounds and G cap Z
  // run on orbits.  Visible counts, plateaus, generator coverage and the
  // first violation are those of the unreduced run.
  static obs::Gauge SymClasses("symmetry.classes");
  static obs::Gauge SymThreads("symmetry.threads");
  ThreadSymmetry Symmetry(C, Prop);
  SymClasses.recordMax(Symmetry.classes().size());
  SymThreads.recordMax(Symmetry.classifiedThreads());
  SymbolicEngine Engine(C, Opts.Limits, Symmetry);
  GeneratorTest Generators(C, Opts.Limits, Symmetry);
  // The plateaus of T(S_k) are tracked on its orbit count: it plateaus
  // exactly when |T(S_k)| does, but never saturates as the orbit sum
  // |T(S_k)| can (two saturated rounds would read as a plateau).
  ObservationTracker TkSizes;

  auto CheckViolations = [&]() {
    if (R.Run.BugBound || Prop.trivial())
      return;
    for (const VisibleState &V : Engine.newVisibleThisRound()) {
      if (Prop.violatedBy(V)) {
        R.Run.BugBound = Engine.bound();
        R.Run.Witness = toString(C, V);
        return;
      }
    }
  };

  // G cap Z depends on the CPDS alone: with spare workers it is built
  // beside the (serial) rounds.
  Generators.start(Opts.Pool);

  TkSizes.record(Engine.visibleOrbits()); // T(S_0)
  CheckViolations();

  unsigned MaxK =
      Opts.Limits.MaxContexts ? Opts.Limits.MaxContexts : UINT32_MAX;
  while (Engine.bound() < MaxK) {
    if (R.Run.BugBound && !Opts.ContinueAfterBug)
      break;
    if (Engine.advance() == SymbolicEngine::RoundStatus::Exhausted) {
      R.Run.Exhausted = true;
      break;
    }
    TkSizes.record(Engine.visibleOrbits());
    CheckViolations();

    // Fixpoint of the symbolic state set: nothing new can ever appear
    // (post* transactions of known states only re-derive known states),
    // so (R_k) collapses at the previous bound.
    if (!R.SFixpoint && Engine.frontierEmpty())
      R.SFixpoint = Engine.bound() - 1;

    // Alg. 3 line 4 over T(S_k).
    if (!R.TkCollapse && TkSizes.newPlateauAtLatest() &&
        Generators.coveredBy(Engine))
      R.TkCollapse = Engine.bound() - 1;

    if (R.SFixpoint || R.TkCollapse)
      break;
  }
  if (Engine.bound() >= MaxK && !R.SFixpoint && !R.TkCollapse &&
      !R.Run.BugBound)
    R.Run.Exhausted = true;
  Generators.finish();

  if (R.TkCollapse && R.SFixpoint)
    R.Run.ConvergedAt = std::min(*R.TkCollapse, *R.SFixpoint);
  else if (R.TkCollapse)
    R.Run.ConvergedAt = R.TkCollapse;
  else if (R.SFixpoint)
    R.Run.ConvergedAt = R.SFixpoint;

  R.Run.KMax = Engine.bound();
  R.Run.StatesStored = Engine.symbolicStateCount();
  R.Run.VisibleStates = Engine.visibleSize();
  R.Run.Millis = Timer.millis();
  // None when only the context bound ran out; a tracker axis otherwise.
  R.Run.ExhaustedBy = Engine.limits().reason();
  R.SymbolicStates = Engine.symbolicStateCount();
  R.DistinctLanguages = Engine.languageStore().size();
  return R;
}

} // namespace

SymbolicRunResult cuba::runAlg3Symbolic(const Cpds &C,
                                        const SafetyProperty &Prop,
                                        const RunOptions &Opts) {
  return runGuarded<SymbolicRunResult>(
      [&] { return runAlg3SymbolicImpl(C, Prop, Opts); });
}
