//===-- dataflow/TaintFolds.cpp - Taint queries as per-fact folds ---------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "dataflow/TaintFolds.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "core/CbaEngine.h"
#include "core/FcrCheck.h"
#include "core/SymbolicEngine.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Timer.h"

using namespace cuba;

std::vector<SinkHit> cuba::scanSinkHits(
    const std::vector<std::pair<VisibleState, unsigned>> &Visible,
    const bp::TaintInfo &Taint, uint32_t Folded, unsigned MaxRound) {
  // A leak: a reachable visible state has a sink's thread sitting at
  // the sink frame while the fact may be tainted.  The err state
  // carries no fact bits, so it never witnesses a sink.
  QState Err = foldErr(Taint, Folded);
  std::map<std::tuple<unsigned, Sym, int>, unsigned> Min;
  for (const auto &[V, R] : Visible) {
    if (R > MaxRound || V.Q == Err)
      continue;
    for (const bp::TaintSinkSite &Sk : Taint.Sinks) {
      if (!((Folded >> Sk.Fact) & 1) || V.Tops[Sk.Thread] != Sk.Frame)
        continue;
      // Folded facts take consecutive bits above the unfolded ones.
      unsigned Bit = Taint.SharedBits +
                     std::popcount(Folded & ((1u << Sk.Fact) - 1));
      if (!((V.Q >> Bit) & 1))
        continue;
      auto [It, New] = Min.try_emplace({Sk.Thread, Sk.Frame, Sk.Fact}, R);
      if (!New && R < It->second)
        It->second = R;
    }
  }
  std::vector<SinkHit> Out;
  Out.reserve(Min.size());
  for (const auto &[K, R] : Min)
    Out.push_back({std::get<0>(K), std::get<1>(K), std::get<2>(K), R});
  return Out;
}

namespace {

/// Runs \p E to \p MaxK or its fixpoint and records the fold's figures
/// and hits; returns the axis that stopped it, None when none did.
template <typename EngineT>
ExhaustKind runFoldRounds(EngineT &E, unsigned MaxK,
                          const bp::TaintInfo &Taint, bool KeepVisible,
                          FactFold &F, std::vector<SinkHit> &Hits) {
  bool Exhausted = false;
  while (!Exhausted && E.bound() < MaxK && !E.frontierEmpty())
    Exhausted = E.advance() == EngineT::RoundStatus::Exhausted;
  F.Bound = E.bound();
  F.Converged = !Exhausted && E.frontierEmpty();
  F.Visible = E.visibleSize();
  F.PeakBytes = E.limits().peakBytes();
  std::vector<std::pair<VisibleState, unsigned>> Seen = E.visibleFirstSeen();
  std::vector<SinkHit> H = scanSinkHits(Seen, Taint, 1u << F.Fact);
  Hits.insert(Hits.end(), H.begin(), H.end());
  if (KeepVisible)
    F.FirstSeen = std::move(Seen);
  return Exhausted ? E.limits().reason() : ExhaustKind::None;
}

/// True when \p Taint records a sink site of fact \p Fact.
bool hasSink(const bp::TaintInfo &Taint, int Fact) {
  return std::any_of(
      Taint.Sinks.begin(), Taint.Sinks.end(),
      [&](const bp::TaintSinkSite &S) { return S.Fact == Fact; });
}

/// What a budget axis of \p Limit units has left after \p Spent, in
/// \p Left (0 stays unlimited); false when a limited axis is used up.
bool budgetLeft(uint64_t Limit, uint64_t Spent, uint64_t &Left) {
  if (!Limit) {
    Left = 0;
    return true;
  }
  if (Spent >= Limit)
    return false;
  Left = Limit - Spent;
  return true;
}

} // namespace

ErrorOr<TaintFoldResult> cuba::runTaintFolds(const bp::Program &P,
                                             const bp::SemaInfo &Info,
                                             const TaintFoldOptions &Opts) {
  static obs::Counter Folds("dataflow.folds");
  TaintFoldResult R;
  const ResourceLimits &Budget = Opts.Limits;
  unsigned MaxK = Budget.MaxContexts ? Budget.MaxContexts : UINT32_MAX;
  uint64_t StatesSpent = 0, StepsSpent = 0;
  WallTimer Clock;
  for (int Fact = 0; Fact < static_cast<int>(Info.TaintFacts.size());
       ++Fact) {
    // Every translation records every fact's sink sites, so the first
    // one tells which facts can leak at all.
    if (Fact > 0 && !hasSink(R.Taint, Fact))
      continue;
    // The fold's share: what the earlier folds left of each axis.
    ResourceLimits L = Budget;
    uint64_t Millis = static_cast<uint64_t>(Clock.millis());
    if (!budgetLeft(Budget.MaxStates, StatesSpent, L.MaxStates))
      R.ExhaustedBy = ExhaustKind::States;
    else if (!budgetLeft(Budget.MaxSteps, StepsSpent, L.MaxSteps))
      R.ExhaustedBy = ExhaustKind::Steps;
    else if (!budgetLeft(Budget.MaxMillis, Millis, L.MaxMillis))
      R.ExhaustedBy = ExhaustKind::Time;
    if (R.exhausted())
      break;

    bp::TaintInfo Taint;
    bp::TranslateOptions TOpts;
    TOpts.FoldTaint = 1u << Fact;
    TOpts.Taint = &Taint;
    auto File = bp::translateProgram(P, Info, TOpts);
    if (!File)
      return File.error();
    if (Fact == 0)
      R.Taint = Taint;
    // A fact with no sink site in a reached frame has no hit at any
    // bound: its fold does not run.  Only the first fact gets here
    // without one, since its translation is the one that tells.
    if (!hasSink(Taint, Fact)) {
      R.Names = std::move(*File);
      continue;
    }

    obs::ScopedSpan Span("fold", obs::Trace::CatDet);
    Span.arg("fact", Fact);
    ++Folds;

    // The route runCuba takes: explicit when FCR holds.  The check runs
    // on its own copy of the fold's share, as runCuba's does.
    FactFold F;
    F.Fact = Fact;
    {
      obs::ScopedSpan Fcr("fcr", obs::Trace::CatDet);
      LimitTracker FcrLimits(L);
      F.Explicit = checkFcr(File->System, &FcrLimits).Holds;
      Fcr.arg("holds", F.Explicit);
    }
    Span.arg("explicit", F.Explicit);
    ExhaustKind Why;
    if (F.Explicit) {
      CbaEngine E(File->System, L);
      E.setParallel(Opts.Pool);
      Why = runFoldRounds(E, MaxK, Taint, Opts.KeepVisible, F, R.Hits);
      F.States = E.reachedSize();
      StatesSpent += E.limits().states();
      StepsSpent += E.limits().steps();
    } else {
      SymbolicEngine E(File->System, L);
      Why = runFoldRounds(E, MaxK, Taint, Opts.KeepVisible, F, R.Hits);
      F.States = E.symbolicStateCount();
      F.Saturations = E.saturationCount();
      StatesSpent += E.limits().states();
      StepsSpent += E.limits().steps();
    }
    Span.arg("k", F.Bound);
    R.Folds.push_back(std::move(F));
    if (Fact == 0)
      R.Names = std::move(*File);
    if (Why != ExhaustKind::None) {
      R.ExhaustedBy = Why;
      break;
    }
  }
  std::sort(R.Hits.begin(), R.Hits.end());
  return R;
}
