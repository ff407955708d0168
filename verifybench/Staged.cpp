//===-- verifybench/Staged.cpp - Traced stage-by-stage verification -------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "Staged.h"

#include <algorithm>
#include <chrono>
#include <new>

#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "core/CbaEngine.h"
#include "core/FcrCheck.h"
#include "core/Generators.h"
#include "core/ObservationSequence.h"
#include "core/SymbolicEngine.h"
#include "core/ZOverapprox.h"
#include "obs/Metrics.h"

using namespace cuba;
using namespace verifybench;

namespace {

uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out + "\"";
}

/// What the engine loop concluded, in runCuba's terms.
struct LoopResult {
  std::optional<unsigned> BugBound;
  bool Exhausted = false;
  /// Whether the generator test ever read G cap Z.
  bool ZConsulted = false;
};

/// True when a visible state first reached this round violates \p Prop.
template <typename Engine>
bool bugThisRound(const Engine &E, const SafetyProperty &Prop) {
  if (Prop.trivial())
    return false;
  for (const VisibleState &V : E.newVisibleThisRound())
    if (Prop.violatedBy(V))
      return true;
  return false;
}

/// runCuba's explicit loop (Scheme 1 || Alg. 3 over one CbaEngine), as
/// core/Algorithms.cpp runs it, stopped at \p KMax.
LoopResult cbaLoop(CbaEngine &E, const SafetyProperty &Prop, unsigned KMax,
                   bool ZComplete, std::vector<VisibleState> &Pending) {
  LoopResult R;
  ObservationTracker Rk, Tk;
  Rk.record(E.reachedSize());
  Tk.record(E.visibleSize());
  if (bugThisRound(E, Prop))
    R.BugBound = E.bound();
  bool RkCollapse = false, TkCollapse = false;
  while (E.bound() < KMax && !R.BugBound) {
    if (E.advance() == CbaEngine::RoundStatus::Exhausted) {
      R.Exhausted = true;
      break;
    }
    Rk.record(E.reachedSize());
    Tk.record(E.visibleSize());
    if (bugThisRound(E, Prop))
      R.BugBound = E.bound();
    if (!RkCollapse && Rk.plateauAtLatest())
      RkCollapse = true;
    if (!TkCollapse && Tk.newPlateauAtLatest() && ZComplete) {
      R.ZConsulted = true;
      std::erase_if(Pending,
                    [&](const VisibleState &V) { return E.visibleReached(V); });
      TkCollapse = Pending.empty();
    }
    if (RkCollapse || TkCollapse)
      break;
  }
  return R;
}

/// runCuba's symbolic loop (Alg. 3 over T(S_k)), as
/// core/SymbolicAlgorithms.cpp runs it, stopped at \p KMax.
LoopResult symLoop(SymbolicEngine &E, const SafetyProperty &Prop,
                   unsigned KMax, bool ZComplete,
                   std::vector<VisibleState> &Pending) {
  LoopResult R;
  ObservationTracker Tk;
  Tk.record(E.visibleSize());
  if (bugThisRound(E, Prop))
    R.BugBound = E.bound();
  while (E.bound() < KMax && !R.BugBound) {
    if (E.advance() == SymbolicEngine::RoundStatus::Exhausted) {
      R.Exhausted = true;
      break;
    }
    Tk.record(E.visibleSize());
    if (bugThisRound(E, Prop))
      R.BugBound = E.bound();
    if (E.frontierEmpty())
      break;
    if (Tk.newPlateauAtLatest() && ZComplete) {
      R.ZConsulted = true;
      std::erase_if(Pending,
                    [&](const VisibleState &V) { return E.visibleReached(V); });
      if (Pending.empty())
        break;
    }
  }
  return R;
}

/// Adds the Metrics registry's view of one input's engine work to \p C.
void foldMetrics(StagedCounts &C) {
  using obs::Metrics;
  C.SatPops += Metrics::value("saturation.pops");
  C.SatBytesHwm =
      std::max(C.SatBytesHwm, Metrics::value("symbolic.sat_bytes.hwm"));
  C.Transactions += Metrics::value("symbolic.transactions");
  C.TransactionsCached += Metrics::value("symbolic.transactions.cached");
  C.Extractions += Metrics::value("saturation.extractions");
  C.ExtractSkipped += Metrics::value("extract.skipped_unchanged");
  C.PrefetchHits += Metrics::value("symbolic.prefetch.hits");
  C.PrefetchDropped += Metrics::value("symbolic.prefetch.dropped");
  for (const obs::InstrumentSnapshot &I : Metrics::snapshot())
    if (I.Name == "cba.commit.shard_imbalance_pct")
      for (size_t B = 0; B < I.Buckets.size() && B < C.Imbalance.size(); ++B)
        C.Imbalance[B] += I.Buckets[B];
}

exec::WorkerStats poolTotals(const exec::ThreadPool &Pool) {
  exec::WorkerStats T;
  std::vector<exec::WorkerStats> W = Pool.workerStats();
  for (const exec::WorkerStats &S : W) {
    T.BusyNs += S.BusyNs;
    T.Tasks += S.Tasks;
  }
  // The calling thread takes part in every batch, so its count is the
  // number of batches dispatched.
  T.Batches = W.empty() ? 0 : W[0].Batches;
  return T;
}

} // namespace

SpanLog::SpanLog() : OriginNs(steadyNs()) {}

uint64_t SpanLog::now() const { return steadyNs() - OriginNs; }

int SpanLog::open(const char *Name, uint32_t Pass, uint32_t Track) {
  Span S;
  S.Name = Name;
  S.Pass = Pass;
  S.Track = Track;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.BeginNs = now();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void SpanLog::close(int Idx) {
  Spans[Idx].EndNs = now();
  Open.pop_back();
}

void SpanLog::namePass(uint32_t Pass, std::string Name) {
  PassNames[Pass] = std::move(Name);
}

void SpanLog::nameTrack(uint32_t Track, std::string Name) {
  TrackNames[Track] = std::move(Name);
}

std::string SpanLog::render() const {
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool First = true;
  auto Emit = [&](const std::string &Event) {
    Out += First ? "" : ",\n";
    Out += Event;
    First = false;
  };
  for (const auto &[Pass, Name] : PassNames) {
    Emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(Pass) + ",\"args\":{\"name\":" + jsonString(Name) +
         "}}");
    for (const auto &[Track, TName] : TrackNames)
      Emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(Pass) + ",\"tid\":" + std::to_string(Track) +
           ",\"args\":{\"name\":" + jsonString(TName) + "}}");
  }
  char Buf[64];
  for (const Span &S : Spans) {
    std::string E = "{\"name\":" + jsonString(S.Name) +
                    ",\"cat\":\"verifybench\",\"ph\":\"X\"";
    std::snprintf(Buf, sizeof(Buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(S.BeginNs) / 1e3,
                  static_cast<double>(S.EndNs - S.BeginNs) / 1e3);
    E += Buf;
    E += ",\"pid\":" + std::to_string(S.Pass) +
         ",\"tid\":" + std::to_string(S.Track) + ",\"args\":{";
    for (size_t I = 0; I < S.Args.size(); ++I)
      E += (I ? ",\"" : "\"") + std::string(S.Args[I].first) +
           "\":" + std::to_string(S.Args[I].second);
    Emit(E + "}}");
  }
  return Out + "\n]}\n";
}

std::map<std::string, std::vector<double>>
SpanLog::selfMs(uint32_t Pass, size_t Tracks) const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Pass == Pass && S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.BeginNs;
  std::map<std::string, std::vector<double>> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Pass != Pass || S.Track >= Tracks)
      continue;
    std::vector<double> &V = Self[S.Name];
    V.resize(Tracks, 0.0);
    V[S.Track] += static_cast<double>(S.EndNs - S.BeginNs - ChildNs[I]) / 1e6;
  }
  return Self;
}

namespace {

/// Verifies input \p In stage by stage inside one "input" span on track
/// \p Track.  Everything an input allocates is released inside the span
/// of the stage that built it, so the "input" span's self time is only
/// the benchmark's own glue.
LoopResult stageInput(const Input &In, unsigned KMax, exec::ThreadPool &Pool,
                      SpanLog &Log, uint32_t Pass, uint32_t Track,
                      StagedCounts &C) {
  const ResourceLimits Limits = benchLimits();
  ScopedStage Whole(Log, "input", Pass, Track);

  std::optional<CpdsFile> Translated;
  if (In.isSource()) {
    ErrorOr<bp::Program> Prog = [&] {
      ScopedStage S(Log, "bp.parse", Pass, Track);
      return bp::parseProgram(In.Source);
    }();
    ErrorOr<bp::SemaInfo> Info = [&] {
      ScopedStage S(Log, "bp.sema", Pass, Track);
      return bp::analyzeProgram(*Prog);
    }();
    ScopedStage S(Log, "bp.translate", Pass, Track);
    Translated = std::move(*bp::translateProgram(*Prog, *Info));
    for (unsigned T = 0; T < Translated->System.numThreads(); ++T)
      C.BpActions += Translated->System.thread(T).actions().size();
  }
  const CpdsFile &F = In.isSource() ? *Translated : *In.Model;
  const Cpds &Sys = F.System;

  FcrResult Fcr;
  {
    ScopedStage S(Log, "fcr", Pass, Track);
    LimitTracker FcrLimits(Limits);
    try {
      Fcr = checkFcr(Sys, &FcrLimits);
    } catch (const std::bad_alloc &) {
      Fcr = FcrResult{};
      Fcr.Complete = false;
    }
  }
  C.FcrHolds += Fcr.Holds;

  std::vector<VisibleState> Z;
  int ZSpan = Log.open("z", Pass, Track);
  {
    LimitTracker ZLimits(Limits);
    Z = computeZ(Sys, &ZLimits);
  }
  Log.close(ZSpan);
  Log.arg(ZSpan, "states", Z.size());
  C.ZStates += Z.size();
  bool ZComplete = !Z.empty();

  std::vector<VisibleState> Pending;
  {
    ScopedStage S(Log, "gen", Pass, Track);
    GeneratorSet Gen(Sys);
    Pending = Gen.intersect(Z);
  }
  C.GenPending += Pending.size();
  // Z's release is Z's cost: runCuba pays it too.
  int ZFreeSpan = Log.open("z", Pass, Track);
  std::vector<VisibleState>().swap(Z);
  Log.close(ZFreeSpan);

  LoopResult L;
  if (Fcr.Holds) {
    ScopedStage S(Log, "cba.rounds", Pass, Track);
    CbaEngine E(Sys, Limits);
    E.setParallel(&Pool);
    L = cbaLoop(E, F.Property, KMax, ZComplete, Pending);
    C.CbaRounds += E.bound();
    C.CbaStates += E.reachedSize();
    C.CbaBytes += E.memoryUsage();
  } else {
    ScopedStage S(Log, "sym.rounds", Pass, Track);
    SymbolicEngine E(Sys, Limits);
    E.setParallel(&Pool);
    L = symLoop(E, F.Property, KMax, ZComplete, Pending);
    C.SymRounds += E.bound();
    C.SymStates += E.symbolicStateCount();
    C.SymLanguages += E.languageStore().size();
  }
  for (int Idx : {ZSpan, ZFreeSpan})
    Log.arg(Idx, "unused", L.BugBound && !L.ZConsulted);

  if (Translated) {
    ScopedStage S(Log, "bp.translate", Pass, Track);
    Translated.reset();
  }
  return L;
}

} // namespace

StagedPass verifybench::runStagedPass(const std::vector<Input> &Inputs,
                                      const std::vector<Verification> &Ref,
                                      exec::ThreadPool &Pool, SpanLog &Log,
                                      uint32_t Pass) {
  StagedPass Out;
  StagedCounts &C = Out.Counts;
  exec::WorkerStats PoolBefore = poolTotals(Pool);

  for (uint32_t I = 0; I < Inputs.size(); ++I) {
    const Input &In = Inputs[I];
    if (Ref[I].St == Status::Rejected)
      continue;
    obs::Metrics::resetAll();
    ++C.Inputs;
    LoopResult L = stageInput(In, Ref[I].KMax, Pool, Log, Pass, I, C);
    foldMetrics(C);
    if (Ref[I].St == Status::Correct && Out.Inconsistency.empty()) {
      bool Same = In.Answer.Safe ? !L.BugBound && !L.Exhausted
                                 : L.BugBound == In.Answer.BugK;
      if (!Same)
        Out.Inconsistency = In.Name + ": staged run disagrees with runCuba (" +
                            In.Answer.str() + ")";
    }
  }

  exec::WorkerStats PoolAfter = poolTotals(Pool);
  C.BusyNs = PoolAfter.BusyNs - PoolBefore.BusyNs;
  C.Tasks = PoolAfter.Tasks - PoolBefore.Tasks;
  C.Batches = PoolAfter.Batches - PoolBefore.Batches;
  return Out;
}
