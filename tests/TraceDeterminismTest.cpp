//===-- tests/TraceDeterminismTest.cpp - trace content vs --jobs ----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability determinism contract (obs/Trace.h): span content is
/// a pure function of serially committed engine state, so a trace
/// collected at any `--jobs`, stripped by the documented rule -- drop
/// "wall"-category and ph:"M" lines, zero ts/dur/tid -- is byte-identical
/// to the serial one.  Checked for both engines on the paper models plus
/// 20 fuzz-generator seeds at jobs 1 / 2 / 8, alongside the deterministic
/// half of the metrics snapshot.  A schema-sanity pass also checks that
/// the unstripped spans nest properly per thread track (children inside
/// parents, siblings disjoint), which is what makes the Perfetto view
/// readable.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/CbaEngine.h"
#include "core/SymbolicEngine.h"
#include "exec/ThreadPool.h"
#include "models/Models.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "testing/RandomCpds.h"

#include "DetTrace.h"

using namespace cuba;
using cuba::testing::DetMetrics;
using cuba::testing::detMetrics;
using cuba::testing::stripTrace;

namespace {

/// Mirrors the fuzz harness budget; no wall-clock axis so how far a run
/// gets is machine-independent.
const ResourceLimits FuzzLimits{10'000, 1'000'000, 8, 0};

constexpr unsigned MaxK = 6;

/// One traced engine run: resets the registry, collects the trace, and
/// returns (rendered trace, deterministic metrics).
struct TracedRun {
  std::string Trace;
  DetMetrics Det;
};

TracedRun runSymbolic(const Cpds &C, exec::ThreadPool *Pool) {
  obs::Metrics::resetAll();
  obs::Trace::begin();
  SymbolicEngine E(C, FuzzLimits);
  E.setParallel(Pool);
  while (E.bound() < MaxK &&
         E.advance() == SymbolicEngine::RoundStatus::Ok)
    ;
  obs::Trace::end();
  return {obs::Trace::render(), detMetrics()};
}

TracedRun runExplicit(const Cpds &C, exec::ThreadPool *Pool) {
  obs::Metrics::resetAll();
  obs::Trace::begin();
  CbaEngine E(C, FuzzLimits);
  E.setParallel(Pool);
  while (E.bound() < MaxK && E.advance() == CbaEngine::RoundStatus::Ok)
    ;
  obs::Trace::end();
  return {obs::Trace::render(), detMetrics()};
}

/// One parsed complete event (ph:"X" lines only).
struct ParsedSpan {
  uint64_t Ts = 0;
  uint64_t Dur = 0;
  uint32_t Tid = 0;
};

uint64_t fieldOf(const std::string &Line, const char *Key) {
  size_t K = Line.find(Key);
  EXPECT_NE(K, std::string::npos) << Line;
  if (K == std::string::npos)
    return 0;
  return std::strtoull(Line.c_str() + K + std::strlen(Key), nullptr, 10);
}

/// Schema sanity: per thread track, spans sorted by (ts, -dur) must form
/// a proper nesting -- every span either starts after the enclosing one
/// ended or ends inside it.  The 1us tolerance absorbs the independent
/// flooring of ts and dur from nanoseconds.
void expectProperNesting(const std::string &Doc) {
  std::vector<std::vector<ParsedSpan>> PerTid;
  size_t Pos = 0;
  while (Pos < Doc.size()) {
    size_t Eol = Doc.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Doc.size();
    std::string Line = Doc.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.find("\"ph\": \"X\"") == std::string::npos)
      continue;
    ParsedSpan S;
    S.Ts = fieldOf(Line, "\"ts\": ");
    S.Dur = fieldOf(Line, "\"dur\": ");
    S.Tid = static_cast<uint32_t>(fieldOf(Line, "\"tid\": "));
    if (S.Tid >= PerTid.size())
      PerTid.resize(S.Tid + 1);
    PerTid[S.Tid].push_back(S);
  }
  for (std::vector<ParsedSpan> &Track : PerTid) {
    std::sort(Track.begin(), Track.end(),
              [](const ParsedSpan &A, const ParsedSpan &B) {
                return A.Ts != B.Ts ? A.Ts < B.Ts : A.Dur > B.Dur;
              });
    std::vector<ParsedSpan> Stack;
    for (const ParsedSpan &S : Track) {
      while (!Stack.empty() && Stack.back().Ts + Stack.back().Dur <= S.Ts)
        Stack.pop_back();
      if (!Stack.empty()) {
        EXPECT_LE(S.Ts + S.Dur, Stack.back().Ts + Stack.back().Dur + 1)
            << "span at ts=" << S.Ts << " overflows its parent";
      }
      Stack.push_back(S);
    }
  }
}

/// The instances under test: the paper models plus 20 fuzz seeds.
std::vector<CpdsFile> instances() {
  std::vector<CpdsFile> Out;
  Out.push_back(models::buildFig1());
  Out.push_back(models::buildBluetooth(3, 1, 1));
  Out.push_back(models::buildBluetooth(3, 2, 2));
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    Out.push_back(cuba::testing::generateRandomCpds(
        Seed, cuba::testing::cornerShapeOptions(Seed)));
  return Out;
}

class TraceDeterminismTest : public ::testing::Test {
protected:
  exec::ThreadPool Pool2{2};
  exec::ThreadPool Pool8{8};
};

TEST_F(TraceDeterminismTest, SymbolicTraceMatchesAcrossJobCounts) {
  unsigned Idx = 0;
  for (const CpdsFile &File : instances()) {
    TracedRun Serial = runSymbolic(File.System, nullptr);
    std::string Stripped = stripTrace(Serial.Trace);
    EXPECT_FALSE(Stripped.find("\"name\": \"round\"") == std::string::npos)
        << "instance " << Idx << " produced no round spans";
    for (exec::ThreadPool *Pool : {&Pool2, &Pool8}) {
      TracedRun Par = runSymbolic(File.System, Pool);
      EXPECT_EQ(Stripped, stripTrace(Par.Trace))
          << "instance " << Idx << " jobs " << Pool->jobs();
      EXPECT_EQ(Serial.Det, Par.Det)
          << "instance " << Idx << " jobs " << Pool->jobs();
    }
    if (HasFailure())
      break; // One instance's diff is enough diagnostics.
    ++Idx;
  }
}

TEST_F(TraceDeterminismTest, ExplicitTraceMatchesAcrossJobCounts) {
  unsigned Idx = 0;
  for (const CpdsFile &File : instances()) {
    TracedRun Serial = runExplicit(File.System, nullptr);
    std::string Stripped = stripTrace(Serial.Trace);
    for (exec::ThreadPool *Pool : {&Pool2, &Pool8}) {
      TracedRun Par = runExplicit(File.System, Pool);
      EXPECT_EQ(Stripped, stripTrace(Par.Trace))
          << "instance " << Idx << " jobs " << Pool->jobs();
      EXPECT_EQ(Serial.Det, Par.Det)
          << "instance " << Idx << " jobs " << Pool->jobs();
    }
    if (HasFailure())
      break;
    ++Idx;
  }
}

TEST_F(TraceDeterminismTest, SpansNestProperlyPerThreadTrack) {
  // Unstripped traces, including the wall-category spans and worker
  // attribution: the timeline must still be a forest per tid.
  CpdsFile Bluetooth = models::buildBluetooth(3, 2, 2);
  for (exec::ThreadPool *Pool :
       {static_cast<exec::ThreadPool *>(nullptr), &Pool2, &Pool8}) {
    expectProperNesting(runSymbolic(Bluetooth.System, Pool).Trace);
    expectProperNesting(runExplicit(Bluetooth.System, Pool).Trace);
  }
}

TEST_F(TraceDeterminismTest, PrefetchedSaturationStaysOnItsWorkersTrack) {
  // A saturation adopted from the previous round's prefetch is emitted by
  // the consuming round's commit with the prefetch's timestamps, so it
  // must stay on the track of the worker that prefetched it.  A worker
  // runs its tasks one at a time, so the task spans (saturate, extract)
  // on any one track never overlap; a prefetched span drawn on the
  // consuming worker's track lands on whatever that worker was running
  // a round earlier.  Repeated across pool sizes, since which worker
  // claims which task is up to the scheduler.
  CpdsFile Bluetooth = models::buildBluetooth(3, 2, 2);
  uint64_t Prefetched = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    for (exec::ThreadPool *Pool : {&Pool2, &Pool8}) {
      std::string Doc = runSymbolic(Bluetooth.System, Pool).Trace;
      std::vector<std::vector<ParsedSpan>> TaskSpans;
      uint64_t SpeculateTs = 0; // Start of the current round's batch.
      size_t Pos = 0;
      while (Pos < Doc.size()) {
        size_t Eol = Doc.find('\n', Pos);
        if (Eol == std::string::npos)
          Eol = Doc.size();
        std::string Line = Doc.substr(Pos, Eol - Pos);
        Pos = Eol + 1;
        auto Named = [&](const char *Name) {
          return Line.rfind(std::string("{\"name\": \"") + Name + "\"", 0) ==
                 0;
        };
        bool Speculate = Named("speculate");
        bool Saturate = Named("saturate");
        bool Extract = Named("extract");
        if (!Speculate && !Saturate && !Extract)
          continue;
        ParsedSpan S;
        S.Ts = fieldOf(Line, "\"ts\": ");
        S.Dur = fieldOf(Line, "\"dur\": ");
        S.Tid = static_cast<uint32_t>(fieldOf(Line, "\"tid\": "));
        if (Speculate) {
          SpeculateTs = S.Ts;
          continue;
        }
        // Spans are emitted in commit order: a saturation that started
        // before this round's batch was prefetched by the previous one.
        if (Saturate && S.Ts < SpeculateTs)
          ++Prefetched;
        if (S.Tid >= TaskSpans.size())
          TaskSpans.resize(S.Tid + 1);
        TaskSpans[S.Tid].push_back(S);
      }
      for (size_t Tid = 0; Tid < TaskSpans.size(); ++Tid) {
        std::vector<ParsedSpan> &Track = TaskSpans[Tid];
        std::sort(Track.begin(), Track.end(),
                  [](const ParsedSpan &A, const ParsedSpan &B) {
                    return A.Ts < B.Ts;
                  });
        for (size_t I = 1; I < Track.size(); ++I)
          EXPECT_LE(Track[I - 1].Ts + Track[I - 1].Dur, Track[I].Ts + 1)
              << "task spans overlap on track " << Tid << " at ts="
              << Track[I].Ts << " (jobs " << Pool->jobs() << ")";
      }
      if (HasFailure())
        return;
    }
  }
  EXPECT_GT(Prefetched, 0u) << "no prefetched saturation was adopted";
}

TEST_F(TraceDeterminismTest, WorkerAttributionAppearsAthigherJobCounts) {
  // With 8 jobs on a model with enough pending groups, at least one
  // saturate/extract span must be attributed to a non-driver worker --
  // the plumbing that carries (worker, ts) from the speculative phase to
  // the serial commit.
  CpdsFile Bluetooth = models::buildBluetooth(3, 2, 2);
  TracedRun Par = runSymbolic(Bluetooth.System, &Pool8);
  bool NonDriver = false;
  size_t Pos = 0;
  while ((Pos = Par.Trace.find("\"name\": \"saturate\"", Pos)) !=
         std::string::npos) {
    size_t Eol = Par.Trace.find('\n', Pos);
    std::string Line = Par.Trace.substr(Pos, Eol - Pos);
    if (fieldOf(Line, "\"tid\": ") != 0)
      NonDriver = true;
    Pos = Eol;
  }
  if (!NonDriver) {
    // On a loaded or single-CPU host the caller can claim every task
    // before a pool thread wakes; all-driver attribution is then
    // correct.  Only fail when a pool worker provably ran tasks yet no
    // span was attributed to it.
    std::vector<exec::WorkerStats> WS = Pool8.workerStats();
    uint64_t PoolTasks = 0;
    for (size_t I = 1; I < WS.size(); ++I)
      PoolTasks += WS[I].Tasks;
    if (PoolTasks == 0)
      GTEST_SKIP() << "pool workers never claimed a task on this host";
  }
  EXPECT_TRUE(NonDriver)
      << "pool workers ran tasks but no saturation was attributed to one";
}

} // namespace
