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
/// to the serial one.  Checked on the paper models plus 20
/// fuzz-generator seeds at jobs 1 / 2 / 8, alongside the deterministic
/// half of the metrics snapshot: for the explicit engine with every
/// level dispatched to the pool, and for both drivers, which build
/// G cap Z on a worker beside the rounds and emit its `z-overapprox`
/// span on the driver at the join.  A schema-sanity pass also checks
/// that the unstripped spans nest properly per thread track (children
/// inside parents, siblings disjoint), which is what makes the Perfetto
/// view readable.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/Algorithms.h"
#include "core/CbaEngine.h"
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

/// The symbolic driver, the level `--jobs` reaches symbolic rounds
/// through: \p Pool is handed over as RunOptions::Pool, and the run goes
/// on past a bug so every instance explores all MaxK rounds it can.
TracedRun runSymbolic(const CpdsFile &File, exec::ThreadPool *Pool) {
  obs::Metrics::resetAll();
  obs::Trace::begin();
  RunOptions RO;
  RO.Limits = FuzzLimits;
  RO.Limits.MaxContexts = MaxK;
  RO.ContinueAfterBug = true;
  RO.Pool = Pool;
  runAlg3Symbolic(File.System, File.Property, RO);
  obs::Trace::end();
  return {obs::Trace::render(), detMetrics()};
}

/// The explicit engine with every level dispatched to \p Pool.
TracedRun runExplicit(const Cpds &C, exec::ThreadPool *Pool) {
  obs::Metrics::resetAll();
  obs::Trace::begin();
  CbaEngine E(C, FuzzLimits);
  E.setParallel(Pool, /*MinLevel=*/1);
  while (E.bound() < MaxK && E.advance() == CbaEngine::RoundStatus::Ok)
    ;
  obs::Trace::end();
  return {obs::Trace::render(), detMetrics()};
}

/// The explicit driver (Scheme 1 || Alg. 3), which reads G cap Z at
/// the first new plateau of T(R_k).
TracedRun runExplicitDriver(const CpdsFile &File, exec::ThreadPool *Pool) {
  obs::Metrics::resetAll();
  obs::Trace::begin();
  RunOptions RO;
  RO.Limits = FuzzLimits;
  RO.Limits.MaxContexts = MaxK;
  RO.ContinueAfterBug = true;
  RO.Pool = Pool;
  runExplicitCombined(File.System, File.Property, RO);
  obs::Trace::end();
  return {obs::Trace::render(), detMetrics()};
}

/// Whether a rendered trace holds a `z-overapprox` span.
bool hasZSpan(const std::string &Trace) {
  return Trace.find("\"name\": \"z-overapprox\"") != std::string::npos;
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

/// Runs \p Run serially and on both pools for every instance, expecting
/// identical stripped traces and det metrics; returns how many serial
/// traces hold a `z-overapprox` span, so callers can check the
/// background build was compared at all.
template <typename RunFn>
unsigned expectDriverTracesMatch(RunFn Run, exec::ThreadPool &Pool2,
                                 exec::ThreadPool &Pool8) {
  unsigned Idx = 0, WithZ = 0;
  for (const CpdsFile &File : instances()) {
    TracedRun Serial = Run(File, nullptr);
    std::string Stripped = stripTrace(Serial.Trace);
    EXPECT_FALSE(Stripped.find("\"name\": \"round\"") == std::string::npos)
        << "instance " << Idx << " produced no round spans";
    WithZ += hasZSpan(Stripped);
    for (exec::ThreadPool *Pool : {&Pool2, &Pool8}) {
      TracedRun Par = Run(File, Pool);
      EXPECT_EQ(Stripped, stripTrace(Par.Trace))
          << "instance " << Idx << " jobs " << Pool->jobs();
      EXPECT_EQ(Serial.Det, Par.Det)
          << "instance " << Idx << " jobs " << Pool->jobs();
    }
    if (::testing::Test::HasFailure())
      break; // One instance's diff is enough diagnostics.
    ++Idx;
  }
  return WithZ;
}

TEST_F(TraceDeterminismTest, SymbolicTraceMatchesAcrossJobCounts) {
  EXPECT_GT(expectDriverTracesMatch(runSymbolic, Pool2, Pool8), 0u)
      << "no instance reached the generator test";
}

TEST_F(TraceDeterminismTest, ExplicitDriverTraceMatchesAcrossJobCounts) {
  EXPECT_GT(expectDriverTracesMatch(runExplicitDriver, Pool2, Pool8), 0u)
      << "no instance reached the generator test";
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
  // Unstripped traces, including the wall-category spans: the timeline
  // must still be a forest per tid (every span is on the driver's).
  CpdsFile Bluetooth = models::buildBluetooth(3, 2, 2);
  for (exec::ThreadPool *Pool :
       {static_cast<exec::ThreadPool *>(nullptr), &Pool2, &Pool8}) {
    expectProperNesting(runSymbolic(Bluetooth, Pool).Trace);
    expectProperNesting(runExplicit(Bluetooth.System, Pool).Trace);
    expectProperNesting(runExplicitDriver(Bluetooth, Pool).Trace);
  }
}

} // namespace
