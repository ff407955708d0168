//===-- tests/ObsTest.cpp - metrics registry and trace unit tests ---------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The obs/ layer in isolation: instruments bumped from several threads
/// (exited ones included), the name-sorted snapshot order (the old
/// registration-order bug of the counter list, pinned here), histogram
/// bucket arithmetic, a histogram registered past the slot cap, the
/// --stats-json rendering split, and the trace buffer's rendering and
/// disabled-mode behavior.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/Metrics.h"
#include "obs/Trace.h"

using namespace cuba;

namespace {

/// The snapshot entry for \p Name (registered instruments only).
obs::InstrumentSnapshot find(const std::string &Name) {
  for (const obs::InstrumentSnapshot &S : obs::Metrics::snapshot())
    if (S.Name == Name)
      return S;
  ADD_FAILURE() << Name << " not in snapshot";
  return {};
}

TEST(Metrics, CounterSumsAcrossThreads) {
  obs::Counter C("obstest.counter.fold");
  C.add(5);
  ++C;
  // Bumps from threads that have since exited count like the main
  // thread's own.
  std::vector<std::thread> Ts;
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back([&] { C.add(10); });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(obs::Metrics::value("obstest.counter.fold"), 46u);
  obs::InstrumentSnapshot S = find("obstest.counter.fold");
  EXPECT_EQ(S.K, obs::Kind::Counter);
  EXPECT_EQ(S.Value, 46u);
  EXPECT_TRUE(S.Deterministic);
}

TEST(Metrics, GaugeFoldsByMaxAcrossThreads) {
  obs::Gauge G("obstest.gauge.hwm");
  G.recordMax(7);
  G.recordMax(3); // Lower: must not regress the high-water mark.
  EXPECT_EQ(obs::Metrics::value("obstest.gauge.hwm"), 7u);
  std::thread([&] { G.recordMax(11); }).join();
  EXPECT_EQ(obs::Metrics::value("obstest.gauge.hwm"), 11u);
  // A lower maximum from another thread must not shadow the higher one.
  std::thread([&] { G.recordMax(5); }).join();
  EXPECT_EQ(obs::Metrics::value("obstest.gauge.hwm"), 11u);
}

TEST(Metrics, HistogramBucketArithmetic) {
  EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::bucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::bucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::bucketOf(1024), 11u);
  // Values past the bucket range saturate into the last bucket.
  EXPECT_EQ(obs::Histogram::bucketOf(uint64_t(1) << 40),
            obs::Histogram::NumBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucketOf(UINT64_MAX),
            obs::Histogram::NumBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucketLow(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketLow(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketLow(2), 2u);
  EXPECT_EQ(obs::Histogram::bucketLow(11), 1024u);
  // Every value lands in the bucket whose [low, next-low) range holds it.
  for (uint64_t V : {1ull, 2ull, 3ull, 7ull, 8ull, 1023ull, 1024ull}) {
    uint32_t B = obs::Histogram::bucketOf(V);
    EXPECT_GE(V, obs::Histogram::bucketLow(B)) << V;
    if (B + 1 < obs::Histogram::NumBuckets) {
      EXPECT_LT(V, obs::Histogram::bucketLow(B + 1)) << V;
    }
  }
}

TEST(Metrics, HistogramObservationsFoldPerBucket) {
  obs::Histogram H("obstest.hist");
  H.observe(0);
  H.observe(1);
  H.observe(3);
  std::thread([&] { H.observe(1024); }).join();
  // value() on a histogram is the total observation count.
  EXPECT_EQ(obs::Metrics::value("obstest.hist"), 4u);
  obs::InstrumentSnapshot S = find("obstest.hist");
  EXPECT_EQ(S.K, obs::Kind::Histogram);
  EXPECT_EQ(S.Value, 4u);
  ASSERT_EQ(S.Buckets.size(), obs::Histogram::NumBuckets);
  EXPECT_EQ(S.Buckets[0], 1u);
  EXPECT_EQ(S.Buckets[1], 1u);
  EXPECT_EQ(S.Buckets[2], 1u);
  EXPECT_EQ(S.Buckets[11], 1u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  // Deliberately register against alphabetical order: the snapshot must
  // not depend on registration order (which varies with code path).
  obs::Counter Z("obstest.order.zz");
  obs::Gauge M("obstest.order.mm");
  obs::Counter A("obstest.order.aa");
  Z.add(1);
  M.recordMax(2);
  A.add(3);
  std::vector<obs::InstrumentSnapshot> Snap = obs::Metrics::snapshot();
  EXPECT_TRUE(std::is_sorted(Snap.begin(), Snap.end(),
                             [](const obs::InstrumentSnapshot &X,
                                const obs::InstrumentSnapshot &Y) {
                               return X.Name < Y.Name;
                             }));
}

TEST(Metrics, UnknownNameReadsZero) {
  EXPECT_EQ(obs::Metrics::value("obstest.never.registered"), 0u);
}

// The pin for the old registration-order bug of the counter list that
// `cuba --stats` prints: the counters of the snapshot come back sorted
// by name, and gauges and histograms carry their own kind, so keeping
// only Kind::Counter entries drops them.
TEST(Statistic, SnapshotIsSortedAndCounterOnly) {
  obs::Counter Z("obstest.stat.zz");
  obs::Counter A("obstest.stat.aa");
  obs::Gauge G("obstest.stat.gauge");
  obs::Histogram H("obstest.stat.hist");
  ++Z;
  A += 4;
  G.recordMax(9);
  H.observe(9);
  std::vector<std::pair<std::string, uint64_t>> Counters;
  for (const obs::InstrumentSnapshot &S : obs::Metrics::snapshot())
    if (S.K == obs::Kind::Counter)
      Counters.emplace_back(S.Name, S.Value);
  EXPECT_TRUE(std::is_sorted(Counters.begin(), Counters.end(),
                             [](const auto &X, const auto &Y) {
                               return X.first < Y.first;
                             }));
  uint64_t SawA = 0, SawZ = 0;
  for (const auto &[Name, Value] : Counters) {
    if (Name == "obstest.stat.aa")
      SawA = Value;
    if (Name == "obstest.stat.zz")
      SawZ = Value;
    EXPECT_NE(Name, "obstest.stat.gauge");
    EXPECT_NE(Name, "obstest.stat.hist");
  }
  EXPECT_EQ(SawA, 4u);
  EXPECT_EQ(SawZ, 1u);
  EXPECT_EQ(find("obstest.stat.gauge").K, obs::Kind::Gauge);
  EXPECT_EQ(find("obstest.stat.hist").K, obs::Kind::Histogram);
  EXPECT_EQ(obs::Metrics::value("obstest.stat.aa"), 4u);
}

TEST(Metrics, RenderStatsJsonSplitsByDeterminism) {
  // Hand-built snapshot: rendering is a pure function of it.
  std::vector<obs::InstrumentSnapshot> Snap;
  obs::InstrumentSnapshot C1;
  C1.Name = "det.counter";
  C1.Value = 7;
  Snap.push_back(C1);
  obs::InstrumentSnapshot C2;
  C2.Name = "wall.counter";
  C2.Deterministic = false;
  C2.Value = 9;
  Snap.push_back(C2);
  obs::InstrumentSnapshot G;
  G.Name = "det.gauge";
  G.K = obs::Kind::Gauge;
  G.Value = 1024;
  Snap.push_back(G);
  obs::InstrumentSnapshot H;
  H.Name = "det.hist";
  H.K = obs::Kind::Histogram;
  H.Buckets.assign(obs::Histogram::NumBuckets, 0);
  H.Buckets[0] = 2;
  H.Buckets[11] = 1;
  H.Value = 3;
  Snap.push_back(H);

  std::string Json = obs::renderStatsJson(
      Snap, {{"jobs", "8"}, {"input", "\"a.bp\""}});
  EXPECT_NE(Json.find("\"schema\": \"cuba-stats-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"det.counter\": 7"), std::string::npos);
  EXPECT_NE(Json.find("\"det.gauge\": 1024"), std::string::npos);
  // Sparse histogram: [bucket low, count] pairs for nonzero buckets.
  EXPECT_NE(Json.find("\"det.hist\": {\"total\": 3,"
                      " \"buckets\": [[0, 2], [1024, 1]]}"),
            std::string::npos);
  EXPECT_NE(Json.find("\"jobs\": 8"), std::string::npos);
  EXPECT_NE(Json.find("\"input\": \"a.bp\""), std::string::npos);
  // The nondeterministic counter renders inside "wall", after the
  // caller-supplied context, never in the top-level counters section.
  size_t Wall = Json.find("\"wall\": {");
  size_t WallCounter = Json.find("\"wall.counter\": 9");
  ASSERT_NE(Wall, std::string::npos);
  ASSERT_NE(WallCounter, std::string::npos);
  EXPECT_LT(Wall, WallCounter);
  EXPECT_LT(Json.find("\"det.counter\": 7"), Wall);
}

TEST(Trace, DisabledModeIsInert) {
  obs::Trace::end();
  EXPECT_FALSE(obs::Trace::enabled());
  EXPECT_EQ(obs::Trace::nowNs(), 0u);
  { obs::ScopedSpan S("never", obs::Trace::CatDet); }
  obs::SpanArg A{"k", 1};
  obs::Trace::span("never", obs::Trace::CatDet, 0, 5, &A, 1);
  obs::Trace::begin(); // begin() clears anything buffered before it.
  obs::Trace::end();
  EXPECT_EQ(obs::Trace::render(), "{\"traceEvents\": [\n\n]}\n");
}

TEST(Trace, RenderShapeAndThreadNames) {
  obs::Trace::begin();
  obs::SpanArg Args[] = {{"k", 3}, {"frontier", 12}};
  obs::Trace::span("round", obs::Trace::CatDet, 1000, 2500, Args, 2);
  obs::Trace::span("speculate", obs::Trace::CatWall, 2000, 2000, nullptr, 0);
  obs::Trace::end();
  std::string Doc = obs::Trace::render();
  // One metadata row labels the one track, before every event.
  const std::string Driver = "{\"name\": \"thread_name\", \"ph\": \"M\","
                             " \"pid\": 0, \"tid\": 0, \"args\": {\"name\":"
                             " \"driver\"}}";
  EXPECT_EQ(Doc.find(Driver), Doc.find('\n') + 1);
  EXPECT_EQ(Doc.find("\"ph\": \"M\"", Doc.find(Driver) + Driver.size()),
            std::string::npos);
  // Complete events carry the fixed key order and ns -> us conversion.
  EXPECT_NE(Doc.find("{\"name\": \"round\", \"cat\": \"det\", \"ph\": \"X\","
                     " \"ts\": 1, \"dur\": 1, \"pid\": 0, \"tid\": 0,"
                     " \"args\": {\"k\": 3, \"frontier\": 12}}"),
            std::string::npos);
  EXPECT_NE(Doc.find("{\"name\": \"speculate\", \"cat\": \"wall\","
                     " \"ph\": \"X\", \"ts\": 2, \"dur\": 0, \"pid\": 0,"
                     " \"tid\": 0, \"args\": {}}"),
            std::string::npos);
}

TEST(Trace, ScopedSpansEmitChildrenBeforeParents) {
  obs::Trace::begin();
  {
    obs::ScopedSpan Outer("outer", obs::Trace::CatDet);
    Outer.arg("a", 1);
    { obs::ScopedSpan Inner("inner", obs::Trace::CatDet); }
  }
  obs::Trace::end();
  std::string Doc = obs::Trace::render();
  size_t Inner = Doc.find("\"name\": \"inner\"");
  size_t Outer = Doc.find("\"name\": \"outer\"");
  ASSERT_NE(Inner, std::string::npos);
  ASSERT_NE(Outer, std::string::npos);
  // Destruction order: the inner span lands in the buffer first.
  EXPECT_LT(Inner, Outer);
  EXPECT_NE(Doc.find("\"args\": {\"a\": 1}"), std::string::npos);
}

TEST(Trace, ScopedSpanDropsArgsPastTheCap) {
  obs::Trace::begin();
  {
    obs::ScopedSpan S("crowded", obs::Trace::CatDet);
    for (uint64_t I = 0; I < obs::ScopedSpan::MaxArgs + 3; ++I)
      S.arg("x", I);
  }
  obs::Trace::end();
  std::string Doc = obs::Trace::render();
  size_t Count = 0;
  for (size_t P = Doc.find("\"x\": "); P != std::string::npos;
       P = Doc.find("\"x\": ", P + 1))
    ++Count;
  EXPECT_EQ(Count, obs::ScopedSpan::MaxArgs);
}

/// Registers counters until the registry is past its slot cap, then a
/// histogram, observes it three times and exits 0 iff Metrics::value
/// counts all three.  Run only in a death-test child: the filled
/// registry must not reach the other cases.
[[noreturn]] void observeHistogramPastTheSlotCap() {
  for (uint32_t I = 0; I < obs::Metrics::MaxSlots; ++I)
    obs::Counter Fill(("obstest.fill." + std::to_string(I)).c_str());
  obs::Histogram H("obstest.fill.hist");
  for (int I = 0; I < 3; ++I)
    H.observe(1000); // Bucket 10: beyond a one-slot alias.
  std::exit(obs::Metrics::value("obstest.fill.hist") == 3 ? 0 : 1);
}

// An instrument registered past MaxSlots trips the debug assert; without
// asserts it lands in the overflow region, which holds a histogram's
// every bucket, so its writes stay in bounds and it counts in full.
TEST(Metrics, HistogramPastTheSlotCapCountsEveryObservation) {
#ifdef NDEBUG
  EXPECT_EXIT(observeHistogramPastTheSlotCap(), ::testing::ExitedWithCode(0),
              "");
#else
  EXPECT_DEATH(observeHistogramPastTheSlotCap(), "raise Metrics::MaxSlots");
#endif
}

TEST(Metrics, ResetAllZeroesEveryInstrument) {
  obs::Counter C("obstest.reset.counter");
  obs::Gauge G("obstest.reset.gauge");
  C.add(3);
  G.recordMax(9);
  std::thread([&] { C.add(2); }).join();
  obs::Metrics::resetAll();
  EXPECT_EQ(obs::Metrics::value("obstest.reset.counter"), 0u);
  EXPECT_EQ(obs::Metrics::value("obstest.reset.gauge"), 0u);
}

} // namespace
