//===-- tests/ExecTest.cpp - exec/ subsystem unit tests -------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the deterministic fork-join substrate: ThreadPool task
/// coverage and exception semantics, the side task beside the batches,
/// the ParallelRound helpers' ordered merging, and WorkerLocal slot
/// exclusivity.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <ctime>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "exec/ParallelRound.h"
#include "exec/ThreadPool.h"
#include "exec/WorkerLocal.h"
#include "support/FaultInject.h"

using namespace cuba;
using namespace cuba::exec;

namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4u);
  std::vector<int> Hits(10'000, 0);
  Pool.run(Hits.size(), [&](unsigned, size_t T) { ++Hits[T]; });
  for (int H : Hits)
    EXPECT_EQ(H, 1);
}

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool Pool(3);
  bool Called = false;
  Pool.run(0, [&](unsigned, size_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(ThreadPool, SingleJobPoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1u);
  uint64_t Sum = 0;
  // Serial inline execution: no synchronisation needed on Sum.
  Pool.run(100, [&](unsigned Worker, size_t T) {
    EXPECT_EQ(Worker, 0u);
    Sum += T;
  });
  EXPECT_EQ(Sum, 4950u);
}

TEST(ThreadPool, WorkerIdsStayInRange) {
  ThreadPool Pool(4);
  std::atomic<bool> Bad{false};
  Pool.run(1000, [&](unsigned Worker, size_t) {
    if (Worker >= Pool.jobs())
      Bad = true;
  });
  EXPECT_FALSE(Bad);
}

TEST(ThreadPool, PropagatesSmallestIndexedException) {
  ThreadPool Pool(4);
  // Every task past 100 throws; the batch still drains, and run()
  // rethrows the exception of the smallest task index regardless of
  // which worker hit it first.
  std::atomic<size_t> Executed{0};
  try {
    Pool.run(500, [&](unsigned, size_t T) {
      ++Executed;
      if (T >= 100)
        throw std::runtime_error("task " + std::to_string(T));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task 100");
  }
  EXPECT_EQ(Executed.load(), 500u);

  // The pool is usable afterwards.
  std::atomic<uint64_t> Sum{0};
  Pool.run(64, [&](unsigned, size_t T) {
    Sum.fetch_add(T, std::memory_order_relaxed);
  });
  EXPECT_EQ(Sum.load(), 2016u);
}

TEST(ThreadPool, BackToBackSmallBatchesStayIsolated) {
  // Regression stress for the straggler window: a worker woken for
  // batch k must never claim indices (or the dangling TaskRef) of
  // batch k+1.  Thousands of tiny consecutive batches maximise the
  // chance of a worker still waking up when the next batch starts;
  // per-batch generation tagging catches any cross-batch execution.
  ThreadPool Pool(4);
  std::vector<int> Batch(3, -1);
  for (int Gen = 0; Gen < 20'000; ++Gen) {
    Pool.run(Batch.size(), [&, Gen](unsigned, size_t T) { Batch[T] = Gen; });
    for (int V : Batch)
      ASSERT_EQ(V, Gen);
  }
}

TEST(ThreadPool, PoolSleepsWhenIdle) {
  // After a batch drains and no new one arrives, every worker must wait
  // on the condition variable rather than burn a core.  Pin it by
  // measuring process CPU time across an idle wall interval -- a
  // busy-burning pool of 4 workers would consume roughly 4x the
  // interval; a sleeping one consumes (far) less than one interval even
  // with scheduler noise.
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.run(64, [&](unsigned, size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 64);

  std::clock_t CpuBefore = std::clock();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  double CpuMs = 1000.0 * static_cast<double>(std::clock() - CpuBefore) /
                 CLOCKS_PER_SEC;
  EXPECT_LT(CpuMs, 150.0) << "idle pool burned " << CpuMs
                          << " ms CPU over a 300 ms sleep";

  // And the pool still wakes up for the next batch after sleeping.
  Pool.run(64, [&](unsigned, size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 128);
}

TEST(ThreadPool, SideTaskRunsOnAWorkerBesideBatches) {
  // The side task holds its worker until released; meanwhile batches
  // still run to completion on the remaining participants, and the pool
  // stays usable after the join.
  ThreadPool Pool(2);
  std::atomic<bool> Started{false}, Release{false};
  std::thread::id SideThread;
  Pool.startSide([&] {
    SideThread = std::this_thread::get_id();
    Started = true;
    while (!Release)
      std::this_thread::yield();
  });
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<size_t> Count{0};
  while (!Started && std::chrono::steady_clock::now() < Deadline)
    Pool.run(16, [&](unsigned, size_t) { ++Count; });
  EXPECT_TRUE(Started) << "no worker claimed the side task";
  Pool.run(16, [&](unsigned, size_t) { ++Count; });
  EXPECT_EQ(Count.load() % 16, 0u);
  Release = true;
  Pool.joinSide();
  EXPECT_NE(SideThread, std::this_thread::get_id());
  Pool.run(64, [&](unsigned, size_t) { ++Count; });
  Pool.joinSide(); // Nothing outstanding: a no-op.
}

TEST(ThreadPool, SideTaskExceptionSurfacesAtTheJoin) {
  for (unsigned Jobs : {1u, 4u}) {
    ThreadPool Pool(Jobs);
    Pool.startSide([] { throw std::runtime_error("side"); });
    try {
      Pool.joinSide();
      FAIL() << "expected an exception at jobs " << Jobs;
    } catch (const std::runtime_error &E) {
      EXPECT_STREQ(E.what(), "side");
    }
    // Joined: the next side task starts cleanly.
    bool Ran = false;
    Pool.startSide([&] { Ran = true; });
    Pool.joinSide();
    EXPECT_TRUE(Ran);
  }
}

TEST(ThreadPool, SideTaskExceptionSurvivesFinishingBeforeTheJoin) {
  // A worker that runs the side task to its throw before joinSide() is
  // entered hands the exception to the join all the same.
  ThreadPool Pool(2);
  std::atomic<bool> Threw{false};
  Pool.startSide([&] {
    Threw = true;
    throw std::runtime_error("side");
  });
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Threw && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
  ASSERT_TRUE(Threw) << "no worker claimed the side task";
  // Let the worker record the exception and retire the task.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_THROW(Pool.joinSide(), std::runtime_error);
}

TEST(ThreadPool, WorkerlessPoolRunsTheSideTaskAtTheJoin) {
  ThreadPool Pool(1);
  bool Ran = false;
  Pool.startSide([&] { Ran = true; });
  EXPECT_FALSE(Ran);
  Pool.joinSide();
  EXPECT_TRUE(Ran);
}

TEST(ThreadPool, SideTaskProbesTheWorkerFaultPointOnce) {
  // Wherever it runs, a side task passes one Worker probe first, so a
  // fault sweep sizes its index range the same way on every schedule.
  for (unsigned Jobs : {1u, 2u}) {
    ThreadPool Pool(Jobs);
    {
      fault::ScopedArm Count(fault::Point::Worker, UINT64_MAX);
      Pool.startSide([] {});
      Pool.joinSide();
      EXPECT_EQ(fault::probes(fault::Point::Worker), 1u) << "jobs " << Jobs;
    }
    fault::ScopedArm Arm(fault::Point::Worker, 0);
    bool Ran = false;
    Pool.startSide([&] { Ran = true; });
    EXPECT_THROW(Pool.joinSide(), fault::InjectedFault) << "jobs " << Jobs;
    EXPECT_FALSE(Ran);
  }
}

TEST(ThreadPool, DefaultJobsHonoursEnvOverride) {
  // CUBA_JOBS wins over hardware concurrency; malformed values fall
  // back.  setenv/unsetenv is safe here: tests run single-threaded.
  ASSERT_EQ(setenv("CUBA_JOBS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
  ASSERT_EQ(setenv("CUBA_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::defaultJobs(), 1u);
  ASSERT_EQ(unsetenv("CUBA_JOBS"), 0);
  EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ParallelRound, ChunksPartitionTheRange) {
  ThreadPool Pool(4);
  for (size_t N : {0ul, 1ul, 15ul, 16ul, 17ul, 1000ul}) {
    std::vector<int> Cover(N, 0);
    parallelChunks(Pool, N, 16,
                   [&](unsigned, size_t, size_t Begin, size_t End) {
                     ASSERT_LE(End, N);
                     for (size_t I = Begin; I < End; ++I)
                       ++Cover[I];
                   });
    for (int C : Cover)
      EXPECT_EQ(C, 1);
  }
}

TEST(ParallelRound, AdaptiveGrainStaysClamped) {
  EXPECT_EQ(adaptiveGrain(0, 4), 16u);
  EXPECT_EQ(adaptiveGrain(1'000'000, 1), 2048u);
  EXPECT_GE(adaptiveGrain(1000, 8), 16u);
}

TEST(WorkerLocal, SlotsAccumulateIndependently) {
  ThreadPool Pool(4);
  WorkerLocal<uint64_t> Partials(Pool);
  ASSERT_EQ(Partials.size(), 4u);
  parallelChunks(Pool, 100'000, 64,
                 [&](unsigned Worker, size_t, size_t Begin, size_t End) {
                   for (size_t I = Begin; I < End; ++I)
                     Partials.get(Worker) += I + 1;
                 });
  uint64_t Total = 0;
  Partials.forEach([&](uint64_t V) { Total += V; });
  EXPECT_EQ(Total, 100'000ull * 100'001ull / 2);
}

} // namespace
