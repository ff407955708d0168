//===-- exec/ThreadPool.cpp - Deterministic fork-join thread pool ---------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "exec/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "support/FaultInject.h"
#include "support/StringUtils.h"

using namespace cuba;
using namespace cuba::exec;

ThreadPool::ThreadPool(unsigned Jobs) {
  assert(Jobs >= 1 && "a pool needs at least the calling thread");
  unsigned Target = std::clamp(Jobs, 1u, MaxJobs);
  Stats = std::make_unique<StatsCell[]>(Target);
  Workers.reserve(Target - 1);
  try {
    for (unsigned I = 1; I < Target; ++I)
      Workers.emplace_back([this, I] { workerLoop(I); });
  } catch (...) {
    // A spawn failed (thread-limited environment): shut down the
    // workers that did start -- a vector of joinable threads would
    // std::terminate on destruction -- and surface the error.
    {
      std::lock_guard<std::mutex> L(M);
      Stop = true;
    }
    WorkCv.notify_all();
    for (std::thread &T : Workers)
      T.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  assert(!SideOutstanding && "a side task outlives its pool");
  {
    std::lock_guard<std::mutex> L(M);
    Stop = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

unsigned ThreadPool::defaultJobs() {
  if (const char *Env = std::getenv("CUBA_JOBS"))
    if (auto V = parseUnsigned(Env); V && *V >= 1)
      return static_cast<unsigned>(std::min<uint64_t>(*V, MaxJobs));
  unsigned H = std::thread::hardware_concurrency();
  return H ? H : 1;
}

void ThreadPool::recordException(size_t Task) {
  std::lock_guard<std::mutex> L(M);
  if (!FirstExc || Task < FirstExcTask) {
    FirstExc = std::current_exception();
    FirstExcTask = Task;
  }
}

size_t ThreadPool::participate(unsigned Worker, const TaskRef &Fn,
                               size_t NumTasks) {
  auto Begin = std::chrono::steady_clock::now();
  size_t Done = 0;
  for (;;) {
    size_t T = NextTask.fetch_add(1, std::memory_order_relaxed);
    if (T >= NumTasks)
      break;
    try {
      // Worker-point probe: an injected throw takes the exact path a
      // real task exception would (recordException below, then the
      // deterministic smallest-task-index rethrow in run()).
      if (fault::fire(fault::Point::Worker))
        throw fault::InjectedFault();
      Fn(Worker, T);
    } catch (...) {
      recordException(T);
    }
    ++Done;
  }
  if (Done) {
    // One clock pair per batch participation, not per task, so the
    // accounting cost is unmeasurable on the engines' small levels.
    uint64_t Ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Begin)
            .count());
    StatsCell &C = Stats[Worker];
    C.BusyNs.fetch_add(Ns, std::memory_order_relaxed);
    C.Tasks.fetch_add(Done, std::memory_order_relaxed);
    C.Batches.fetch_add(1, std::memory_order_relaxed);
  }
  return Done;
}

std::vector<WorkerStats> ThreadPool::workerStats() const {
  std::vector<WorkerStats> Out(jobs());
  for (unsigned I = 0; I < Out.size(); ++I) {
    Out[I].BusyNs = Stats[I].BusyNs.load(std::memory_order_relaxed);
    Out[I].Tasks = Stats[I].Tasks.load(std::memory_order_relaxed);
    Out[I].Batches = Stats[I].Batches.load(std::memory_order_relaxed);
  }
  return Out;
}

void ThreadPool::workerLoop(unsigned Worker) {
  uint64_t SeenGeneration = 0;
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    // Workers sleep between batches rather than spin: only levels large
    // enough to repay a wake-up are dispatched (CbaEngine::
    // MinParallelLevel), and the serial commit between two of them
    // lasts longer than a spin would wait.
    WorkCv.wait(L, [&] {
      return Stop || SidePending || Generation != SeenGeneration;
    });
    if (Stop)
      return;
    if (SidePending) {
      // Claim the side task; batches started meanwhile go on without
      // this worker, which joins them late (or skips them) afterwards.
      SidePending = false;
      std::function<void()> F = std::move(SideFn);
      L.unlock();
      std::exception_ptr Exc = runSide(F);
      L.lock();
      SideExc = Exc;
      SideOutstanding = false;
      SideCv.notify_all();
      continue;
    }
    SeenGeneration = Generation;
    // A wakeup can arrive after the batch it was meant for has already
    // drained and joined (the caller only waits for *entered* workers).
    // The batch is gone once run() cleared Fn; skip back to waiting.
    if (Fn == nullptr)
      continue;
    ++ActiveWorkers; // From here run() will wait for our retirement.
    const TaskRef *F = Fn;
    size_t N = NumTasks;
    L.unlock();
    size_t Done = participate(Worker, *F, N);
    L.lock();
    Unfinished -= Done;
    --ActiveWorkers;
    if (Unfinished == 0 && ActiveWorkers == 0)
      DoneCv.notify_all();
  }
}

void ThreadPool::run(size_t N, TaskRef F) {
  if (N == 0)
    return;
  // A pool without workers, or a single-task batch: execute inline.
  // Inline execution propagates the first throw directly, which for a
  // serial loop is also the smallest task index -- the same exception
  // the parallel path would choose.  The N == 1 shortcut keeps tiny
  // phases free of dispatch latency.
  if (N == 1 || Workers.empty()) {
    auto Begin = std::chrono::steady_clock::now();
    for (size_t T = 0; T < N; ++T) {
      // Same probe as participate(), so the Worker fault point also
      // covers inline (single-task / workerless) batches.
      if (fault::fire(fault::Point::Worker))
        throw fault::InjectedFault();
      F(0, T);
    }
    uint64_t Ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Begin)
            .count());
    StatsCell &C = Stats[0];
    C.BusyNs.fetch_add(Ns, std::memory_order_relaxed);
    C.Tasks.fetch_add(N, std::memory_order_relaxed);
    C.Batches.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  {
    std::lock_guard<std::mutex> L(M);
    assert(Fn == nullptr && "run() is not reentrant");
    Fn = &F;
    NumTasks = N;
    Unfinished = N;
    ActiveWorkers = 0;
    FirstExc = nullptr;
    NextTask.store(0, std::memory_order_relaxed);
    ++Generation;
  }
  // Waking more workers than there are remaining tasks only buys
  // wakeup latency; the ones left asleep skip this generation entirely
  // (the predicate still fires for the next one).
  size_t ToWake = std::min(N - 1, Workers.size());
  if (ToWake == Workers.size())
    WorkCv.notify_all();
  else
    for (size_t I = 0; I < ToWake; ++I)
      WorkCv.notify_one();
  size_t Done = participate(0, F, N);

  std::exception_ptr Exc;
  {
    std::unique_lock<std::mutex> L(M);
    Unfinished -= Done;
    // Join on task completion AND worker retirement: a worker that was
    // woken but has not yet claimed a task must leave the batch before
    // F (a reference into this frame) can die and NextTask be reused.
    DoneCv.wait(L, [&] { return Unfinished == 0 && ActiveWorkers == 0; });
    Fn = nullptr;
    Exc = FirstExc;
    FirstExc = nullptr;
  }
  if (Exc)
    std::rethrow_exception(Exc);
}

std::exception_ptr ThreadPool::runSide(std::function<void()> &F) {
  try {
    if (fault::fire(fault::Point::Worker))
      throw fault::InjectedFault();
    F();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

void ThreadPool::startSide(std::function<void()> Fn) {
  {
    std::lock_guard<std::mutex> L(M);
    assert(!SideOutstanding && "one side task at a time");
    SideFn = std::move(Fn);
    SideExc = nullptr;
    SideOutstanding = true;
    SidePending = true;
  }
  WorkCv.notify_one();
}

void ThreadPool::joinSide() {
  std::function<void()> F;
  std::exception_ptr Exc;
  bool RunHere = false;
  {
    std::unique_lock<std::mutex> L(M);
    if (SidePending) {
      // Unclaimed: run it here rather than wait for a worker to wake.
      SidePending = false;
      F = std::move(SideFn);
      SideOutstanding = false;
      RunHere = true;
    } else {
      // A worker claimed it: wait for it to finish, if it has not
      // already, and take what it threw.
      SideCv.wait(L, [&] { return !SideOutstanding; });
      Exc = std::exchange(SideExc, nullptr);
    }
  }
  if (RunHere)
    Exc = runSide(F);
  if (Exc)
    std::rethrow_exception(Exc);
}
