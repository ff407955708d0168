//===-- exec/ThreadPool.h - Deterministic fork-join thread pool -*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate for the explicit engine's parallel levels
/// (CbaEngine) and for the one side task a run keeps beside them (G cap
/// Z, core/ZOverapprox; symbolic rounds are serial).  A ThreadPool owns
/// jobs-1 long-lived worker threads; run() executes a batch of indexed
/// tasks with the calling thread participating as worker 0, and returns
/// only when every task has finished (fork-join).  Idle participants
/// steal the next unclaimed task index from a shared atomic counter, so
/// load balance is dynamic while the task *indexing* -- the only thing
/// the engine's ordered merges depend on -- is fixed by the caller.
///
/// Determinism contract: a task may depend only on its index and on
/// state that is frozen for the duration of the batch; anything
/// order-sensitive (id assignment, budget accounting, container growth)
/// belongs in the serial commit between batches.  Under that contract
/// the results of a parallel phase are identical for every pool size,
/// including 1 (see exec/ParallelRound.h for the round harness built on
/// top of this, and ParallelDeterminismTest for the pinning suite).
///
/// Exceptions thrown by tasks are captured and the one with the
/// smallest task index is rethrown from run() after the batch drains --
/// again independent of timing.  A task must not start a batch of its
/// own on its pool: run() is not reentrant.
///
/// Side task: startSide() hands one self-contained job to an idle
/// worker and returns after a wake-up, so the caller's batches proceed
/// beside it on the other participants; joinSide() waits for it (or runs
/// it on the caller when no worker has claimed it yet) and rethrows its
/// exception.  A side task reads only state nobody writes while it runs
/// and publishes its result through its own captures, so the caller
/// sees the same result whichever thread ran it.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_EXEC_THREADPOOL_H
#define CUBA_EXEC_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cuba::exec {

/// Lifetime accounting for one pool participant (worker 0 is the
/// calling/driver thread): cumulative wall-clock spent executing tasks,
/// tasks executed, and batches participated in.  Purely observational --
/// the values depend on scheduling and are reported under the "wall"
/// side of the observability split.
struct WorkerStats {
  uint64_t BusyNs = 0;
  uint64_t Tasks = 0;
  uint64_t Batches = 0;
};

/// Non-owning view of a `void(unsigned Worker, size_t Task)` callable;
/// run() takes this instead of std::function so per-batch dispatch never
/// allocates.
class TaskRef {
public:
  /// Implicit by design, mirroring function_ref; disabled for TaskRef
  /// itself so copies use the copy constructor instead of wrapping a
  /// pointer to the (possibly shorter-lived) source wrapper.
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<Fn>, TaskRef>>>
  TaskRef(Fn &&F) // NOLINT: implicit by design.
      : Obj(const_cast<void *>(static_cast<const void *>(&F))),
        Call([](void *O, unsigned Worker, size_t Task) {
          (*static_cast<std::remove_reference_t<Fn> *>(O))(Worker, Task);
        }) {}

  void operator()(unsigned Worker, size_t Task) const {
    Call(Obj, Worker, Task);
  }

private:
  void *Obj;
  void (*Call)(void *, unsigned, size_t);
};

/// A fixed-size fork-join pool.  Not itself thread-safe: run() must be
/// called from one owning thread at a time (an engine runs its rounds
/// from a single driver thread).
class ThreadPool {
public:
  /// The largest total parallelism a pool takes, whatever the source of
  /// the value (`--jobs`, CUBA_JOBS, tests): beyond it extra workers only
  /// oversubscribe.
  static constexpr unsigned MaxJobs = 256;

  /// Creates a pool of total parallelism \p Jobs (clamped to MaxJobs):
  /// the caller of run() plus Jobs-1 workers.  Jobs == 1 spawns no threads
  /// and makes run() a plain serial loop.  Throws std::system_error
  /// (after joining any workers that did start) when the platform
  /// refuses a thread.
  explicit ThreadPool(unsigned Jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total parallelism (worker ids passed to tasks lie in [0, jobs())).
  unsigned jobs() const { return static_cast<unsigned>(Workers.size()) + 1; }

  /// Executes Fn(worker, t) for every t in [0, NumTasks), blocking until
  /// all tasks finished.  Every task runs exactly once; the smallest
  /// -indexed captured exception is rethrown.  Not to be called from
  /// inside a task.
  void run(size_t NumTasks, TaskRef Fn);

  /// The parallelism the `--jobs` default resolves to: the CUBA_JOBS
  /// environment variable when set to a positive integer (at most
  /// MaxJobs), otherwise the hardware concurrency (at least 1).
  static unsigned defaultJobs();

  /// Per-participant busy/task/batch totals since construction, indexed
  /// by worker id (jobs() entries).  Safe to call between batches; a
  /// concurrent batch may be mid-update, so treat the figures as
  /// monotone approximations.  Batch participation only: a side task is
  /// not counted.
  std::vector<WorkerStats> workerStats() const;

  /// Hands \p Fn to one idle worker and returns at once: the caller pays
  /// a wake-up, not a thread spawn.  At most one side task is
  /// outstanding; joinSide() must follow before the next startSide() and
  /// before the pool dies.  \p Fn must not run batches on this pool.  On
  /// a pool without workers it runs at joinSide().
  void startSide(std::function<void()> Fn);

  /// Waits until the side task has run and rethrows what it threw.  A
  /// task no worker has claimed yet runs here, on the caller, so every
  /// started task runs exactly once -- after the same Worker fault probe
  /// a batch task passes -- wherever it runs.
  void joinSide();

private:
  void workerLoop(unsigned Worker);
  /// Probes the Worker fault point, then runs the claimed side task;
  /// returns what either threw.
  static std::exception_ptr runSide(std::function<void()> &F);
  /// Claims and executes tasks until the batch is drained; returns the
  /// number executed (the caller settles the batch accounting).
  size_t participate(unsigned Worker, const TaskRef &Fn, size_t NumTasks);
  void recordException(size_t Task);

  std::vector<std::thread> Workers;

  std::mutex M;
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;
  const TaskRef *Fn = nullptr; // Valid while a batch is live.
  size_t NumTasks = 0;
  uint64_t Generation = 0;   // Bumped per batch (guarded by M).
  size_t Unfinished = 0;    // Tasks not yet executed (guarded by M).
  size_t ActiveWorkers = 0; // Workers inside the current batch.
  bool Stop = false;        // Guarded by M.
  std::exception_ptr FirstExc;
  size_t FirstExcTask = 0;

  std::atomic<size_t> NextTask{0};

  /// The side task, guarded by M: SideFn holds it from startSide() until
  /// a worker (or joinSide()) claims it, while SidePending is set;
  /// SideOutstanding stays set until it has run.
  std::function<void()> SideFn;
  bool SidePending = false;
  bool SideOutstanding = false;
  std::exception_ptr SideExc;
  std::condition_variable SideCv;

  /// One padded accounting cell per participant, written only by its
  /// owner (relaxed atomics so workerStats() reads race-free).
  struct alignas(64) StatsCell {
    std::atomic<uint64_t> BusyNs{0};
    std::atomic<uint64_t> Tasks{0};
    std::atomic<uint64_t> Batches{0};
  };
  std::unique_ptr<StatsCell[]> Stats;
};

} // namespace cuba::exec

#endif // CUBA_EXEC_THREADPOOL_H
