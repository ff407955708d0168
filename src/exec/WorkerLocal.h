//===-- exec/WorkerLocal.h - Per-worker scratch slots -----------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One value of T per pool participant, padded to a cache line so two
/// workers' scratch never share one.  CbaEngine keeps its derive-phase
/// arenas (stack overlays, successor buffers) here: a task indexes the
/// slot by the worker id its ThreadPool passed in, which is exclusive for
/// the duration of the task, so no synchronisation is needed.
///
/// Determinism note: worker-local state is scratch, not output.  Anything
/// a round's result depends on must be written to task-indexed slots (see
/// exec/ParallelRound.h); the contents of a WorkerLocal between batches
/// are meaningful only through handles the tasks published there (e.g.
/// which overlay a given chunk's candidates point into).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_EXEC_WORKERLOCAL_H
#define CUBA_EXEC_WORKERLOCAL_H

#include <cassert>
#include <cstddef>
#include <vector>

#include "exec/ThreadPool.h"

namespace cuba::exec {

template <typename T> class WorkerLocal {
public:
  explicit WorkerLocal(const ThreadPool &Pool) : Slots(Pool.jobs()) {}

  size_t size() const { return Slots.size(); }

  /// The calling worker's slot; \p Worker is the id ThreadPool::run
  /// passed to the task.
  T &get(unsigned Worker) {
    assert(Worker < Slots.size() && "worker id out of range for this pool");
    return Slots[Worker].Value;
  }

  /// Serial sweep over all slots (for summation / reset between rounds).
  template <typename Fn> void forEach(Fn &&F) {
    for (Padded &S : Slots)
      F(S.Value);
  }

private:
  struct alignas(64) Padded {
    T Value{};
  };
  std::vector<Padded> Slots;
};

} // namespace cuba::exec

#endif // CUBA_EXEC_WORKERLOCAL_H
