//===-- exec/ParallelRound.h - Deterministic fork-join helpers --*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fork-join layer the explicit engine's levels are written against:
/// index-ordered parallel iteration whose outputs land in slots keyed by
/// task (or chunk) index, never by worker or completion order.  A round
/// then has the shape
///
///   derive:  parallelChunks(...) fills Out[chunk] from frozen state,
///   commit:  a serial walk of Out[0..N) in index order performs every
///            order-sensitive effect (id assignment, dedup, budgets),
///
/// which is what makes `--jobs N` bit-identical to `--jobs 1`: the
/// parallel phase is a pure function of the chunk index, and the merge
/// order is the serial order by construction.  Chunk *boundaries* may
/// depend on the grain and job count; the engine keeps per-chunk outputs
/// self-delimiting so concatenation in chunk order is independent of
/// where the cuts fall.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_EXEC_PARALLELROUND_H
#define CUBA_EXEC_PARALLELROUND_H

#include <algorithm>
#include <cassert>

#include "exec/ThreadPool.h"

namespace cuba::exec {

/// Number of chunks parallelChunks() splits \p N items into at grain
/// \p Grain (the last chunk may be short).
inline size_t chunkCount(size_t N, size_t Grain) {
  assert(Grain > 0 && "chunk grain must be positive");
  return (N + Grain - 1) / Grain;
}

/// A grain that yields a few chunks per participant (for dynamic load
/// balance) without letting tiny chunks drown the work in scheduling:
/// clamped to [MinGrain, MaxGrain].
inline size_t adaptiveGrain(size_t N, unsigned Jobs, size_t MinGrain = 16,
                            size_t MaxGrain = 2048) {
  size_t Target = N / (4 * static_cast<size_t>(Jobs ? Jobs : 1));
  return std::clamp(Target, MinGrain, MaxGrain);
}

/// Runs Fn(Worker, Chunk, Begin, End) over [0, N) split into Grain-sized
/// half-open ranges, chunk c covering [c*Grain, min(N, (c+1)*Grain)).
template <typename Fn>
void parallelChunks(ThreadPool &Pool, size_t N, size_t Grain, Fn &&F) {
  if (N == 0)
    return;
  size_t Chunks = chunkCount(N, Grain);
  Pool.run(Chunks, [&](unsigned Worker, size_t Chunk) {
    size_t Begin = Chunk * Grain;
    size_t End = std::min(N, Begin + Grain);
    F(Worker, Chunk, Begin, End);
  });
}

} // namespace cuba::exec

#endif // CUBA_EXEC_PARALLELROUND_H
