//===-- verifybench/Staged.h - Traced stage-by-stage verification -*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced pass.  Instead of one runCuba call per input it calls the
/// stages one at a time through their public functions -- parse, sema,
/// translate, checkFcr, computeZ, GeneratorSet::intersect, then the
/// engine's advance() loop up to the k_max runCuba reported -- and wraps
/// each call in a span the benchmark owns (one track per input).  The
/// spans render as a Perfetto-loadable Chrome trace, and every per-layer
/// time is a self time computed from those spans.  Counts are read
/// through public accessors only: obs::Metrics (reset between inputs),
/// the engines' size and memory accessors, and ThreadPool::workerStats().
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_STAGED_H
#define VERIFYBENCH_STAGED_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "Inputs.h"
#include "exec/ThreadPool.h"

namespace verifybench {

/// One completed span.  Track is the input index, Pass the staged pass
/// (rendered as the trace's pid so passes never overlap on a track).
struct Span {
  const char *Name = "";
  uint32_t Pass = 0;
  uint32_t Track = 0;
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;
  std::vector<std::pair<const char *, uint64_t>> Args;
};

/// In-memory span buffer, written out once the benchmark ends.
class SpanLog {
public:
  SpanLog();

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const char *Name, uint32_t Pass, uint32_t Track);
  void close(int Idx);
  void arg(int Idx, const char *Key, uint64_t Val) {
    Spans[Idx].Args.emplace_back(Key, Val);
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Names a pass (pid) and a track (tid) in the rendered trace.
  void namePass(uint32_t Pass, std::string Name);
  void nameTrack(uint32_t Track, std::string Name);

  /// Chrome trace_event JSON (complete "X" events plus name metadata).
  std::string render() const;

  /// Self time per span name and track over the spans of \p Pass, in
  /// ms: each span's duration minus what its child spans cover, summed
  /// per (name, track) into vectors of \p Tracks entries.
  std::map<std::string, std::vector<double>> selfMs(uint32_t Pass,
                                                    size_t Tracks) const;

private:
  uint64_t now() const;

  std::vector<Span> Spans;
  std::vector<int> Open;
  std::map<uint32_t, std::string> PassNames, TrackNames;
  uint64_t OriginNs = 0;
};

/// RAII span over a lexical scope.
class ScopedStage {
public:
  ScopedStage(SpanLog &Log, const char *Name, uint32_t Pass, uint32_t Track)
      : Log(Log), Idx(Log.open(Name, Pass, Track)) {}
  ~ScopedStage() { Log.close(Idx); }
  ScopedStage(const ScopedStage &) = delete;
  ScopedStage &operator=(const ScopedStage &) = delete;

  int index() const { return Idx; }

private:
  SpanLog &Log;
  int Idx;
};

/// Counts one staged pass gathered, summed over its inputs.
struct StagedCounts {
  uint64_t Inputs = 0;
  uint64_t BpActions = 0;
  uint64_t FcrHolds = 0;
  uint64_t ZStates = 0;
  uint64_t GenPending = 0;
  uint64_t CbaRounds = 0, CbaStates = 0, CbaBytes = 0;
  uint64_t SymRounds = 0, SymStates = 0, SymLanguages = 0;
  uint64_t SatPops = 0, SatBytesHwm = 0;
  uint64_t Transactions = 0, TransactionsCached = 0;
  uint64_t Extractions = 0, ExtractSkipped = 0;
  uint64_t PrefetchHits = 0, PrefetchDropped = 0;
  /// cba.commit.shard_imbalance_pct histogram buckets, summed.
  std::array<uint64_t, 32> Imbalance{};
  /// Pool deltas over the pass (all participants).
  uint64_t BusyNs = 0, Tasks = 0, Batches = 0;
};

/// Outcome of one staged pass.
struct StagedPass {
  StagedCounts Counts;
  /// Set when a stage-by-stage run disagrees with runCuba's answer.
  std::string Inconsistency;
};

/// Verifies every input stage by stage on \p Pool as trace process
/// \p Pass, driving each engine to the k_max of \p Ref[i] (runCuba's
/// verification of input i) and checking the staged verdict against it.
StagedPass runStagedPass(const std::vector<Input> &Inputs,
                         const std::vector<Verification> &Ref,
                         cuba::exec::ThreadPool &Pool, SpanLog &Log,
                         uint32_t Pass);

} // namespace verifybench

#endif // VERIFYBENCH_STAGED_H
