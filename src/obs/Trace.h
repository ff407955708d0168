//===-- obs/Trace.h - Structured span tracing -------------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scoped span events (round, saturate, extract, commit, evict,
/// Z-overapprox, dataflow rounds, ...) rendered as Chrome `trace_event`
/// JSON -- the format Perfetto (https://ui.perfetto.dev) and
/// chrome://tracing load directly.  Enabled by `--trace-out FILE`;
/// disabled tracing costs one relaxed atomic load per probe.
///
/// Determinism contract (pinned by TraceDeterminismTest): span *content*
/// -- name, category, argument keys and values, and emission order -- is
/// a pure function of serially committed engine state, so it is
/// byte-identical at any `--jobs` for the same input.  Only `ts` and
/// `dur` (wall-clock) are scheduling-dependent; every span is emitted by
/// the driver thread and rendered on its one track, `"tid": 0`.  Two
/// categories split the events:
///
///   * "det":  emitted at serially ordered points; identical at any
///             job count after stripping ts/dur/tid,
///   * "wall": timing/scheduling telemetry (parallel derive batches,
///             per-level commits, anything whose existence depends on
///             the job count); excluded from the contract.
///
/// The stripping rule for comparing traces: drop every line whose event
/// has `"cat":"wall"` or `"ph":"M"`, then zero the `ts`, `dur` and `tid`
/// values.  Events are rendered one per line with a fixed key order
/// precisely so this is a line-local text transformation.
///
/// Emission discipline: Trace::span / ScopedSpan run only on the driver
/// thread, at serially ordered points; pool workers never emit (a
/// parallel phase is spanned as a whole by the driver around it).
/// Name/category/argument-key strings must be literals (the buffer
/// stores the pointers).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_OBS_TRACE_H
#define CUBA_OBS_TRACE_H

#include <cstdint>
#include <string>

namespace cuba::obs {

/// One span argument: a literal key and an integer value.
struct SpanArg {
  const char *Key;
  uint64_t Val;
};

class Trace {
public:
  /// Deterministic-content category (see file comment).
  static constexpr const char *CatDet = "det";
  /// Scheduling/timing category, stripped before cross-jobs comparison.
  static constexpr const char *CatWall = "wall";

  /// Whether a trace is being collected; every probe gates on this.
  static bool enabled();

  /// Clears any buffered events, resets the time origin, and enables
  /// collection.
  static void begin();

  /// Stops collection; buffered events remain renderable.
  static void end();

  /// Nanoseconds since begin() (0 when tracing is disabled -- callers
  /// may sample unconditionally on hot paths they already guard).
  static uint64_t nowNs();

  /// Buffers one complete span.  Serial emission points only; \p Name,
  /// \p Cat, and argument keys must be string literals.
  static void span(const char *Name, const char *Cat, uint64_t BeginNs,
                   uint64_t EndNs, const SpanArg *Args, uint32_t NumArgs);

  /// Renders the buffered events as a Chrome trace_event JSON document,
  /// one event per line, fixed key order
  /// {"name","cat","ph","ts","dur","pid","tid","args"}, after a ph:"M"
  /// metadata row naming track 0 "driver" (omitted when no span was
  /// buffered).
  static std::string render();

  /// render() to \p Path; returns false (with errno pending) on I/O
  /// failure.
  static bool writeFile(const std::string &Path);
};

/// RAII span for serially executed scopes on the emitting thread:
/// samples begin at construction, emits at destruction with any args
/// added in between.  Inert when tracing is disabled at construction.
class ScopedSpan {
public:
  static constexpr uint32_t MaxArgs = 8;

  ScopedSpan(const char *Name, const char *Cat)
      : Name(Name), Cat(Cat), Active(Trace::enabled()),
        BeginNs(Active ? Trace::nowNs() : 0) {}

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches an argument (literal key); silently dropped past MaxArgs.
  void arg(const char *Key, uint64_t Val) {
    if (Active && NumArgs < MaxArgs)
      Args[NumArgs++] = {Key, Val};
  }

  ~ScopedSpan() {
    if (Active)
      Trace::span(Name, Cat, BeginNs, Trace::nowNs(), Args, NumArgs);
  }

private:
  const char *Name;
  const char *Cat;
  bool Active;
  uint64_t BeginNs;
  SpanArg Args[MaxArgs];
  uint32_t NumArgs = 0;
};

} // namespace cuba::obs

#endif // CUBA_OBS_TRACE_H
