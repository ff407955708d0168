//===-- obs/Trace.cpp - Structured span tracing ---------------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

using namespace cuba;
using namespace cuba::obs;

namespace {

struct Event {
  const char *Name;
  const char *Cat;
  uint64_t BeginNs;
  uint64_t DurNs;
  uint32_t NumArgs;
  SpanArg Args[ScopedSpan::MaxArgs];
};

/// The global sink.  Spans are only buffered from serially ordered
/// points (see Trace.h), so the mutex is uncontended; it exists to make
/// begin()/end()/render() safe against a stray late emission.
struct Sink {
  std::mutex M;
  std::vector<Event> Events;
  std::atomic<bool> Enabled{false};
  std::chrono::steady_clock::time_point T0;
};

/// Leaked, like the metrics registry, so a span emitted from another
/// static's destructor never reaches a destroyed sink.
Sink &sink() {
  static Sink *S = new Sink;
  return *S;
}

} // namespace

bool Trace::enabled() {
  return sink().Enabled.load(std::memory_order_relaxed);
}

void Trace::begin() {
  Sink &S = sink();
  std::lock_guard<std::mutex> L(S.M);
  S.Events.clear();
  S.T0 = std::chrono::steady_clock::now();
  S.Enabled.store(true, std::memory_order_relaxed);
}

void Trace::end() {
  sink().Enabled.store(false, std::memory_order_relaxed);
}

uint64_t Trace::nowNs() {
  Sink &S = sink();
  if (!S.Enabled.load(std::memory_order_relaxed))
    return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - S.T0)
          .count());
}

void Trace::span(const char *Name, const char *Cat, uint64_t BeginNs,
                 uint64_t EndNs, const SpanArg *Args, uint32_t NumArgs) {
  Sink &S = sink();
  std::lock_guard<std::mutex> L(S.M);
  if (!S.Enabled.load(std::memory_order_relaxed))
    return;
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.BeginNs = BeginNs;
  E.DurNs = EndNs >= BeginNs ? EndNs - BeginNs : 0;
  E.NumArgs = std::min(NumArgs, ScopedSpan::MaxArgs);
  std::copy(Args, Args + E.NumArgs, E.Args);
  S.Events.push_back(E);
}

std::string Trace::render() {
  Sink &S = sink();
  std::lock_guard<std::mutex> L(S.M);

  std::string Out = "{\"traceEvents\": [\n";

  // The metadata row first, so Perfetto labels the one track.  ph:"M"
  // rows are dropped by the determinism stripper.
  if (!S.Events.empty())
    Out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": 0, \"args\": {\"name\": \"driver\"}}";

  // One complete event per line, fixed key order, so the cross-jobs
  // comparison in TraceDeterminismTest is a line-local transformation.
  // ts/dur are microseconds (the trace_event unit); flooring ns/1000 is
  // monotone, so parent/child nesting survives the truncation.
  for (const Event &E : S.Events) {
    Out += ",\n{\"name\": \"";
    Out += E.Name;
    Out += "\", \"cat\": \"";
    Out += E.Cat;
    Out += "\", \"ph\": \"X\", \"ts\": " + std::to_string(E.BeginNs / 1000) +
           ", \"dur\": " + std::to_string(E.DurNs / 1000) +
           ", \"pid\": 0, \"tid\": 0, \"args\": {";
    for (uint32_t I = 0; I < E.NumArgs; ++I) {
      if (I)
        Out += ", ";
      Out += '"';
      Out += E.Args[I].Key;
      Out += "\": " + std::to_string(E.Args[I].Val);
    }
    Out += "}}";
  }

  Out += "\n]}\n";
  return Out;
}

bool Trace::writeFile(const std::string &Path) {
  std::string Doc = render();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Doc.data(), 1, Doc.size(), F);
  bool Ok = Written == Doc.size();
  return std::fclose(F) == 0 && Ok;
}
