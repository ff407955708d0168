//===-- obs/Metrics.cpp - Typed metrics registry --------------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <mutex>
#include <unordered_map>

using namespace cuba;
using namespace cuba::obs;

namespace {

struct Instrument {
  std::string Name;
  Kind K = Kind::Counter;
  bool Deterministic = true;
  uint32_t Slot = 0;
  uint32_t Width = 1;
};

struct Registry {
  std::mutex M;
  std::vector<Instrument> Instruments; // Registration order.
  std::unordered_map<std::string, uint32_t> Index; // Name -> index above.
  uint32_t NextSlot = 0;
  /// Every instrument's value, slot-indexed; bumped without the mutex.
  /// The NumBuckets slots past MaxSlots are the overflow region every
  /// instrument registered past the cap shares.
  std::array<std::atomic<uint64_t>,
             Metrics::MaxSlots + Histogram::NumBuckets>
      Vals{};
};

/// Deliberately leaked, so a probe firing from another static's
/// destructor never reaches a destroyed registry.
Registry &registry() {
  static Registry *R = new Registry;
  return *R;
}

uint64_t load(const Registry &R, uint32_t Slot) {
  return R.Vals[Slot].load(std::memory_order_relaxed);
}

} // namespace

std::atomic<uint64_t> *Metrics::registerInstrument(const char *Name, Kind K,
                                                   bool Deterministic,
                                                   uint32_t Width) {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  auto It = R.Index.find(Name);
  if (It != R.Index.end()) {
    const Instrument &I = R.Instruments[It->second];
    assert(I.K == K && "instrument re-registered with a different kind");
    return &R.Vals[I.Slot];
  }
  // Past the cap every new instrument aliases the overflow region at its
  // full width, so a histogram's bucket writes stay inside Vals; the
  // snapshot then reports the merged values under each such name, which
  // keeps the hot path branch-free (the engines register a few dozen).
  uint32_t Slot = R.NextSlot;
  if (Slot + Width > MaxSlots) {
    assert(false && "raise Metrics::MaxSlots");
    Slot = MaxSlots;
  } else {
    R.NextSlot += Width;
  }
  uint32_t Idx = static_cast<uint32_t>(R.Instruments.size());
  R.Instruments.push_back({Name, K, Deterministic, Slot, Width});
  R.Index.emplace(Name, Idx);
  return &R.Vals[Slot];
}

Counter::Counter(const char *Name, bool Deterministic)
    : Slot(Metrics::registerInstrument(Name, Kind::Counter, Deterministic,
                                       1)) {}

Gauge::Gauge(const char *Name, bool Deterministic)
    : Slot(Metrics::registerInstrument(Name, Kind::Gauge, Deterministic,
                                       1)) {}

Histogram::Histogram(const char *Name, bool Deterministic)
    : Slots(Metrics::registerInstrument(Name, Kind::Histogram, Deterministic,
                                        NumBuckets)) {}

std::vector<InstrumentSnapshot> Metrics::snapshot() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  std::vector<InstrumentSnapshot> Out;
  Out.reserve(R.Instruments.size());
  for (const Instrument &I : R.Instruments) {
    InstrumentSnapshot S;
    S.Name = I.Name;
    S.K = I.K;
    S.Deterministic = I.Deterministic;
    if (I.K == Kind::Histogram) {
      S.Buckets.resize(I.Width);
      for (uint32_t B = 0; B < I.Width; ++B) {
        S.Buckets[B] = load(R, I.Slot + B);
        S.Value += S.Buckets[B];
      }
    } else {
      S.Value = load(R, I.Slot);
    }
    Out.push_back(std::move(S));
  }
  std::sort(Out.begin(), Out.end(),
            [](const InstrumentSnapshot &A, const InstrumentSnapshot &B) {
              return A.Name < B.Name;
            });
  return Out;
}

uint64_t Metrics::value(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  auto It = R.Index.find(Name);
  if (It == R.Index.end())
    return 0;
  const Instrument &I = R.Instruments[It->second];
  uint64_t V = 0;
  for (uint32_t B = 0; B < I.Width; ++B)
    V += load(R, I.Slot + B);
  return V;
}

void Metrics::resetAll() {
  for (std::atomic<uint64_t> &V : registry().Vals)
    V.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// --stats-json rendering
//===----------------------------------------------------------------------===//

namespace {

void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
}

/// One "name": value line inside an object section.
void appendEntry(std::string &Out, const std::string &Name,
                 const std::string &RawValue, bool &First) {
  if (!First)
    Out += ",\n";
  First = false;
  Out += "    \"";
  appendEscaped(Out, Name);
  Out += "\": ";
  Out += RawValue;
}

std::string renderHistogram(const InstrumentSnapshot &S) {
  // Sparse rendering: [bucket lower bound, count] pairs for the nonzero
  // buckets only -- deterministic (a pure function of the counts) and
  // readable for the typical narrow distributions.
  std::string V = "{\"total\": " + std::to_string(S.Value) +
                  ", \"buckets\": [";
  bool First = true;
  for (uint32_t B = 0; B < S.Buckets.size(); ++B) {
    if (!S.Buckets[B])
      continue;
    if (!First)
      V += ", ";
    First = false;
    V += "[" + std::to_string(Histogram::bucketLow(B)) + ", " +
         std::to_string(S.Buckets[B]) + "]";
  }
  V += "]}";
  return V;
}

} // namespace

std::string cuba::obs::renderStatsJson(
    const std::vector<InstrumentSnapshot> &Snapshot,
    const std::vector<std::pair<std::string, std::string>> &WallExtra) {
  std::string Out = "{\n  \"schema\": \"cuba-stats-v1\",\n";

  auto Section = [&](const char *Key, Kind K) {
    Out += "  \"";
    Out += Key;
    Out += "\": {\n";
    bool First = true;
    for (const InstrumentSnapshot &S : Snapshot) {
      if (S.K != K || !S.Deterministic)
        continue;
      std::string V = K == Kind::Histogram ? renderHistogram(S)
                                           : std::to_string(S.Value);
      appendEntry(Out, S.Name, V, First);
    }
    Out += "\n  }";
  };

  Section("counters", Kind::Counter);
  Out += ",\n";
  Section("gauges", Kind::Gauge);
  Out += ",\n";
  Section("histograms", Kind::Histogram);
  Out += ",\n";

  // Everything below this key is exempt from the cross-jobs determinism
  // contract: scheduling-dependent instruments and caller-supplied run
  // context (timings, jobs, pool accounting, build stamps).
  Out += "  \"wall\": {\n";
  bool First = true;
  for (const auto &[K, V] : WallExtra)
    appendEntry(Out, K, V, First);
  if (!First)
    Out += ",\n";
  First = true;
  Out += "    \"counters\": {\n";
  {
    bool F2 = true;
    for (const InstrumentSnapshot &S : Snapshot) {
      if (S.Deterministic || S.K == Kind::Histogram)
        continue;
      if (!F2)
        Out += ",\n";
      F2 = false;
      Out += "      \"";
      appendEscaped(Out, S.Name);
      Out += "\": " + std::to_string(S.Value);
    }
  }
  Out += "\n    },\n    \"histograms\": {\n";
  {
    bool F2 = true;
    for (const InstrumentSnapshot &S : Snapshot) {
      if (S.Deterministic || S.K != Kind::Histogram)
        continue;
      if (!F2)
        Out += ",\n";
      F2 = false;
      Out += "      \"";
      appendEscaped(Out, S.Name);
      Out += "\": " + renderHistogram(S);
    }
  }
  Out += "\n    }\n  }\n}\n";
  return Out;
}
