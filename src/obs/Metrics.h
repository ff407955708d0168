//===-- obs/Metrics.h - Typed metrics registry ------------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named instruments, in the spirit of
/// LLVM's Statistic --
///
///   * Counter: a monotonically increasing sum ("symbolic.transactions"),
///   * Gauge: a high-water mark, folded by max ("symbolic.sat_bytes.hwm"),
///   * Histogram: 32 power-of-two buckets of a value distribution
///     ("symbolic.pops_per_saturation": bucket b counts observations v
///     with bucketOf(v) == b, where bucket 0 is v == 0 and bucket b >= 1
///     holds 2^(b-1) <= v < 2^b, saturating at the last bucket).
///
/// Storage: the registry owns one fixed array of relaxed atomic slots;
/// counters and histogram buckets add, gauges fold in by a
/// compare-and-swap max.  Instruments are bumped on the driver thread
/// (pool tasks bump none), so the slots are uncontended, and a bump
/// from any thread is still race-free.  Nothing here synchronizes
/// engine work, so `--jobs` bit-identity is untouched and TSan stays
/// clean.
///
/// Determinism classes: every instrument declares whether its value is
/// a pure function of serially committed engine state
/// (`Deterministic`, identical at any `--jobs` once the run's batches
/// have joined) or may vary with scheduling (wall-clock timings, pool
/// accounting).  `--stats-json` splits its output along this
/// flag, and the trace-determinism suite diffs only the deterministic
/// part across job counts.
///
/// snapshot() returns instruments sorted by name -- never registration
/// order, which varies with code path and build -- so machine-readable
/// dumps are stable across builds.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_OBS_METRICS_H
#define CUBA_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace cuba::obs {

enum class Kind : uint8_t { Counter, Gauge, Histogram };

/// A handle on one named counter: resolves the name to its registry slot
/// at construction (keep it in a function-local static on hot paths).
class Counter {
public:
  explicit Counter(const char *Name, bool Deterministic = true);

  void add(uint64_t N) { Slot->fetch_add(N, std::memory_order_relaxed); }
  Counter &operator++() {
    add(1);
    return *this;
  }
  void operator++(int) { add(1); }
  Counter &operator+=(uint64_t N) {
    add(N);
    return *this;
  }

private:
  std::atomic<uint64_t> *Slot;
};

/// A high-water-mark gauge: recordMax folds the observed value into the
/// slot by max.
class Gauge {
public:
  explicit Gauge(const char *Name, bool Deterministic = true);

  void recordMax(uint64_t V) {
    // A failed exchange reloads Cur, so the loop ends once the slot
    // holds V or more.
    uint64_t Cur = Slot->load(std::memory_order_relaxed);
    while (V > Cur &&
           !Slot->compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

private:
  std::atomic<uint64_t> *Slot;
};

/// A fixed 32-bucket power-of-two histogram.
class Histogram {
public:
  static constexpr uint32_t NumBuckets = 32;

  explicit Histogram(const char *Name, bool Deterministic = true);

  void observe(uint64_t V) {
    Slots[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Bucket index of \p V: 0 for v == 0, otherwise bit_width(v) capped
  /// at the last bucket (so bucket b >= 1 holds 2^(b-1) <= v < 2^b).
  static uint32_t bucketOf(uint64_t V) {
    if (V == 0)
      return 0;
    unsigned W = static_cast<unsigned>(std::bit_width(V));
    return W < NumBuckets ? W : NumBuckets - 1;
  }

  /// Inclusive lower bound of bucket \p B (for rendering).
  static uint64_t bucketLow(uint32_t B) {
    return B == 0 ? 0 : uint64_t(1) << (B - 1);
  }

private:
  std::atomic<uint64_t> *Slots; // NumBuckets consecutive slots.
};

/// One instrument in a registry snapshot.
struct InstrumentSnapshot {
  std::string Name;
  Kind K = Kind::Counter;
  bool Deterministic = true;
  /// Counter sum / gauge max; for histograms, the total observation
  /// count (the bucket sum).
  uint64_t Value = 0;
  /// Histograms only: per-bucket counts (NumBuckets entries).
  std::vector<uint64_t> Buckets;
};

/// Process-wide instrument registry.
class Metrics {
public:
  /// Hard cap on the slot space (a counter or gauge takes one slot, a
  /// histogram takes NumBuckets), so the slots are one fixed-size atomic
  /// array with no reallocation racing snapshot() or a bump.
  /// Instruments registered past the cap alias one overflow region of
  /// NumBuckets slots behind it (a histogram keeps every bucket there),
  /// so their values merge but every write stays in bounds.
  static constexpr uint32_t MaxSlots = 512;

  /// All instruments, sorted by name.
  static std::vector<InstrumentSnapshot> snapshot();

  /// Value of the instrument named \p Name (0 when never registered);
  /// for tests and diagnostics.
  static uint64_t value(const std::string &Name);

  /// Resets every instrument to zero (between benchmark or fuzz
  /// iterations).  Call only while no worker is concurrently writing.
  static void resetAll();

private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  /// Registers (or finds) \p Name with the given kind and slot width;
  /// returns its first slot.
  static std::atomic<uint64_t> *registerInstrument(const char *Name, Kind K,
                                                   bool Deterministic,
                                                   uint32_t Width);
};

/// Renders a machine-readable stats summary (the `--stats-json` payload):
/// deterministic instruments under sorted "counters" / "gauges" /
/// "histograms" keys, then a "wall" object holding the nondeterministic
/// instruments plus \p WallExtra -- caller-supplied (key, raw-JSON-value)
/// pairs for run context (timings, jobs, pool stats, build info).  The
/// determinism contract: everything outside "wall" is byte-identical at
/// any `--jobs` for the same input and seed.
std::string renderStatsJson(
    const std::vector<InstrumentSnapshot> &Snapshot,
    const std::vector<std::pair<std::string, std::string>> &WallExtra);

} // namespace cuba::obs

#endif // CUBA_OBS_METRICS_H
