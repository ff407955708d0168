//===-- support/Limits.h - Resource limits for the engines ------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CUBA procedures are sound but may not terminate (Sec. 4), and a
/// single context of a non-FCR system can already reach infinitely many
/// states.  Every engine therefore runs under a ResourceLimits budget and
/// reports resource exhaustion as a distinct outcome instead of diverging
/// (this also models the paper's 30-minute timeout / 4 GB memory limit).
///
/// Memory is budgeted in *logical* bytes: each engine sums the sizes of
/// its owned containers from their element counts, so the figure is a
/// deterministic function of the work done — identical at any `--jobs` —
/// rather than an allocator- or schedule-dependent RSS reading.  Checks
/// happen only at serially ordered commit points (state insertion,
/// saturation registration, round boundaries), never inside the explicit
/// engine's parallel derive phase, which is what keeps exhaustion
/// bit-reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_SUPPORT_LIMITS_H
#define CUBA_SUPPORT_LIMITS_H

#include "support/FaultInject.h"
#include "support/Timer.h"

#include <cstdint>

namespace cuba {

/// Budget for one verification run.  Zero means "unlimited" for each field.
struct ResourceLimits {
  /// Maximum number of distinct global (or symbolic) states stored.
  uint64_t MaxStates = 2'000'000;
  /// Maximum number of engine steps (action firings / saturation updates).
  uint64_t MaxSteps = 50'000'000;
  /// Maximum context bound explored before giving up.
  unsigned MaxContexts = 64;
  /// Wall-clock budget in milliseconds.
  uint64_t MaxMillis = 120'000;
  /// Maximum logical bytes of engine-owned memory (arenas, dedup indices,
  /// state stores, retained saturations).  Exceeding it is EXHAUSTED
  /// (memory), same truncation semantics as the other axes.
  uint64_t MaxBytes = 0;
  /// Retention budget for reusable caches (the symbolic engine's
  /// SharedSats/SatCache).  Unlike MaxBytes this does not end the run:
  /// crossing it triggers generation-based eviction at the next serial
  /// round boundary.  Zero disables eviction.
  uint64_t MaxCacheBytes = 512ull << 20;

  /// An effectively unlimited budget, for tests on tiny systems.
  static ResourceLimits unlimited() {
    return ResourceLimits{0, 0, 0, 0, 0, 0};
  }
};

/// Which budget axis ended a run.  Ordered by reporting priority when
/// several are exceeded at once.
enum class ExhaustKind : uint8_t {
  None,
  Injected, ///< A fault-injection point fired (testing only).
  Memory,
  States,
  Steps,
  Time,
};

inline const char *exhaustKindName(ExhaustKind K) {
  switch (K) {
  case ExhaustKind::None:
    return "none";
  case ExhaustKind::Injected:
    return "injected-fault";
  case ExhaustKind::Memory:
    return "memory";
  case ExhaustKind::States:
    return "states";
  case ExhaustKind::Steps:
    return "steps";
  case ExhaustKind::Time:
    return "time";
  }
  return "?";
}

/// Tracks consumption against a ResourceLimits budget.  Engines call
/// chargeState / chargeStep on every unit of work, report their logical
/// footprint through checkMemory at commit points, and bail out when
/// exhausted() becomes true.
class LimitTracker {
public:
  explicit LimitTracker(const ResourceLimits &Limits) : Limits(Limits) {}

  /// Accounts for one newly stored state; returns false when that state
  /// exceeds the budget.
  bool chargeState() {
    ++States;
    return !stateBudgetExceeded() && !stopped();
  }

  /// Accounts for \p N engine steps; returns false on budget exhaustion.
  /// The (cheap) time probe runs whenever the step counter crosses into a
  /// new 4096-step window — crossing, not equality, so batch charges that
  /// stride over the boundary still probe (a `(Steps & 0xfff) == 0` test
  /// can be skipped forever by N > 1 charges, delaying MaxMillis
  /// indefinitely on batch-charging paths).
  bool chargeStep(uint64_t N = 1) {
    if (fault::fire(fault::Point::Step))
      Injected = true;
    uint64_t Before = Steps;
    Steps += N;
    if (Limits.MaxSteps && Steps > Limits.MaxSteps)
      return false;
    if (Limits.MaxMillis && (Steps >> 12) != (Before >> 12) &&
        Timer.millis() > static_cast<double>(Limits.MaxMillis))
      TimedOut = true;
    return !stopped();
  }

  /// Semantically equivalent to \p N successive chargeStep() calls:
  /// the step counter, and the exact value it stops at when the step
  /// budget is crossed mid-sequence, match the unit-charge sequence
  /// bit for bit, without paying N function calls (the FCR check charges
  /// one unit per action this way).  Wall-clock probing is coarser
  /// (one probe per call instead of one per 4096 steps), which can only
  /// matter under a nonzero MaxMillis -- where exhaustion is
  /// timing-dependent and thus non-reproducible anyway.
  bool chargeStepsUnit(uint64_t N) {
    if (fault::fire(fault::Point::Step))
      Injected = true;
    if (Limits.MaxSteps && Steps + N > Limits.MaxSteps) {
      // A unit-charge sequence fails at the first step past the budget.
      Steps = Limits.MaxSteps + 1;
      return false;
    }
    Steps += N;
    if (stopped())
      return false;
    if (Limits.MaxMillis &&
        Timer.millis() > static_cast<double>(Limits.MaxMillis))
      TimedOut = true;
    return !TimedOut;
  }

  /// Records the caller's current logical byte footprint and returns
  /// false once it exceeds MaxBytes.  The flag is sticky: a shrinking
  /// footprint does not un-exhaust a run.  Callers invoke this only at
  /// serially ordered points with deterministic element counts, so the
  /// observed sequence is identical at any `--jobs`.
  bool checkMemory(uint64_t CurrentBytes) {
    if (CurrentBytes > PeakBytes)
      PeakBytes = CurrentBytes;
    if (Limits.MaxBytes && CurrentBytes > Limits.MaxBytes)
      MemExceeded = true;
    return !stopped();
  }

  bool exhausted() const {
    return TimedOut || MemExceeded || Injected || stateBudgetExceeded() ||
           (Limits.MaxSteps && Steps > Limits.MaxSteps);
  }

  /// Which axis ran out, ExhaustKind::None when none has.
  ExhaustKind reason() const {
    if (Injected)
      return ExhaustKind::Injected;
    if (MemExceeded)
      return ExhaustKind::Memory;
    if (stateBudgetExceeded())
      return ExhaustKind::States;
    if (Limits.MaxSteps && Steps > Limits.MaxSteps)
      return ExhaustKind::Steps;
    if (TimedOut)
      return ExhaustKind::Time;
    return ExhaustKind::None;
  }

  uint64_t states() const { return States; }
  uint64_t steps() const { return Steps; }
  uint64_t peakBytes() const { return PeakBytes; }
  const ResourceLimits &limits() const { return Limits; }

private:
  bool stateBudgetExceeded() const {
    return Limits.MaxStates && States > Limits.MaxStates;
  }

  /// The sticky stop conditions every charge checks: once time, memory,
  /// or an injected fault ends the run, all further charges fail.
  bool stopped() const { return TimedOut || MemExceeded || Injected; }

  ResourceLimits Limits;
  uint64_t States = 0;
  uint64_t Steps = 0;
  uint64_t PeakBytes = 0;
  bool TimedOut = false;
  bool MemExceeded = false;
  bool Injected = false;
  WallTimer Timer;
};

} // namespace cuba

#endif // CUBA_SUPPORT_LIMITS_H
