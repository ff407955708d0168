//===-- core/ZOverapprox.cpp - The overapproximation Z (Alg. 2) -----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/ZOverapprox.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/Generators.h"
#include "exec/ThreadPool.h"
#include "obs/Trace.h"
#include "pds/VisibleSet.h"
#include "support/FlatHash.h"

using namespace cuba;

namespace {

/// Breadth-first exploration of M_n on packed words.  Every state enters
/// \p Queue exactly once, so on success it holds Z in discovery order.
/// Successors are generated in abstractSuccessors' order and charged as
/// computeZ documents, so a budget runs out at exactly the charge the
/// VisibleState BFS would stop at.  The words are canonical under
/// \p Symmetry, and a thread whose top repeats the one of the thread
/// before it in its class is not moved: its successors are permutations
/// of that thread's.  Returns false on exhaustion, or once \p Cancel (if
/// non-null) is set.
bool explorePacked(const Cpds &C, const VisiblePacker &Packer,
                   const ThreadSymmetry &Symmetry, LimitTracker *Limits,
                   const std::atomic<bool> *Cancel,
                   std::vector<uint64_t> &Queue) {
  FlatSet<uint64_t> Seen;
  uint64_t Init = Packer.pack(project(C.initialState()));
  Seen.insert(Init);
  Queue.push_back(Init);

  const unsigned QShift = Packer.sharedShift();
  const uint64_t BelowQ = (uint64_t(1) << QShift) - 1;
  auto Top = [&](uint64_t W, unsigned I) {
    return (W & Packer.topMask(I)) >> Packer.topShift(I);
  };
  std::vector<uint64_t> Succs;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    if (Cancel && Cancel->load(std::memory_order_relaxed))
      return false;
    uint64_t W = Queue[Head];
    QState Q = static_cast<QState>(W >> QShift);
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      unsigned Prev = Symmetry.prev(I);
      if (Prev != ThreadSymmetry::NoThread && Top(W, Prev) == Top(W, I))
        continue;
      const Pds &P = C.thread(I);
      unsigned Shift = Packer.topShift(I);
      uint64_t TopMask = Packer.topMask(I);
      uint64_t Rest = W & BelowQ & ~TopMask; // Q and thread I's top cleared.
      Succs.clear();
      for (uint32_t AI : P.actionsFrom(Q, static_cast<Sym>((W & TopMask) >>
                                                           Shift))) {
        // Line 6 of Alg. 2: (q, w) |-> (q', T(w')); a push's T(w') is the
        // new top r0, the symbol underneath is cut off.
        const Action &A = P.actions()[AI];
        uint64_t To = Rest | uint64_t(A.DstQ) << QShift;
        Succs.push_back(To | uint64_t(A.Dst0) << Shift); // Eps for pops.
        // Lines 7-9: an empty target word exposes any candidate in E.
        if (A.targetLength() == 0)
          for (Sym Rho : P.emergingSymbols())
            Succs.push_back(To | uint64_t(Rho) << Shift);
      }
      // The logical footprint: the result buffer plus the membership
      // table.  The exploration is serial, so charging live is safe.
      if (Limits &&
          (!Limits->chargeStep(Succs.size() + 1) ||
           !Limits->checkMemory(Queue.size() * sizeof(uint64_t) +
                                Seen.memoryBytes())))
        return false;
      for (uint64_t S : Succs) {
        S = Symmetry.canonicalize(S, Packer);
        if (!Seen.insert(S))
          continue;
        if (Limits && !Limits->chargeState())
          return false;
        Queue.push_back(S);
      }
    }
  }
  return true;
}

/// The same exploration over VisibleState values, for systems whose
/// visible states do not fit in one word.
bool exploreWide(const Cpds &C, const ThreadSymmetry &Symmetry,
                 LimitTracker *Limits, const std::atomic<bool> *Cancel,
                 std::vector<VisibleState> &Queue) {
  std::unordered_set<VisibleState, VisibleStateHash> Seen;
  VisibleState Init = project(C.initialState());
  Seen.insert(Init);
  Queue.push_back(std::move(Init));

  std::vector<VisibleState> Succs;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    if (Cancel && Cancel->load(std::memory_order_relaxed))
      return false;
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      if (Symmetry.repeatsPrev(I, Queue[Head].Tops.data()))
        continue;
      Succs.clear();
      // Queue may grow (and move) below; index per iteration.
      C.abstractSuccessors(Queue[Head], I, Succs);
      if (Limits &&
          (!Limits->chargeStep(Succs.size() + 1) ||
           !Limits->checkMemory(Queue.size() * sizeof(VisibleState) +
                                Seen.size() * (sizeof(VisibleState) + 16))))
        return false;
      for (VisibleState &S : Succs) {
        Symmetry.canonicalize(S);
        if (!Seen.insert(S).second)
          continue;
        if (Limits && !Limits->chargeState())
          return false;
        Queue.push_back(std::move(S));
      }
    }
  }
  return true;
}

/// The one exploration behind every entry point: Z (its canonical forms
/// under \p Symmetry), filtered down to \p Keep's members when non-null,
/// sorted, with |Z| in \p ZSize; nullopt on exhaustion or cancellation.
/// Emits no span, so it may run on a worker.
std::optional<std::vector<VisibleState>>
exploreZ(const Cpds &C, LimitTracker *Limits, const GeneratorSet *Keep,
         const ThreadSymmetry &Symmetry, const std::atomic<bool> *Cancel,
         uint64_t &ZSize) {
  assert(C.frozen() && "computeZ requires a frozen CPDS");
  VisiblePacker Packer(C);
  std::vector<VisibleState> Out;
  if (Packer.packable()) {
    std::vector<uint64_t> Words;
    if (!explorePacked(C, Packer, Symmetry, Limits, Cancel, Words))
      return std::nullopt;
    ZSize = Words.size();
    if (Keep) {
      std::vector<Sym> Tops(C.numThreads());
      std::erase_if(Words, [&](uint64_t W) {
        QState Q = Packer.unpack(W, Tops.data());
        return !Keep->contains(Q, Tops.data());
      });
    }
    std::sort(Words.begin(), Words.end()); // Packed order == state order.
    Out.reserve(Words.size());
    for (uint64_t W : Words)
      Out.push_back(Packer.unpack(W));
    return Out;
  }
  if (!exploreWide(C, Symmetry, Limits, Cancel, Out))
    return std::nullopt;
  ZSize = Out.size();
  if (Keep)
    std::erase_if(Out,
                  [&](const VisibleState &V) { return !Keep->contains(V); });
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// The `z-overapprox` span's argument: |Z|, or that the budget ran out.
void argZ(obs::ScopedSpan &Span,
          const std::optional<std::vector<VisibleState>> &Found,
          uint64_t ZSize) {
  if (Found)
    Span.arg("visible", ZSize);
  else
    Span.arg("exhausted", 1);
}

/// exploreZ run serially on the calling (driver) thread, spanned.
std::optional<std::vector<VisibleState>>
exploreZSpanned(const Cpds &C, LimitTracker *Limits, const GeneratorSet *Keep,
                const ThreadSymmetry &Symmetry) {
  obs::ScopedSpan Span("z-overapprox", obs::Trace::CatDet);
  uint64_t ZSize = 0;
  std::optional<std::vector<VisibleState>> Found =
      exploreZ(C, Limits, Keep, Symmetry, nullptr, ZSize);
  argZ(Span, Found, ZSize);
  return Found;
}

} // namespace

std::vector<VisibleState> cuba::computeZ(const Cpds &C,
                                         LimitTracker *Limits) {
  return exploreZSpanned(C, Limits, nullptr, ThreadSymmetry(C))
      .value_or(std::vector<VisibleState>());
}

std::optional<std::vector<VisibleState>>
cuba::computeGeneratorsInZ(const Cpds &C, const GeneratorSet &G,
                           LimitTracker *Limits) {
  return exploreZSpanned(C, Limits, &G, ThreadSymmetry(C));
}

std::optional<std::vector<VisibleState>>
cuba::computeGeneratorsInZ(const Cpds &C, const GeneratorSet &G,
                           LimitTracker *Limits,
                           const ThreadSymmetry &Symmetry) {
  return exploreZSpanned(C, Limits, &G, Symmetry);
}

GeneratorTest::~GeneratorTest() {
  if (!Pool)
    return;
  // Only a run unwinding from another exception gets here (finish()
  // joins on every other exit); that exception already ends the run as
  // exhausted, so the build's result and any throw of its own go unread.
  Cancel.store(true, std::memory_order_relaxed);
  try {
    Pool->joinSide();
  } catch (...) {
  }
}

void GeneratorTest::explore(const std::atomic<bool> *CancelFlag) {
  if (CancelFlag && CancelFlag->load(std::memory_order_relaxed))
    return; // Cancelled before it started (run at the join).
  LimitTracker ZLimits(Limits);
  GeneratorSet G(C);
  Found = exploreZ(C, &ZLimits, &G, Symmetry, CancelFlag, ZSize);
}

void GeneratorTest::start(exec::ThreadPool *P) {
  assert(!Built && !Pool && "G cap Z is built once");
  if (!P || P->jobs() < 2)
    return;
  Pool = P;
  Pool->startSide([this] { explore(&Cancel); });
}

void GeneratorTest::build() {
  // On the driver either way, so the det span keeps its place in the
  // trace; after a background build it times the wait at the join.
  obs::ScopedSpan Span("z-overapprox", obs::Trace::CatDet);
  if (Pool)
    std::exchange(Pool, nullptr)->joinSide(); // Rethrows the build's throw.
  else
    explore(nullptr);
  argZ(Span, Found, ZSize);
  Built = true;
  Complete = Found.has_value();
  if (Complete)
    Pending = std::move(*Found);
}

void GeneratorTest::finish() {
  if (!Pool)
    return;
  Cancel.store(true, std::memory_order_relaxed);
  std::exchange(Pool, nullptr)->joinSide();
}
