//===-- core/ZOverapprox.cpp - The overapproximation Z (Alg. 2) -----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/ZOverapprox.h"

#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>

#include "core/Generators.h"
#include "exec/ThreadPool.h"
#include "obs/Trace.h"
#include "pds/VisibleSet.h"
#include "support/FlatHash.h"

using namespace cuba;

namespace {

/// One thread's moves in M_n, precomputed once per exploration and laid
/// out along the thread's own (q, top) source index (Pds::sourceActions):
/// Deltas[p] is the action at source position p with q' and its new top
/// already shifted into place, so the successor of word W is W with the
/// Q field and the thread's top cleared, or-ed with Deltas[p].  Line 6
/// of Alg. 2 cuts a push's target to its new top r0.  A pop's delta has
/// an empty top field; lines 7-9 let it also expose every emerging
/// symbol, whose shifted fields are Exposed.  (Freeze rejects a target
/// word (eps, s), so only pops leave the field empty.)
struct ThreadMoves {
  std::span<const uint32_t> Starts; ///< The Pds's source-index buckets.
  uint64_t Stride = 0;              ///< numSymbols() + 1.
  unsigned Shift = 0;
  uint64_t TopMask = 0;
  std::vector<uint64_t> Deltas;
  std::vector<uint64_t> Exposed;
};

std::vector<ThreadMoves> threadMoves(const Cpds &C,
                                     const VisiblePacker &Packer) {
  std::vector<ThreadMoves> Moves(C.numThreads());
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    const Pds &P = C.thread(I);
    ThreadMoves &M = Moves[I];
    M.Starts = P.sourceStarts();
    M.Stride = uint64_t(P.numSymbols()) + 1;
    M.Shift = Packer.topShift(I);
    M.TopMask = Packer.topMask(I);
    M.Deltas.reserve(P.sourceActions().size());
    for (uint32_t AI : P.sourceActions()) {
      const Action &A = P.actions()[AI];
      M.Deltas.push_back(uint64_t(A.DstQ) << Packer.sharedShift() |
                         uint64_t(A.Dst0) << M.Shift);
    }
    for (Sym Rho : P.emergingSymbols())
      M.Exposed.push_back(uint64_t(Rho) << M.Shift);
  }
  return Moves;
}

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
  const std::vector<ThreadMoves> Moves = threadMoves(C, Packer);
  const bool Reduced = !Symmetry.classes().empty();
  FlatSet<uint64_t> Seen;
  uint64_t Init = Packer.pack(project(C.initialState()));
  Seen.insert(Init);
  Queue.push_back(Init);

  const unsigned QShift = Packer.sharedShift();
  const uint64_t BelowQ = (uint64_t(1) << QShift) - 1;
  // Records successor S; false when its state charge runs out.
  auto Visit = [&](uint64_t S) {
    if (Reduced)
      S = Symmetry.canonicalize(S, Packer);
    if (!Seen.insert(S))
      return true;
    if (Limits && !Limits->chargeState())
      return false;
    Queue.push_back(S);
    return true;
  };
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    if (Cancel && Cancel->load(std::memory_order_relaxed))
      return false;
    uint64_t W = Queue[Head];
    uint64_t QBase = W >> QShift;
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      const ThreadMoves &M = Moves[I];
      uint64_t Top = (W & M.TopMask) >> M.Shift;
      unsigned Prev = Symmetry.prev(I);
      if (Prev != ThreadSymmetry::NoThread &&
          (W & Moves[Prev].TopMask) >> Moves[Prev].Shift == Top)
        continue;
      uint64_t Key = QBase * M.Stride + Top;
      const uint64_t *Begin = M.Deltas.data() + M.Starts[Key];
      const uint64_t *End = M.Deltas.data() + M.Starts[Key + 1];
      if (Limits) {
        size_t Succs = End - Begin;
        for (const uint64_t *D = Begin; D != End; ++D)
          if (!(*D & M.TopMask))
            Succs += M.Exposed.size();
        // The logical footprint: the result buffer plus the membership
        // table.  The exploration is serial, so charging live is safe.
        if (!Limits->chargeStep(Succs + 1) ||
            !Limits->checkMemory(Queue.size() * sizeof(uint64_t) +
                                 Seen.memoryBytes()))
          return false;
      }
      uint64_t Rest = W & BelowQ & ~M.TopMask; // Q and thread I's top cleared.
      for (const uint64_t *D = Begin; D != End; ++D) {
        uint64_t To = Rest | *D;
        if (!Visit(To))
          return false;
        if (!(*D & M.TopMask))
          for (uint64_t X : M.Exposed)
            if (!Visit(To | X))
              return false;
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

/// Z's packed words (canonical under \p Symmetry) in discovery order,
/// filtered down to \p Keep's members when non-null and tested on the
/// words themselves, with |Z| in \p ZSize.  False on exhaustion or
/// cancellation.  Emits no span, so it may run on a worker.
bool exploreWords(const Cpds &C, const VisiblePacker &Packer,
                  LimitTracker *Limits, const GeneratorSet *Keep,
                  const ThreadSymmetry &Symmetry,
                  const std::atomic<bool> *Cancel,
                  std::vector<uint64_t> &Words, uint64_t &ZSize) {
  if (!explorePacked(C, Packer, Symmetry, Limits, Cancel, Words))
    return false;
  ZSize = Words.size();
  if (Keep)
    std::erase_if(Words,
                  [&](uint64_t W) { return !Keep->containsWord(W, Packer); });
  return true;
}

/// The one exploration behind the sorted entry points: Z (its canonical
/// forms under \p Symmetry), filtered down to \p Keep's members when
/// non-null, sorted, with |Z| in \p ZSize; nullopt on exhaustion or
/// cancellation.  Emits no span, so it may run on a worker.
std::optional<std::vector<VisibleState>>
exploreZ(const Cpds &C, LimitTracker *Limits, const GeneratorSet *Keep,
         const ThreadSymmetry &Symmetry, const std::atomic<bool> *Cancel,
         uint64_t &ZSize) {
  assert(C.frozen() && "computeZ requires a frozen CPDS");
  VisiblePacker Packer(C);
  std::vector<VisibleState> Out;
  if (Packer.packable()) {
    std::vector<uint64_t> Words;
    if (!exploreWords(C, Packer, Limits, Keep, Symmetry, Cancel, Words,
                      ZSize))
      return std::nullopt;
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
void argZ(obs::ScopedSpan &Span, bool Complete, uint64_t ZSize) {
  if (Complete)
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
  argZ(Span, Found.has_value(), ZSize);
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
  VisiblePacker Packer(C);
  if (Packer.packable()) {
    Explored = exploreWords(C, Packer, &ZLimits, &G, Symmetry, CancelFlag,
                            PendingWords, ZSize);
    if (!Explored)
      PendingWords.clear();
    // The run keeps G cap Z, not the buffer Z was explored in.
    PendingWords.shrink_to_fit();
    return;
  }
  std::optional<std::vector<VisibleState>> Found =
      exploreZ(C, &ZLimits, &G, Symmetry, CancelFlag, ZSize);
  Explored = Found.has_value();
  if (Explored)
    Pending = std::move(*Found);
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
  argZ(Span, Explored, ZSize);
  Built = true;
}

void GeneratorTest::finish() {
  if (!Pool)
    return;
  Cancel.store(true, std::memory_order_relaxed);
  std::exchange(Pool, nullptr)->joinSide();
}
