//===-- core/CbaEngine.cpp - Explicit context-bounded engine --------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "core/CbaEngine.h"

#include <algorithm>
#include <chrono>

#include "exec/ParallelRound.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

using namespace cuba;

CbaEngine::CbaEngine(const Cpds &C, const ResourceLimits &Limits)
    : C(C), Limits(Limits), Rows(1 + C.numThreads()), VisibleSeen(C) {
  assert(C.frozen() && "CbaEngine requires a frozen CPDS");
  TopsBuf.resize(C.numThreads());
  RowBuf.resize(Rows.width());
  packRow(C.initialState(), Store, RowBuf.data());
  auto [Id, New] = Rows.intern(RowBuf.data(), Rows.hash(RowBuf.data()));
  assert(New && Id == 0 && "fresh table already holds the initial state");
  (void)New;
  appendState(Id, 0, UINT32_MAX, 0, 0);
  recordVisible(RowBuf.data(), 0);
  this->Limits.chargeState();
  this->Limits.checkMemory(stateBytes() + Store.memoryBytes());
  Frontier.push_back(0);
}

void CbaEngine::setParallel(exec::ThreadPool *P, size_t MinLevel) {
  Pool = P && P->jobs() > 1 ? P : nullptr;
  MinDispatchLevel = std::max<size_t>(MinLevel, 1);
  if (Pool)
    Scratch = std::make_unique<exec::WorkerLocal<DeriveScratch>>(*Pool);
  else
    Scratch.reset();
}

CbaEngine::RoundStatus
CbaEngine::closeUnderThread(unsigned I, const std::vector<uint32_t> &Seeds,
                            std::vector<uint32_t> &NewFrontier) {
  // Merged BFS over thread-I steps from all expansion seeds, one level at
  // a time.  The local visited set (epoch stamps on the dense ids, rather
  // than pruning against R alone) is what makes the frontier
  // optimisation exact: a state first added this round by a different
  // thread's closure must still be traversed here if it also lies inside
  // a thread-I closure of a frontier state.
  ++Epoch;
  std::vector<uint32_t> &Level = LevelBuf, &Next = NextLevelBuf;
  Level.clear();
  for (uint32_t Id : Seeds) {
    LocalMark[Id] = Epoch;
    Level.push_back(Id);
  }
  // A seed this thread's closure discovered last round was expanded by
  // it then, so its thread-I successors are all stored and old: only its
  // charge is replayed.  Not under the ablation, which re-expands all.
  bool SkipOwn = !ExpandAll;
  RoundStatus St = RoundStatus::Ok;
  while (St == RoundStatus::Ok && !Level.empty()) {
    Next.clear();
    St = Pool && Level.size() >= MinDispatchLevel
             ? dispatchLevel(I, Level, SkipOwn, NewFrontier, Next)
             : expandLevel(I, Level, SkipOwn, NewFrontier, Next);
    SkipOwn = false;
    std::swap(Level, Next);
  }
  // Worker-packed visible words of dispatched levels are committed in
  // one batch per closure (every appended state is first seen at
  // Bound + 1), on every exit path, so an exhausted commit still records
  // the states it appended.
  if (!VisBatch.empty()) {
    VisibleSeen.insertPackedBatch(VisBatch, Bound + 1);
    VisBatch.clear();
  }
  return St;
}

CbaEngine::RoundStatus
CbaEngine::expandLevel(unsigned I, const std::vector<uint32_t> &Level,
                       bool SkipOwn, std::vector<uint32_t> &NewFrontier,
                       std::vector<uint32_t> &Next) {
  for (uint32_t Id : Level) {
    if (SkipOwn && discoveredBy(Id, I)) {
      if (!Limits.chargeStep(ownSuccessorCount(Id, I, Store) + 1))
        return RoundStatus::Exhausted;
      continue;
    }
    loadRow(Id, RowBuf);
    StepsBuf.clear();
    C.threadSteps(RowBuf[0], RowBuf[1 + I], I, Store,
                  [&](uint32_t AI, QState Q, StackId W) {
                    StepsBuf.push_back({AI, Q, W});
                  });
    if (!Limits.chargeStep(StepsBuf.size() + 1))
      return RoundStatus::Exhausted;
    for (const Step &S : StepsBuf) {
      RowBuf[0] = S.Q;
      RowBuf[1 + I] = S.W;
      auto [SeenId, New] =
          Rows.intern(RowBuf.data(), Rows.hash(RowBuf.data()));
      if (New) {
        // Genuinely new: first reached with Bound+1 contexts.
        appendState(SeenId, Bound + 1, Id, I, S.ActionIdx);
        recordVisible(RowBuf.data(), Bound + 1);
        LocalMark[SeenId] = Epoch;
        NewFrontier.push_back(SeenId);
        Next.push_back(SeenId);
        if (!chargeNewState())
          return RoundStatus::Exhausted;
        continue;
      }
      if (LocalMark[SeenId] == Epoch)
        continue;
      LocalMark[SeenId] = Epoch;
      // Added earlier this round by another thread's closure: continue
      // through it, though it is already stored.  Older states prune:
      // their thread-I closure was fully expanded in the round after
      // their discovery.
      if (Info[SeenId].Round > Bound)
        Next.push_back(SeenId);
    }
  }
  return RoundStatus::Ok;
}

void CbaEngine::deriveChunk(unsigned Worker, ChunkOut &Out, unsigned I,
                            const std::vector<uint32_t> &Level, bool SkipOwn,
                            size_t Begin, size_t End) {
  DeriveScratch &SC = Scratch->get(Worker);
  if (SC.Gen != DeriveGen) {
    SC.Overlay.rebase(Store);
    SC.Gen = DeriveGen;
  }
  Out.Worker = Worker;
  Out.Parents.clear();
  Out.CandEnd.clear();
  Out.Cands.clear();
  const uint32_t BaseSize = SC.Overlay.baseSize();
  const VisiblePacker &Packer = VisibleSeen.packer();
  const bool Packable = Packer.packable();
  const unsigned NThreads = C.numThreads();
  SC.TopsBuf.resize(NThreads);
  for (size_t P = Begin; P < End; ++P) {
    uint32_t ParentId = Level[P];
    if (SkipOwn && discoveredBy(ParentId, I)) {
      // Replayed as a parent whose successors were all dropped.
      Out.Parents.emplace_back(ParentId,
                               ownSuccessorCount(ParentId, I, SC.Overlay));
      Out.CandEnd.push_back(static_cast<uint32_t>(Out.Cands.size()));
      continue;
    }
    loadRow(ParentId, SC.Row);
    SC.Steps.clear();
    C.threadSteps(SC.Row[0], SC.Row[1 + I], I, SC.Overlay,
                  [&](uint32_t AI, QState Q, StackId W) {
                    SC.Steps.push_back({AI, Q, W});
                  });
    Out.Parents.emplace_back(ParentId,
                             static_cast<uint32_t>(SC.Steps.size()));
    if (Packable)
      for (unsigned T = 0; T < NThreads; ++T)
        SC.TopsBuf[T] = SC.Overlay.topOf(SC.Row[1 + T]);
    for (const Step &S : SC.Steps) {
      uint32_t Known = UINT32_MAX;
      uint64_t Hash = 0;
      uint8_t HasHash = 0;
      // Only thread I's stack can be new; a base-id stack makes the row
      // probeable against the frozen table -- and its hash stays valid
      // at the commit (translate() is then the identity), so the commit
      // reuses it.
      if (S.W < BaseSize) {
        SC.Row[0] = S.Q;
        SC.Row[1 + I] = S.W;
        Hash = Rows.hash(SC.Row.data());
        HasHash = 1;
        uint32_t Id = Rows.find(SC.Row.data(), Hash);
        if (Id != StateRows::NoRow) {
          // Marked in an earlier (committed) level: the serial BFS
          // skips it here too.  Old states (discovered in an earlier
          // round) are never re-traversed; their mark is inert, so the
          // candidate can be dropped outright -- its charge is already
          // carried by the parent's successor count.
          if (LocalMark[Id] == Epoch || Info[Id].Round <= Bound)
            continue;
          Known = Id;
        }
      }
      Candidate Cand;
      Cand.KnownId = Known;
      Cand.ActionIdx = S.ActionIdx;
      if (Known == UINT32_MAX) {
        Cand.Q = S.Q;
        Cand.W = S.W;
        Cand.Hash = Hash;
        Cand.HasHash = HasHash;
        if (Packable) {
          // Tops are translation-invariant, so the visible word can be
          // packed against the overlay now and inserted as-is later.
          SC.TopsBuf[I] = SC.Overlay.topOf(S.W);
          Cand.VisWord = Packer.pack(S.Q, SC.TopsBuf.data(), NThreads);
          Cand.HasVis = 1;
        }
      }
      Out.Cands.push_back(Cand);
    }
    Out.CandEnd.push_back(static_cast<uint32_t>(Out.Cands.size()));
  }
}

CbaEngine::RoundStatus
CbaEngine::dispatchLevel(unsigned I, const std::vector<uint32_t> &Level,
                         bool SkipOwn, std::vector<uint32_t> &NewFrontier,
                         std::vector<uint32_t> &Next) {
  ++DeriveGen; // Invalidates every worker's overlay (arena has grown).
  size_t Grain = exec::adaptiveGrain(Level.size(), Pool->jobs());
  size_t NumChunks = exec::chunkCount(Level.size(), Grain);
  if (ChunksBuf.size() < NumChunks)
    ChunksBuf.resize(NumChunks);
  {
    // Per-level derive/commit spans are wall-category: whether a level
    // is dispatched depends on the pool, so they are exempt from the
    // cross-jobs trace contract.
    obs::ScopedSpan Derive("derive-level", obs::Trace::CatWall);
    Derive.arg("level", Level.size());
    Derive.arg("chunks", NumChunks);
    exec::parallelChunks(*Pool, Level.size(), Grain,
                         [&](unsigned Worker, size_t Chunk, size_t Begin,
                             size_t End) {
                           deriveChunk(Worker, ChunksBuf[Chunk], I, Level,
                                       SkipOwn, Begin, End);
                         });
  }
  return commitLevel(I, NewFrontier, Next, NumChunks);
}

CbaEngine::RoundStatus CbaEngine::commitLevel(unsigned I,
                                              std::vector<uint32_t> &NewFrontier,
                                              std::vector<uint32_t> &Next,
                                              size_t NumChunks) {
  obs::ScopedSpan Commit("commit-level", obs::Trace::CatWall);
  // One serial pass in candidate order (chunk index order == level
  // order), replaying expandLevel exactly: the same step charge per
  // parent, the same interning order -- so the same state ids, StackId
  // assignment and budget stop -- and the same first-seen bookkeeping.
  size_t NumCands = 0;
  for (size_t Chunk = 0; Chunk < NumChunks; ++Chunk)
    NumCands += ChunksBuf[Chunk].Cands.size();
  Commit.arg("cands", NumCands);
  for (size_t Chunk = 0; Chunk < NumChunks; ++Chunk) {
    ChunkOut &CO = ChunksBuf[Chunk];
    StackOverlay &OV = Scratch->get(CO.Worker).Overlay;
    size_t CandBegin = 0;
    for (size_t P = 0; P < CO.Parents.size(); ++P) {
      auto [ParentId, SuccCount] = CO.Parents[P];
      size_t CandEnd = CO.CandEnd[P];
      if (!Limits.chargeStep(SuccCount + 1))
        return RoundStatus::Exhausted;
      bool RowLoaded = false;
      for (size_t CI = CandBegin; CI < CandEnd; ++CI) {
        const Candidate &Cand = CO.Cands[CI];
        uint32_t Id = Cand.KnownId;
        if (Id == UINT32_MAX) {
          if (!RowLoaded) {
            loadRow(ParentId, RowBuf);
            RowLoaded = true;
          }
          RowBuf[0] = Cand.Q;
          RowBuf[1 + I] = OV.translate(Cand.W, Store);
          uint64_t H = Cand.HasHash ? Cand.Hash : Rows.hash(RowBuf.data());
          auto [SeenId, New] = Rows.intern(RowBuf.data(), H);
          if (New) {
            appendState(SeenId, Bound + 1, ParentId, I, Cand.ActionIdx);
            if (Cand.HasVis)
              VisBatch.push_back(Cand.VisWord);
            else
              recordVisible(RowBuf.data(), Bound + 1);
            LocalMark[SeenId] = Epoch;
            NewFrontier.push_back(SeenId);
            Next.push_back(SeenId);
            if (!chargeNewState())
              return RoundStatus::Exhausted;
            continue;
          }
          Id = SeenId;
        }
        if (LocalMark[Id] == Epoch)
          continue;
        LocalMark[Id] = Epoch;
        // Known candidates were only kept with Round > Bound; fresh ones
        // re-check, since a fresh stack can still equal an old state's.
        if (Info[Id].Round > Bound)
          Next.push_back(Id);
      }
      CandBegin = CandEnd;
    }
  }
  return RoundStatus::Ok;
}

CbaEngine::RoundStatus CbaEngine::advance() {
  static obs::Counter Rounds("cba.rounds");
  static obs::Histogram RoundMicros("cba.round_micros",
                                    /*Deterministic=*/false);
  static obs::Gauge BytesHwm("cba.bytes.hwm");
  ++Rounds;
  auto T0 = std::chrono::steady_clock::now();
  obs::ScopedSpan Round("round", obs::Trace::CatDet);
  Round.arg("k", Bound);
  // Seeds are snapshotted before the round: states discovered during
  // this round must not become seeds of a later thread's closure, or
  // the round would mix multiple context switches.
  std::vector<uint32_t> Seeds;
  if (ExpandAll) {
    Seeds.resize(Rows.size());
    for (uint32_t Id = 0; Id < Seeds.size(); ++Id)
      Seeds[Id] = Id;
  } else {
    Seeds = Frontier;
  }
  Round.arg("seeds", Seeds.size());

  auto FinishRound = [&](std::vector<uint32_t> &NewFrontier) {
    // Budget consumption curve, all deterministic functions of serially
    // committed state (dispatched levels exhaust at identical points).
    Round.arg("new_states", NewFrontier.size());
    Round.arg("steps", Limits.steps());
    Round.arg("states", Limits.states());
    Round.arg("peak_bytes", Limits.peakBytes());
    BytesHwm.recordMax(stateBytes() + CommittedArenaBytes);
    RoundMicros.observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count()));
  };

  std::vector<uint32_t> NewFrontier;
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    // One span per per-thread closure, det-category: its duration
    // covers any dispatched levels, but its content does not depend on
    // them.
    size_t Before = NewFrontier.size();
    obs::ScopedSpan Closure("closure", obs::Trace::CatDet);
    Closure.arg("thread", I);
    RoundStatus St = closeUnderThread(I, Seeds, NewFrontier);
    Closure.arg("new_states", NewFrontier.size() - Before);
    if (St == RoundStatus::Exhausted) {
      FinishRound(NewFrontier);
      return RoundStatus::Exhausted;
    }
    // Closure boundary: the stack arena and visible set agree between
    // inline and dispatched levels here, so fold them into the byte
    // budget now (mid-closure their contents differ by path).
    if (!checkMemoryAtBoundary()) {
      FinishRound(NewFrontier);
      return RoundStatus::Exhausted;
    }
  }
  FinishRound(NewFrontier);
  ++Bound;
  Frontier = std::move(NewFrontier);
  return RoundStatus::Ok;
}

std::vector<GlobalState> CbaEngine::frontier() const {
  std::vector<GlobalState> Out;
  Out.reserve(Frontier.size());
  for (uint32_t Id : Frontier)
    Out.push_back(unpackRow(Rows.row(Id), C.numThreads(), Store));
  return Out;
}

std::vector<TraceStep>
CbaEngine::traceToVisible(const VisibleState &V) const {
  // Find the earliest-discovered state projecting to V; ids are ordered
  // by discovery, so the first match wins.
  const unsigned NThreads = C.numThreads();
  uint32_t Best = UINT32_MAX;
  for (uint32_t Id = 0; Id < Rows.size(); ++Id) {
    const uint32_t *Row = Rows.row(Id);
    if (Row[0] != V.Q)
      continue;
    bool Match = true;
    for (unsigned I = 0; I < NThreads && Match; ++I)
      Match = Store.topOf(Row[1 + I]) == V.Tops[I];
    if (!Match)
      continue;
    if (Best == UINT32_MAX || Info[Id].Round < Info[Best].Round)
      Best = Id;
  }
  if (Best == UINT32_MAX)
    return {};

  // Walk the first-discovery parent chain back to the initial state.
  std::vector<TraceStep> Trace;
  for (uint32_t Cur = Best;;) {
    TraceStep Step;
    Step.State = unpackRow(Rows.row(Cur), NThreads, Store);
    const StateInfo &I = Info[Cur];
    if (I.Parent == UINT32_MAX) {
      Trace.push_back(std::move(Step)); // The initial state, no label.
      break;
    }
    Step.Thread = I.Thread;
    const std::string &Label = C.thread(I.Thread).label(I.ActionIdx);
    Step.Label = Label.empty() ? "step" : Label;
    Trace.push_back(std::move(Step));
    Cur = I.Parent;
  }
  std::reverse(Trace.begin(), Trace.end());
  return Trace;
}
