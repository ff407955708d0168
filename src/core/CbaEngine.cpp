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
#include "obs/Trace.h"
#include "support/Statistic.h"
#include "support/Unreachable.h"

using namespace cuba;

CbaEngine::CbaEngine(const Cpds &C, const ResourceLimits &Limits)
    : C(C), Limits(Limits), VisibleSeen(C) {
  assert(C.frozen() && "CbaEngine requires a frozen CPDS");
  TopsBuf.resize(C.numThreads());
  PerStateBytes = sizeof(PackedGlobalState) + sizeof(StateInfo) +
                  sizeof(uint32_t) /* LocalMark */;
  NumShards = core::commitShardCount();
  Index.resize(NumShards);
  ShardCommitted.assign(NumShards, 0);
  RoundStartCommitted = ShardCommitted;
  PackedGlobalState Init = packState(C.initialState(), Store);
  if (Init.Stacks.size() > Init.Stacks.inlineCapacity())
    PerStateBytes += Init.Stacks.size() * sizeof(StackId);
  uint64_t H = PackedGlobalStateHash{}(Init);
  auto [Slot, New] = shardFor(H).tryEmplaceHashed(Init, H, 0);
  (void)Slot;
  assert(New && "fresh index already holds the initial state");
  (void)New;
  noteCommitted(core::shardOf(H, NumShards));
  appendState(std::move(Init), 0, UINT32_MAX, 0, 0);
  this->Limits.chargeState();
  this->Limits.checkMemory(stateBytes() + Store.memoryBytes());
  Frontier.push_back(0);
}

uint32_t CbaEngine::appendState(PackedGlobalState &&S, unsigned Round,
                                uint32_t Parent, unsigned Thread,
                                uint32_t ActionIdx) {
  uint32_t Id = static_cast<uint32_t>(States.size());
  for (unsigned I = 0; I < TopsBuf.size(); ++I)
    TopsBuf[I] = Store.topOf(S.Stacks[I]);
  VisibleSeen.insertTops(S.Q, TopsBuf.data(), Round);
  States.push_back(std::move(S));
  Info.push_back({Round, Parent, Thread, ActionIdx});
  LocalMark.push_back(0);
  return Id;
}

uint32_t CbaEngine::appendStateBatched(PackedGlobalState &&S, unsigned Round,
                                       uint32_t Parent, unsigned Thread,
                                       uint32_t ActionIdx, uint64_t VisWord) {
  uint32_t Id = static_cast<uint32_t>(States.size());
  VisBatch.push_back(VisWord);
  States.push_back(std::move(S));
  Info.push_back({Round, Parent, Thread, ActionIdx});
  LocalMark.push_back(0);
  return Id;
}

void CbaEngine::setParallel(exec::ThreadPool *P) {
  Pool = P && P->jobs() > 1 ? P : nullptr;
  if (Pool)
    Scratch = std::make_unique<exec::WorkerLocal<DeriveScratch>>(*Pool);
  else
    Scratch.reset();
}

CbaEngine::RoundStatus
CbaEngine::closeUnderThread(unsigned I, const std::vector<uint32_t> &Seeds,
                            std::vector<uint32_t> &NewFrontier) {
  // Merged BFS over thread-I steps from all expansion seeds.  The local
  // visited set (epoch stamps on the dense ids, rather than pruning
  // against R alone) is what makes the frontier optimisation exact: a
  // state first added this round by a different thread's closure must
  // still be traversed here if it also lies inside a thread-I closure of
  // a frontier state.
  ++Epoch;
  QueueBuf.clear();
  for (uint32_t Id : Seeds) {
    LocalMark[Id] = Epoch;
    QueueBuf.push_back(Id);
  }

  for (size_t Head = 0; Head < QueueBuf.size(); ++Head) {
    uint32_t Id = QueueBuf[Head];
    // By value: the arena may grow (and move) while successors are added.
    PackedGlobalState S = States[Id];
    SuccsBuf.clear();
    C.threadSuccessorsInterned(S, I, Store, SuccsBuf);
    if (!Limits.chargeStep(SuccsBuf.size() + 1))
      return RoundStatus::Exhausted;
    for (auto &[V, ActionIdx] : SuccsBuf) {
      uint64_t H = PackedGlobalStateHash{}(V);
      unsigned Shard = core::shardOf(H, NumShards);
      auto [Slot, New] =
          Index[Shard].tryEmplaceHashed(V, H,
                                        static_cast<uint32_t>(States.size()));
      if (New) {
        noteCommitted(Shard);
        // Genuinely new: first reached with Bound+1 contexts.
        uint32_t NewId =
            appendState(std::move(V), Bound + 1, Id, I, ActionIdx);
        LocalMark[NewId] = Epoch;
        NewFrontier.push_back(NewId);
        QueueBuf.push_back(NewId);
        if (!chargeNewState())
          return RoundStatus::Exhausted;
        continue;
      }
      uint32_t SeenId = *Slot;
      if (LocalMark[SeenId] == Epoch)
        continue;
      LocalMark[SeenId] = Epoch;
      // Added earlier this round by another thread's closure: continue
      // through it, though it is already stored.  Older states prune:
      // their thread-I closure was fully expanded in the round after
      // their discovery.
      if (Info[SeenId].Round > Bound)
        QueueBuf.push_back(SeenId);
    }
  }
  return RoundStatus::Ok;
}

void CbaEngine::deriveChunk(unsigned Worker, ChunkOut &Out, unsigned I,
                            const std::vector<uint32_t> &Level, size_t Begin,
                            size_t End) {
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
    // By value: cheap (ids), and independent of arena relocation.
    PackedGlobalState S = States[ParentId];
    SC.SuccsBuf.clear();
    C.threadSuccessorsVia(S, I, SC.Overlay, SC.SuccsBuf);
    Out.Parents.emplace_back(ParentId,
                             static_cast<uint32_t>(SC.SuccsBuf.size()));
    for (auto &[V, ActionIdx] : SC.SuccsBuf) {
      uint32_t Known = UINT32_MAX;
      uint64_t Hash = 0;
      uint8_t HasHash = 0;
      // Only thread I's stack can be new; a base-id stack makes the
      // whole state probeable against the frozen index -- and its hash
      // stays valid at the commit (translate() is then the identity),
      // so the commit probe reuses it.
      if (V.Stacks[I] < BaseSize) {
        Hash = PackedGlobalStateHash{}(V);
        HasHash = 1;
        if (const uint32_t *Found = shardFor(Hash).findHashed(V, Hash)) {
          uint32_t Id = *Found;
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
      Cand.ActionIdx = ActionIdx;
      if (Known == UINT32_MAX) {
        Cand.Hash = Hash;
        Cand.HasHash = HasHash;
        if (Packable) {
          // Tops are translation-invariant, so the visible word can be
          // packed against the overlay now and inserted as-is later.
          for (unsigned T = 0; T < NThreads; ++T)
            SC.TopsBuf[T] = SC.Overlay.topOf(V.Stacks[T]);
          Cand.VisWord = Packer.pack(V.Q, SC.TopsBuf.data(), NThreads);
          Cand.HasVis = 1;
        }
        Cand.S = std::move(V);
      }
      Out.Cands.push_back(std::move(Cand));
    }
    Out.CandEnd.push_back(static_cast<uint32_t>(Out.Cands.size()));
  }
}

CbaEngine::RoundStatus
CbaEngine::closeUnderThreadParallel(unsigned I,
                                    const std::vector<uint32_t> &Seeds,
                                    std::vector<uint32_t> &NewFrontier) {
  // The serial merged BFS processed level by level: derive each level's
  // successors in parallel from frozen state, then replay the commit --
  // charges, dedup, id assignment, next-level appends -- in the exact
  // serial order (chunk index order == level order).
  ++Epoch;
  std::vector<uint32_t> &Level = LevelBuf, &Next = NextLevelBuf;
  Level.clear();
  Next.clear();
  for (uint32_t Id : Seeds) {
    LocalMark[Id] = Epoch;
    Level.push_back(Id);
  }

  // Worker-packed visible words are committed in one batch per closure
  // (every appended state is first seen at Bound + 1); the flush runs on
  // every exit path so an exhausted commit still records the states it
  // appended.
  VisBatch.clear();
  auto FlushVisible = [&] {
    if (!VisBatch.empty()) {
      VisibleSeen.insertPackedBatch(VisBatch, Bound + 1);
      VisBatch.clear();
    }
  };

  while (!Level.empty()) {
    ++DeriveGen; // Invalidates every worker's overlay (arena has grown).
    size_t Grain = exec::adaptiveGrain(Level.size(), Pool->jobs());
    size_t NumChunks = exec::chunkCount(Level.size(), Grain);
    if (ChunksBuf.size() < NumChunks)
      ChunksBuf.resize(NumChunks);
    {
      // Per-level derive/commit spans are wall-category: levels only
      // exist on the parallel path, so they are exempt from the
      // cross-jobs trace contract (chunking varies with the pool size).
      obs::ScopedSpan Derive("derive-level", obs::Trace::CatWall);
      Derive.arg("level", Level.size());
      Derive.arg("chunks", NumChunks);
      exec::parallelChunks(*Pool, Level.size(), Grain,
                           [&](unsigned Worker, size_t Chunk, size_t Begin,
                               size_t End) {
                             deriveChunk(Worker, ChunksBuf[Chunk], I, Level,
                                         Begin, End);
                           });
    }
    if (commitLevel(I, NewFrontier, Next, NumChunks) ==
        RoundStatus::Exhausted) {
      FlushVisible();
      return RoundStatus::Exhausted;
    }
    std::swap(Level, Next);
  }
  FlushVisible();
  return RoundStatus::Ok;
}

/// Fresh-candidate count below which the shard passes run inline: at
/// this size the fork-join handoff costs more than the probes it would
/// spread.  A constant, not jobs-derived -- both code paths compute the
/// same resolution, so the gate only affects scheduling.
static constexpr size_t MinParallelFresh = 64;

void CbaEngine::resolveShardCandidates(size_t FreshCount) {
  auto Resolve = [&](unsigned S) {
    StateIndexMap &M = Index[S];
    for (uint32_t Seq : ShardSeqs[S]) {
      Candidate &Cand = *SeqCands[Seq];
      auto [Slot, New] =
          M.tryEmplaceHashed(Cand.S, Cand.Hash, TentativeTag | Seq);
      if (New) {
        ResKind[Seq] = ResNewFirst;
      } else if (*Slot & TentativeTag) {
        // A lower seq in this shard already claimed the state this
        // level; per-shard lists are in seq order, so first-wins here
        // is exactly the serial dedup outcome.
        ResKind[Seq] = ResDup;
        ResVal[Seq] = *Slot & ~TentativeTag;
      } else {
        ResKind[Seq] = ResExisting;
        ResVal[Seq] = *Slot;
      }
    }
  };
  if (FreshCount >= MinParallelFresh && NumShards > 1)
    exec::parallelFor(*Pool, NumShards, 1,
                      [&](unsigned, size_t S) {
                        Resolve(static_cast<unsigned>(S));
                      });
  else
    for (unsigned S = 0; S < NumShards; ++S)
      Resolve(S);
}

void CbaEngine::fixupShardCandidates(size_t FreshCount) {
  auto Fixup = [&](unsigned S) {
    StateIndexMap &M = Index[S];
    for (uint32_t Seq : ShardSeqs[S]) {
      if (ResKind[Seq] != ResNewFirst)
        continue;
      uint32_t Id = FinalIds[Seq];
      if (Id != UINT32_MAX) {
        // Accepted: the key now lives in the state arena (the commit
        // moved it), so re-probe with it.
        uint32_t *Val = M.findHashed(States[Id], SeqCands[Seq]->Hash);
        assert(Val && "accepted entry vanished from its shard");
        *Val = Id;
      } else {
        // Past the budget stop: the tentative insert must leave no
        // trace, or a later run of this engine would dedup against a
        // state that was never committed.
        bool Erased = M.erase(SeqCands[Seq]->S);
        assert(Erased && "rejected entry vanished from its shard");
        (void)Erased;
      }
    }
  };
  if (FreshCount >= MinParallelFresh && NumShards > 1)
    exec::parallelFor(*Pool, NumShards, 1,
                      [&](unsigned, size_t S) {
                        Fixup(static_cast<unsigned>(S));
                      });
  else
    for (unsigned S = 0; S < NumShards; ++S)
      Fixup(S);
}

CbaEngine::RoundStatus CbaEngine::commitLevel(unsigned I,
                                              std::vector<uint32_t> &NewFrontier,
                                              std::vector<uint32_t> &Next,
                                              size_t NumChunks) {
  obs::ScopedSpan Commit("commit-level", obs::Trace::CatWall);

  // Phase A (serial): flatten the chunks' candidates into one stream in
  // serial order, translating each fresh candidate's thread stack out
  // of its worker overlay -- StackId interning order is candidate order,
  // i.e. exactly the serial schedule -- and hashing the candidates
  // whose stacks were not all base ids (worker hashes only hold when
  // translate() is the identity).
  SeqCands.clear();
  ResKind.clear();
  if (ShardSeqs.size() != NumShards)
    ShardSeqs.resize(NumShards);
  for (std::vector<uint32_t> &SS : ShardSeqs)
    SS.clear();
  size_t FreshCount = 0;
  for (size_t Chunk = 0; Chunk < NumChunks; ++Chunk) {
    ChunkOut &CO = ChunksBuf[Chunk];
    StackOverlay &OV = Scratch->get(CO.Worker).Overlay;
    for (Candidate &Cand : CO.Cands) {
      uint32_t Seq = static_cast<uint32_t>(SeqCands.size());
      SeqCands.push_back(&Cand);
      if (Cand.KnownId != UINT32_MAX) {
        ResKind.push_back(ResKnown);
        continue;
      }
      Cand.S.Stacks[I] = OV.translate(Cand.S.Stacks[I], Store);
      if (!Cand.HasHash) {
        Cand.Hash = PackedGlobalStateHash{}(Cand.S);
        Cand.HasHash = 1;
      }
      ResKind.push_back(ResFresh);
      ShardSeqs[core::shardOf(Cand.Hash, NumShards)].push_back(Seq);
      ++FreshCount;
    }
  }
  Commit.arg("cands", SeqCands.size());
  Commit.arg("fresh", FreshCount);
  ResVal.assign(SeqCands.size(), 0);
  FinalIds.assign(SeqCands.size(), UINT32_MAX);
  StopSeq = UINT32_MAX;
  assert(States.size() + SeqCands.size() < TentativeTag &&
         "state ids would collide with the tentative tag");

  // Phase B (parallel): workers probe and tentatively insert disjoint
  // shards.  Pure function of the frozen maps plus the per-shard seq
  // lists, so the schedule cannot leak into the outcome.
  resolveShardCandidates(FreshCount);

  // Phase C (serial, no hashing or probing): replay charges, state id
  // assignment and first-seen bookkeeping in exactly the serial order,
  // stopping precisely where the serial run's budget would.
  RoundStatus St = RoundStatus::Ok;
  uint32_t Seq = 0;
  Next.clear();
  for (size_t Chunk = 0; Chunk < NumChunks && St == RoundStatus::Ok;
       ++Chunk) {
    ChunkOut &CO = ChunksBuf[Chunk];
    size_t CandBegin = 0;
    for (size_t P = 0; P < CO.Parents.size(); ++P) {
      auto [ParentId, SuccCount] = CO.Parents[P];
      size_t CandEnd = CO.CandEnd[P];
      if (!Limits.chargeStep(SuccCount + 1)) {
        StopSeq = Seq;
        St = RoundStatus::Exhausted;
        break;
      }
      for (size_t CI = CandBegin; CI < CandEnd && St == RoundStatus::Ok;
           ++CI, ++Seq) {
        Candidate &Cand = *SeqCands[Seq];
        uint32_t Id;
        switch (ResKind[Seq]) {
        case ResKnown:
          Id = Cand.KnownId;
          break;
        case ResExisting:
          Id = ResVal[Seq];
          break;
        case ResDup:
          Id = FinalIds[ResVal[Seq]];
          assert(Id != UINT32_MAX &&
                 "dup resolved to a candidate past the stop point");
          break;
        case ResNewFirst: {
          uint32_t NewId =
              Cand.HasVis
                  ? appendStateBatched(std::move(Cand.S), Bound + 1, ParentId,
                                       I, Cand.ActionIdx, Cand.VisWord)
                  : appendState(std::move(Cand.S), Bound + 1, ParentId, I,
                                Cand.ActionIdx);
          FinalIds[Seq] = NewId;
          noteCommitted(core::shardOf(Cand.Hash, NumShards));
          LocalMark[NewId] = Epoch;
          NewFrontier.push_back(NewId);
          Next.push_back(NewId);
          if (!chargeNewState()) {
            StopSeq = Seq + 1;
            St = RoundStatus::Exhausted;
          }
          continue;
        }
        default:
          cuba_unreachable("unresolved candidate after the shard pass");
        }
        if (LocalMark[Id] == Epoch)
          continue;
        LocalMark[Id] = Epoch;
        // ResKnown candidates were only kept with Round > Bound; the
        // others re-check, since a fresh stack can still equal an old
        // state's.
        if (Info[Id].Round > Bound)
          Next.push_back(Id);
      }
      if (St != RoundStatus::Ok)
        break;
      CandBegin = CandEnd;
    }
  }

  // Phase D (parallel): finalize the tentative entries -- accepted ones
  // get their final id, entries past the stop are rolled back.  Runs on
  // every exit path so the maps only ever expose committed ids.
  fixupShardCandidates(FreshCount);
  return St;
}

CbaEngine::RoundStatus CbaEngine::advance() {
  static Statistic Rounds("cba.rounds");
  static obs::Histogram RoundMicros("cba.round_micros",
                                    /*Deterministic=*/false);
  static obs::Gauge BytesHwm("cba.bytes.hwm");
  // How unevenly this round's new states spread over the commit shards:
  // max-shard share as a percentage of a perfectly even spread (100 =
  // balanced, NumShards*100 = everything in one shard).  A deterministic
  // function of committed state, identical at any --jobs and on the
  // serial path (both use the same sharded index).
  static obs::Histogram ShardImbalance("cba.commit.shard_imbalance_pct",
                                       /*Deterministic=*/true);
  ++Rounds;
  RoundStartCommitted = ShardCommitted;
  auto T0 = std::chrono::steady_clock::now();
  obs::ScopedSpan Round("round", obs::Trace::CatDet);
  Round.arg("k", Bound);
  // Seeds are snapshotted before the round: states discovered during
  // this round must not become seeds of a later thread's closure, or
  // the round would mix multiple context switches.
  std::vector<uint32_t> Seeds;
  if (ExpandAll) {
    Seeds.resize(States.size());
    for (uint32_t Id = 0; Id < Seeds.size(); ++Id)
      Seeds[Id] = Id;
  } else {
    Seeds = Frontier;
  }
  Round.arg("seeds", Seeds.size());

  auto FinishRound = [&](std::vector<uint32_t> &NewFrontier) {
    // Budget consumption curve, all deterministic functions of serially
    // committed state (the parallel paths exhaust at identical points).
    Round.arg("new_states", NewFrontier.size());
    Round.arg("steps", Limits.steps());
    Round.arg("states", Limits.states());
    Round.arg("peak_bytes", Limits.peakBytes());
    BytesHwm.recordMax(stateBytes() + CommittedArenaBytes);
    uint64_t Total = 0, Max = 0;
    for (unsigned S = 0; S < NumShards; ++S) {
      uint64_t D = ShardCommitted[S] - RoundStartCommitted[S];
      Total += D;
      Max = std::max(Max, D);
    }
    if (Total > 0)
      ShardImbalance.observe(Max * NumShards * 100 / Total);
    RoundMicros.observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count()));
  };

  std::vector<uint32_t> NewFrontier;
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    // One span per per-thread closure; emitted in both round paths, so
    // it is det-category (its duration covers the parallel levels, but
    // the content does not depend on them).
    size_t Before = NewFrontier.size();
    obs::ScopedSpan Closure("closure", obs::Trace::CatDet);
    Closure.arg("thread", I);
    RoundStatus St = Pool ? closeUnderThreadParallel(I, Seeds, NewFrontier)
                          : closeUnderThread(I, Seeds, NewFrontier);
    Closure.arg("new_states", NewFrontier.size() - Before);
    if (St == RoundStatus::Exhausted) {
      FinishRound(NewFrontier);
      return RoundStatus::Exhausted;
    }
    // Closure boundary: the stack arena and visible set agree between
    // the serial and parallel paths here, so fold them into the byte
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
    Out.push_back(unpackState(States[Id], Store));
  return Out;
}

bool CbaEngine::stateReached(const GlobalState &S) const {
  PackedGlobalState P;
  P.Q = S.Q;
  for (const Stack &W : S.Stacks) {
    StackId Id;
    if (!Store.findInterned(W, Id))
      return false; // A never-interned stack cannot be part of any state.
    P.Stacks.push_back(Id);
  }
  uint64_t H = PackedGlobalStateHash{}(P);
  return shardFor(H).findHashed(P, H) != nullptr;
}

std::vector<TraceStep>
CbaEngine::traceToVisible(const VisibleState &V) const {
  // Find the earliest-discovered state projecting to V; ids are ordered
  // by discovery, so the first match wins.
  uint32_t Best = UINT32_MAX;
  for (uint32_t Id = 0; Id < States.size(); ++Id) {
    const PackedGlobalState &S = States[Id];
    if (S.Q != V.Q)
      continue;
    bool Match = true;
    for (unsigned I = 0; I < S.Stacks.size() && Match; ++I)
      Match = Store.topOf(S.Stacks[I]) == V.Tops[I];
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
    Step.State = unpackState(States[Cur], Store);
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
