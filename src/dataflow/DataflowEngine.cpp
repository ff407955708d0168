//===-- dataflow/DataflowEngine.cpp - Weighted dataflow client ------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "dataflow/DataflowEngine.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "fa/Canonicalize.h"
#include "obs/Trace.h"
#include "support/FaultInject.h"
#include "support/Statistic.h"

using namespace cuba;
using namespace cuba::bp;

/// Builds the canonical DFA accepting exactly the single word \p Word.
static CanonicalDfa singleWordLanguage(uint32_t NumSymbols,
                                       const std::vector<Sym> &Word) {
  Nfa A(NumSymbols);
  uint32_t Cur = A.addState();
  A.setInitial(Cur);
  for (Sym S : Word) {
    uint32_t Next = A.addState();
    A.addEdge(Cur, S, Next);
    Cur = Next;
  }
  A.setAccepting(Cur);
  return canonicalizeNfa(A);
}

/// The (root, facts) transaction-record key.
static uint64_t recordKey(QState Q, uint32_t Facts) {
  return (static_cast<uint64_t>(Q) << 32) | Facts;
}

DataflowEngine::DataflowEngine(const Cpds &C, const TaintInfo &Taint,
                               const ResourceLimits &RL)
    : C(C), Taint(Taint), Limits(RL), TopsCache(C.numThreads()),
      SatCache(C.numThreads()) {
  assert(C.frozen() && "DataflowEngine requires a frozen CPDS");
  SharedBits = Taint.SharedBits;
  BaseErr = static_cast<QState>(1) << SharedBits;
  assert(C.numSharedStates() == BaseErr + 1 &&
         "the side table must come from the same (base) translation");
  FoldErr = static_cast<QState>(1) << (SharedBits + Taint.FactNames.size());

  // Per-action rule weights, indexed by the frontend's action indices;
  // rules without a taint effect default to identity.
  RuleTf.resize(C.numThreads());
  for (unsigned I = 0; I < C.numThreads(); ++I)
    RuleTf[I].assign(C.thread(I).actions().size(), TaintTf{});
  for (const TaintActionWeight &W : Taint.Weights) {
    assert(W.Thread < RuleTf.size() &&
           W.Action < RuleTf[W.Thread].size() && "stale taint side table");
    RuleTf[W.Thread][W.Action] = {W.Kill, W.Gen};
  }

  // The initial state <q0, no facts | lifted initial stacks>.
  GlobalState Init = C.initialState();
  DataflowState S;
  S.Q = Init.Q;
  S.Facts = 0;
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    // Stacks are stored bottom-first; automata read top-first.
    std::vector<Sym> Word(Init.Stacks[I].rbegin(), Init.Stacks[I].rend());
    Sym Bottom = C.thread(I).bottom();
    Word.push_back(Bottom);
    S.Langs.push_back(Store.intern(singleWordLanguage(Bottom, Word)));
  }
  addState(std::move(S), 0, UINT32_MAX, &Frontier);
}

const std::vector<Sym> &DataflowEngine::topsOf(unsigned Thread, DfaId Lang) {
  TopsCacheEntry &Cache = TopsCache[Thread];
  if (Cache.Filled.size() < Store.size()) {
    Cache.Filled.resize(Store.size(), 0);
    Cache.Tops.resize(Store.size());
  }
  if (Cache.Filled[Lang])
    return Cache.Tops[Lang];

  // Every edge leaving the canonical start lies on an accepting path;
  // the bottom marker on top encodes the empty original stack.
  const CanonicalDfa &D = Store.get(Lang);
  std::vector<Sym> Tops;
  Sym Bottom = C.thread(Thread).bottom();
  if (D.Start != CanonicalDfa::NoState) {
    if (D.Accepting[D.Start])
      Tops.push_back(EpsSym);
    for (Sym X = 1; X <= D.NumSymbols; ++X) {
      if (D.Table[static_cast<size_t>(D.Start) * D.NumSymbols + (X - 1)] ==
          CanonicalDfa::NoState)
        continue;
      Tops.push_back(X == Bottom ? EpsSym : X);
    }
  }
  std::sort(Tops.begin(), Tops.end());
  Tops.erase(std::unique(Tops.begin(), Tops.end()), Tops.end());
  Cache.Filled[Lang] = 1;
  Cache.Tops[Lang] = std::move(Tops);
  return Cache.Tops[Lang];
}

void DataflowEngine::recordVisible(const DataflowState &S, unsigned Round) {
  unsigned N = C.numThreads();
  VisibleState V;
  V.Q = foldQ(S.Q, S.Facts);
  V.Tops.assign(N, EpsSym);
  // Iterative odometer over the per-thread top sets.
  std::vector<const std::vector<Sym> *> Sets;
  Sets.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    Sets.push_back(&topsOf(I, S.Langs[I]));
    if (Sets.back()->empty())
      return;
  }
  std::vector<size_t> Idx(N, 0);
  while (true) {
    for (unsigned I = 0; I < N; ++I)
      V.Tops[I] = (*Sets[I])[Idx[I]];
    FirstSeen.emplace(V, Round); // Keeps the earliest round.
    unsigned I = 0;
    while (I < N && ++Idx[I] == Sets[I]->size()) {
      Idx[I] = 0;
      ++I;
    }
    if (I == N)
      break;
  }
}

std::pair<bool, bool>
DataflowEngine::addState(DataflowState S, unsigned Round, uint32_t Producer,
                         std::vector<DataflowState> *NewFrontier) {
  static Statistic StateCounter("dataflow.states");
  // Producer bits exist for threads 0..31 only; a wider producer is
  // not recorded, so that thread merely re-expands the state once more.
  uint32_t Mask = Producer < 32 ? 1u << Producer : 0u;
  auto [Slot, New] = States.tryEmplace(S, Mask);
  if (!New) {
    *Slot |= Mask;
    return {false, true};
  }
  ++StateCounter;
  recordVisible(S, Round);
  if (NewFrontier)
    NewFrontier->push_back(std::move(S));
  if (!Limits.chargeState())
    return {true, false};
  return {true, Limits.checkMemory(memoryUsage())};
}

bool DataflowEngine::addSuccessor(const DataflowState &S, unsigned I,
                                  QState Q2, uint32_t FactsOut, DfaId Lang,
                                  std::vector<DataflowState> &NewFrontier) {
  DataflowState Succ;
  Succ.Q = Q2;
  Succ.Facts = FactsOut;
  Succ.Langs = S.Langs;
  Succ.Langs[I] = Lang;
  return addState(std::move(Succ), Bound + 1, I, &NewFrontier).second;
}

bool DataflowEngine::replayTransaction(const Transaction &TR,
                                       const DataflowState &S, unsigned I,
                                       std::vector<DataflowState> &NewFrontier) {
  if (!Limits.chargeStep(TR.BaseSteps))
    return false;
  for (const Transaction::Succ &Succ : TR.Succs) {
    if (!Limits.chargeStep(Succ.StepCost))
      return false;
    if (!addSuccessor(S, I, Succ.Q2, Succ.FactsOut, Succ.Lang, NewFrontier))
      return false;
  }
  return true;
}

uint32_t DataflowEngine::saturate(unsigned I, DfaId Lang) {
  if (const uint32_t *Found = SatCache[I].find(Lang))
    return *Found;
  static Statistic SatCounter("dataflow.saturations");
  static obs::Histogram PopsPerSat("dataflow.pops_per_saturation");
  ++SatCounter;
  obs::ScopedSpan Span("saturate", obs::Trace::CatDet);
  Span.arg("thread", I);
  Span.arg("lang", Lang);

  // Fresh (thread, language): build the domain with this thread's rule
  // transformers interned, then run the generic saturator charged live.
  TaintWeightTable Tab;
  std::vector<uint32_t> TfBy(RuleTf[I].size(), 0);
  for (size_t AI = 0; AI < RuleTf[I].size(); ++AI)
    if (!(RuleTf[I][AI] == TaintTf{}))
      TfBy[AI] = Tab.internTf(RuleTf[I][AI]);

  uint64_t StepsBefore = Limits.steps();
  WeightedSaturatorT<TaintDomain> Sat(
      C.thread(I), C.numSharedStates(), Store.get(Lang), &Limits,
      TaintDomain(std::move(Tab), std::move(TfBy)));
  WeightedResult<TaintDomain> R = Sat.run();
  PopsPerSat.observe(Limits.steps() - StepsBefore);
  Span.arg("pops", Limits.steps() - StepsBefore);
  if (!R.Complete)
    return UINT32_MAX;

  fault::checkAlloc();
  uint32_t Idx = static_cast<uint32_t>(Sats.size());
  Span.arg("bytes", R.Rel.memoryBytes());
  SatBytes += R.Rel.memoryBytes();
  WSat W;
  W.Rel = std::move(R.Rel);
  W.PendingBase = Limits.steps() - StepsBefore;
  Sats.push_back(std::move(W));
  SatCache[I].tryEmplace(Lang, Idx);
  Limits.checkMemory(memoryUsage());
  return Idx;
}

uint32_t DataflowEngine::rootProduct(uint32_t SatIdx, QState Root) {
  WSat &W = Sats[SatIdx];
  if (const uint32_t *Found = W.Roots.find(Root))
    return *Found;
  static Statistic ProductCounter("dataflow.products");
  ++ProductCounter;
  obs::ScopedSpan Span("product", obs::Trace::CatDet);
  Span.arg("root", Root);

  WeightedRelation<TaintDomain> &Rel = W.Rel;
  TaintWeightTable &Tab = Rel.Dom.table();

  // Adjacency restricted to the root's view, each edge carrying its
  // transformer set at this root.
  struct PEdge {
    Sym Label;
    uint32_t To;
    uint32_t Set;
  };
  std::vector<std::vector<PEdge>> Adj(Rel.NumStates);
  for (size_t T = 0; T < Rel.numTransitions(); ++T) {
    uint32_t Set = Rel.Dom.setAt(T, Root);
    if (Set != TaintWeightTable::EmptySet)
      Adj[Rel.TFrom[T]].push_back({Rel.TLabel[T], Rel.TTo[T], Set});
  }

  // BFS unfolding over (relation state, composed transformer).  Reading
  // edges top-first composes in reverse execution order (INV1): the
  // edge just read executes BEFORE the suffix already composed, so the
  // child's transformer is seq(f, g).
  RootProduct P;
  P.Prod = Nfa(Rel.NumSymbols);
  FlatMap<uint64_t, uint32_t> Index;
  std::vector<uint32_t> Queue;
  auto pstate = [&](uint32_t S, uint32_t G) {
    auto [Slot, New] =
        Index.tryEmplace((static_cast<uint64_t>(S) << 32) | G, 0);
    if (New) {
      *Slot = P.Prod.addState();
      P.PStates.emplace_back(S, G);
      Queue.push_back(*Slot);
    }
    return *Slot;
  };
  P.SeedId.resize(Rel.NumShared);
  for (QState Q2 = 0; Q2 < Rel.NumShared; ++Q2)
    P.SeedId[Q2] = pstate(Q2, 0);
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    uint32_t Pid = Queue[Head];
    auto [S, G] = P.PStates[Pid];
    TaintTf GT = Tab.tf(G);
    for (const PEdge &E : Adj[S]) {
      // set() stays valid across internTf (it only grows the Tf pool).
      for (uint32_t F : Tab.set(E.Set)) {
        uint32_t G2 = Tab.internTf(seqTf(Tab.tf(F), GT));
        P.Prod.addEdge(Pid, E.Label, pstate(E.To, G2));
      }
    }
  }

  // Acceptance in the root's view: the base accepting states, plus the
  // root itself when the input language accepts the empty word.  The
  // Nfa flags stay clear -- commitExtraction toggles them per output
  // fact-vector group.
  for (uint32_t Pid = 0; Pid < P.PStates.size(); ++Pid) {
    uint32_t S = P.PStates[Pid].first;
    bool Acc = S >= Rel.NumShared ? Rel.AcceptBase[S] != 0
                                  : (S == Root && Rel.StartAccepting);
    if (Acc)
      P.Accepts.push_back(Pid);
  }

  Span.arg("pstates", P.PStates.size());
  SatBytes += P.memoryBytes();
  uint32_t Idx = static_cast<uint32_t>(RootProducts.size());
  RootProducts.push_back(std::move(P));
  W.Roots.tryEmplace(Root, Idx);
  return Idx;
}

bool DataflowEngine::commitExtraction(uint32_t SatIdx, const DataflowState &S,
                                      unsigned I,
                                      std::vector<DataflowState> &NewFrontier) {
  static Statistic ExtractCounter("dataflow.extractions");
  static obs::Histogram Fanout("dataflow.extraction_fanout");
  ++ExtractCounter;
  obs::ScopedSpan Span("extract", obs::Trace::CatDet);
  Span.arg("thread", I);
  Span.arg("root", S.Q);
  uint32_t PIdx = rootProduct(SatIdx, S.Q);
  WSat &W = Sats[SatIdx];
  RootProduct &P = RootProducts[PIdx];
  TaintWeightTable &Tab = W.Rel.Dom.table();

  Transaction TR;
  TR.BaseSteps = W.PendingBase; // First extraction carries the base.
  W.PendingBase = 0;

  if (!Limits.checkMemory(memoryUsage()))
    return false;

  // Group the accepting product states by the fact vector they produce
  // from the incoming one; each group is one successor family
  // <q2, apply(g, facts)>.  Ordered map: deterministic successor order.
  std::map<uint32_t, std::vector<uint32_t>> Groups;
  for (uint32_t Pid : P.Accepts)
    Groups[applyTf(Tab.tf(P.PStates[Pid].second), S.Facts)].push_back(Pid);

  // Per-successor charge: the product automaton the canonicalization
  // reads, the weighted analogue of the boolean pipeline's rooted-NFA
  // cost.
  uint64_t Cost = P.PStates.size();
  bool Ok = true;
  std::vector<uint32_t> Target(1);
  for (auto &[FactsOut, Members] : Groups) {
    if (!Ok)
      break;
    for (uint32_t Pid : Members)
      P.Prod.setAccepting(Pid, true);
    for (QState Q2 = 0; Ok && Q2 < W.Rel.NumShared; ++Q2) {
      Target[0] = P.SeedId[Q2];
      CanonicalDfa D = canonicalizeNfa(P.Prod, Target);
      if (D.Start == CanonicalDfa::NoState)
        continue; // Empty language at this target: no successor.
      if (!Limits.chargeStep(Cost)) {
        Ok = false;
        break;
      }
      DfaId Lang = Store.intern(std::move(D));
      TR.Succs.push_back({Q2, FactsOut, Lang, Cost});
      if (!addSuccessor(S, I, Q2, FactsOut, Lang, NewFrontier))
        Ok = false;
    }
    for (uint32_t Pid : Members)
      P.Prod.setAccepting(Pid, false);
  }
  // Exhaustion mid-transaction leaves <root, facts> unrecorded: a
  // prefix was charged and registered, and the engine is stopping.
  if (!Ok)
    return false;
  Fanout.observe(TR.Succs.size());
  Span.arg("fanout", TR.Succs.size());
  Transactions.push_back(std::move(TR));
  W.Records.tryEmplace(recordKey(S.Q, S.Facts),
                       static_cast<uint32_t>(Transactions.size() - 1));
  return true;
}

bool DataflowEngine::expand(const DataflowState &S, unsigned I,
                            std::vector<DataflowState> &NewFrontier) {
  static Statistic TransCounter("dataflow.transactions");
  static Statistic HitCounter("dataflow.transactions.cached");
  ++TransCounter;

  DfaId Lang = S.Langs[I];
  if (Store.get(Lang).Start == CanonicalDfa::NoState)
    return true;

  uint32_t SatIdx = saturate(I, Lang);
  if (SatIdx == UINT32_MAX)
    return false;
  if (const uint32_t *Rec =
          Sats[SatIdx].Records.find(recordKey(S.Q, S.Facts))) {
    ++HitCounter;
    return replayTransaction(Transactions[*Rec], S, I, NewFrontier);
  }
  return commitExtraction(SatIdx, S, I, NewFrontier);
}

DataflowEngine::RoundStatus DataflowEngine::advance() {
  static Statistic Rounds("dataflow.rounds");
  static obs::Histogram RoundMicros("dataflow.round_micros",
                                    /*Deterministic=*/false);
  static obs::Gauge BytesHwm("dataflow.bytes.hwm");
  ++Rounds;
  auto T0 = std::chrono::steady_clock::now();
  // The engine is serial, so the span content is trivially
  // jobs-independent; it still carries the det category so dataflow
  // traces diff clean alongside the boolean engines'.
  obs::ScopedSpan Round("dataflow-round", obs::Trace::CatDet);
  Round.arg("k", Bound);
  Round.arg("frontier", Frontier.size());
  auto Finish = [&](size_t NewStates) {
    Round.arg("new_states", NewStates);
    Round.arg("steps", Limits.steps());
    Round.arg("states", Limits.states());
    Round.arg("peak_bytes", Limits.peakBytes());
    BytesHwm.recordMax(memoryUsage());
    RoundMicros.observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count()));
  };
  std::vector<DataflowState> NewFrontier;
  for (const DataflowState &S : Frontier) {
    uint32_t Produced = *States.find(S);
    for (unsigned I = 0; I < C.numThreads(); ++I) {
      // Skip the producer thread: the weighted saturation is exact and
      // transitively closed, so re-expanding yields only subsumed
      // successors -- the same argument as the boolean engines'.
      if (I < 32 && (Produced & (1u << I)))
        continue;
      if (!expand(S, I, NewFrontier)) {
        Finish(NewFrontier.size());
        return RoundStatus::Exhausted;
      }
    }
  }
  Finish(NewFrontier.size());
  ++Bound;
  Frontier = std::move(NewFrontier);
  return RoundStatus::Ok;
}

std::vector<VisibleState> DataflowEngine::newVisibleThisRound() const {
  std::vector<VisibleState> Out;
  for (const auto &[V, R] : FirstSeen)
    if (R == Bound)
      Out.push_back(V);
  return Out;
}

std::vector<std::pair<VisibleState, unsigned>>
DataflowEngine::visibleFirstSeen() const {
  return {FirstSeen.begin(), FirstSeen.end()};
}

std::vector<SinkHit> cuba::scanSinkHits(
    const std::vector<std::pair<VisibleState, unsigned>> &Visible,
    const TaintInfo &Taint, unsigned MaxRound) {
  // A leak: a reachable visible state has a sink's thread sitting at
  // the sink frame while the fact may be tainted.  The err state
  // carries no fact bits (the folded projection collapses it), so it
  // never witnesses a sink.
  QState FoldErr = static_cast<QState>(1)
                   << (Taint.SharedBits + Taint.FactNames.size());
  std::map<std::tuple<unsigned, Sym, int>, unsigned> Min;
  for (const auto &[V, R] : Visible) {
    if (R > MaxRound || V.Q == FoldErr)
      continue;
    uint32_t Facts = V.Q >> Taint.SharedBits;
    for (const TaintSinkSite &Sk : Taint.Sinks) {
      if (V.Tops[Sk.Thread] != Sk.Frame || !((Facts >> Sk.Fact) & 1))
        continue;
      auto [It, New] = Min.try_emplace({Sk.Thread, Sk.Frame, Sk.Fact}, R);
      if (!New && R < It->second)
        It->second = R;
    }
  }
  std::vector<SinkHit> Out;
  Out.reserve(Min.size());
  for (const auto &[K, R] : Min)
    Out.push_back({std::get<0>(K), std::get<1>(K), std::get<2>(K), R});
  return Out;
}

std::vector<SinkHit> DataflowEngine::sinkHits() const {
  return scanSinkHits(visibleFirstSeen(), Taint);
}
