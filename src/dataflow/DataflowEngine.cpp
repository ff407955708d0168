//===-- dataflow/DataflowEngine.cpp - Weighted dataflow client ------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "dataflow/DataflowEngine.h"

#include <map>
#include <tuple>

#include "fa/Canonicalize.h"

using namespace cuba;
using namespace cuba::bp;

TaintRoundDomain::TaintRoundDomain(const Cpds &C, const TaintInfo &Taint)
    : C(C), SharedBits(Taint.SharedBits),
      BaseErr(static_cast<QState>(1) << Taint.SharedBits),
      FoldErr(static_cast<QState>(1)
              << (Taint.SharedBits + Taint.FactNames.size())) {
  assert(Taint.SharedBits + Taint.FactNames.size() < 32 &&
         "folded control states must fit in a QState");
  assert(C.numSharedStates() == BaseErr + 1 &&
         "the side table must come from the same (base) translation");
  assert(C.initialState().Q != BaseErr && "the run starts inside err");
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
}

DomainSaturation<TaintRoundDomain::Sat>
TaintRoundDomain::saturate(unsigned Thread, const CanonicalDfa &Lang,
                           LimitTracker *Limits) const {
  // Each saturation owns its weight table, seeded with this thread's
  // rule transformers.
  TaintWeightTable Tab;
  std::vector<uint32_t> TfBy(RuleTf[Thread].size(), 0);
  for (size_t AI = 0; AI < RuleTf[Thread].size(); ++AI)
    if (!(RuleTf[Thread][AI] == TaintTf{}))
      TfBy[AI] = Tab.internTf(RuleTf[Thread][AI]);
  WeightedSaturatorT<TaintDomain> S(
      C.thread(Thread), C.numSharedStates(), Lang, Limits,
      TaintDomain(std::move(Tab), std::move(TfBy)));
  WeightedResult<TaintDomain> R = S.run();
  return {std::move(R.Rel), R.Complete};
}

std::unique_ptr<const TaintRoundDomain::RootProduct>
TaintRoundDomain::buildProduct(const Sat &Rel, QState Root) const {
  const TaintWeightTable &Tab = Rel.Dom.table();

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
  // child's transformer is seq(f, g).  Composed transformers get
  // product-local ids, so the saturation's table is only read.
  auto P = std::make_unique<RootProduct>();
  P->Prod = Nfa(Rel.NumSymbols);
  std::vector<TaintTf> Tfs;
  FlatMap<uint64_t, uint32_t> TfIdx;
  auto tfId = [&](TaintTf T) {
    auto [Slot, New] =
        TfIdx.tryEmplace((static_cast<uint64_t>(T.Kill) << 32) | T.Gen,
                         static_cast<uint32_t>(Tfs.size()));
    if (New)
      Tfs.push_back(T);
    return *Slot;
  };
  std::vector<std::pair<uint32_t, uint32_t>> PStates;
  FlatMap<uint64_t, uint32_t> Index;
  std::vector<uint32_t> Queue;
  auto pstate = [&](uint32_t S, uint32_t G) {
    auto [Slot, New] =
        Index.tryEmplace((static_cast<uint64_t>(S) << 32) | G, 0);
    if (New) {
      *Slot = P->Prod.addState();
      PStates.emplace_back(S, G);
      Queue.push_back(*Slot);
    }
    return *Slot;
  };
  uint32_t Identity = tfId(TaintTf{});
  P->SeedId.resize(Rel.NumShared);
  for (QState Q2 = 0; Q2 < Rel.NumShared; ++Q2)
    P->SeedId[Q2] = pstate(Q2, Identity);
  uint64_t NumEdges = 0;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    uint32_t Pid = Queue[Head];
    auto [S, G] = PStates[Pid];
    TaintTf GT = Tfs[G];
    for (const PEdge &E : Adj[S])
      for (uint32_t F : Tab.set(E.Set)) {
        P->Prod.addEdge(Pid, E.Label,
                        pstate(E.To, tfId(seqTf(Tab.tf(F), GT))));
        ++NumEdges;
      }
  }

  // Acceptance in the root's view: the base accepting states, plus the
  // root itself when the input language accepts the empty word.
  for (uint32_t Pid = 0; Pid < PStates.size(); ++Pid) {
    auto [S, G] = PStates[Pid];
    bool Acc = S >= Rel.NumShared ? Rel.AcceptBase[S] != 0
                                  : (S == Root && Rel.StartAccepting);
    if (Acc)
      P->Accepts.emplace_back(Pid, Tfs[G]);
  }
  P->Bytes = static_cast<uint64_t>(PStates.size()) *
                 sizeof(std::vector<Nfa::Edge>) +
             NumEdges * sizeof(Nfa::Edge) +
             P->SeedId.size() * sizeof(uint32_t) +
             P->Accepts.size() * sizeof(P->Accepts[0]);
  return P;
}

DomainExtraction
TaintRoundDomain::extract(const Sat &Rel, Cache &Products, QState Root,
                          std::vector<ExtractedSucc> &Succs) const {
  // Unfold the row's control state into the base root and its facts
  // (err carries none), and fetch or build the base root's product.
  QState BaseRoot = Root == FoldErr ? BaseErr : Root & (BaseErr - 1);
  uint32_t Facts = Root == FoldErr ? 0 : Root >> SharedBits;
  if (Products.empty())
    Products.resize(Rel.NumShared);
  DomainExtraction Use;
  if (Products[BaseRoot]) {
    Use.Reused = 1;
  } else {
    Products[BaseRoot] = buildProduct(Rel, BaseRoot);
    Use.Bytes = Products[BaseRoot]->Bytes;
  }
  const RootProduct &P = *Products[BaseRoot];

  // Group the accepting product states by the fact vector they produce
  // from the incoming one; each group is one successor family
  // <q2, apply(g, facts)>.  Ordered map: deterministic successor order.
  std::map<uint32_t, std::vector<uint32_t>> Groups;
  for (const auto &[Pid, Tf] : P.Accepts)
    Groups[applyTf(Tf, Facts)].push_back(Pid);

  // Per-successor charge: the product automaton the canonicalization
  // reads, the weighted analogue of the boolean pipeline's rooted-NFA
  // cost.
  uint64_t Cost = P.Prod.numStates();
  std::vector<uint8_t> Accepting(P.Prod.numStates(), 0);
  std::vector<uint32_t> Target(1);
  for (const auto &[FactsOut, Members] : Groups) {
    for (uint32_t Pid : Members)
      Accepting[Pid] = 1;
    for (QState Q2 = 0; Q2 < Rel.NumShared; ++Q2) {
      Target[0] = P.SeedId[Q2];
      CanonicalDfa D = canonicalizeNfa(P.Prod, Target, Accepting);
      if (D.Start == CanonicalDfa::NoState)
        continue; // Empty language at this target: no successor.
      uint64_t Hash = D.hash();
      Succs.push_back({fold(Q2, FactsOut), std::move(D), Hash, Cost});
    }
    for (uint32_t Pid : Members)
      Accepting[Pid] = 0;
  }
  return Use;
}

template class cuba::SymbolicRounds<TaintRoundDomain>;

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
