//===-- fa/Nfa.cpp - Nondeterministic finite automata ----------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "fa/Nfa.h"

#include <algorithm>


using namespace cuba;

void Nfa::epsilonClosure(std::vector<uint32_t> &States) const {
  std::vector<bool> Seen(numStates(), false);
  std::vector<uint32_t> Work = States;
  for (uint32_t S : States)
    Seen[S] = true;
  while (!Work.empty()) {
    uint32_t S = Work.back();
    Work.pop_back();
    for (const Edge &E : Adj[S]) {
      if (E.Label != EpsSym || Seen[E.To])
        continue;
      Seen[E.To] = true;
      States.push_back(E.To);
      Work.push_back(E.To);
    }
  }
  std::sort(States.begin(), States.end());
  States.erase(std::unique(States.begin(), States.end()), States.end());
}

bool Nfa::accepts(const std::vector<Sym> &Word) const {
  std::vector<uint32_t> Current;
  for (uint32_t S = 0; S < numStates(); ++S)
    if (Initial[S])
      Current.push_back(S);
  epsilonClosure(Current);
  for (Sym X : Word) {
    std::vector<uint32_t> Next;
    for (uint32_t S : Current)
      for (const Edge &E : Adj[S])
        if (E.Label == X)
          Next.push_back(E.To);
    epsilonClosure(Next);
    Current = std::move(Next);
    if (Current.empty())
      return false;
  }
  for (uint32_t S : Current)
    if (Accepting[S])
      return true;
  return false;
}

std::vector<uint32_t> Nfa::reachableStates() const {
  std::vector<bool> Seen(numStates(), false);
  std::vector<uint32_t> Work;
  for (uint32_t S = 0; S < numStates(); ++S) {
    if (Initial[S]) {
      Seen[S] = true;
      Work.push_back(S);
    }
  }
  std::vector<uint32_t> Result = Work;
  while (!Work.empty()) {
    uint32_t S = Work.back();
    Work.pop_back();
    for (const Edge &E : Adj[S]) {
      if (Seen[E.To])
        continue;
      Seen[E.To] = true;
      Result.push_back(E.To);
      Work.push_back(E.To);
    }
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::vector<uint32_t> Nfa::usefulStates() const {
  std::vector<uint32_t> Reach = reachableStates();
  // Co-reachability: walk the reversed graph from the accepting states.
  std::vector<std::vector<uint32_t>> Rev(numStates());
  for (uint32_t S = 0; S < numStates(); ++S)
    for (const Edge &E : Adj[S])
      Rev[E.To].push_back(S);
  std::vector<bool> Co(numStates(), false);
  std::vector<uint32_t> Work;
  for (uint32_t S = 0; S < numStates(); ++S) {
    if (Accepting[S]) {
      Co[S] = true;
      Work.push_back(S);
    }
  }
  while (!Work.empty()) {
    uint32_t S = Work.back();
    Work.pop_back();
    for (uint32_t P : Rev[S]) {
      if (Co[P])
        continue;
      Co[P] = true;
      Work.push_back(P);
    }
  }
  std::vector<uint32_t> Useful;
  for (uint32_t S : Reach)
    if (Co[S])
      Useful.push_back(S);
  return Useful;
}

bool Nfa::isLanguageEmpty() const { return usefulStates().empty(); }

namespace {

/// Iterative Tarjan SCC over the useful-state subgraph; used by the
/// language-finiteness test.
class SccFinder {
public:
  SccFinder(const Nfa &A, const std::vector<uint32_t> &Useful)
      : A(A), InSubgraph(A.numStates(), false), Index(A.numStates(), 0),
        Low(A.numStates(), 0), OnStack(A.numStates(), false),
        Comp(A.numStates(), UINT32_MAX) {
    for (uint32_t S : Useful)
      InSubgraph[S] = true;
  }

  /// Assigns every useful state an SCC id and returns the id count.
  uint32_t run() {
    for (uint32_t S = 0; S < A.numStates(); ++S)
      if (InSubgraph[S] && Comp[S] == UINT32_MAX && Index[S] == 0)
        strongConnect(S);
    return NumComps;
  }

  uint32_t component(uint32_t S) const { return Comp[S]; }
  bool inSubgraph(uint32_t S) const { return InSubgraph[S]; }

private:
  void strongConnect(uint32_t Root) {
    // Explicit DFS stack: (state, next edge index).
    std::vector<std::pair<uint32_t, size_t>> Dfs;
    push(Root);
    Dfs.emplace_back(Root, 0);
    while (!Dfs.empty()) {
      uint32_t S = Dfs.back().first;
      const auto &Edges = A.edgesFrom(S);
      bool Descended = false;
      while (Dfs.back().second < Edges.size()) {
        uint32_t To = Edges[Dfs.back().second].To;
        ++Dfs.back().second;
        if (!InSubgraph[To])
          continue;
        if (Index[To] == 0) {
          push(To);
          Dfs.emplace_back(To, 0);
          Descended = true;
          break;
        }
        if (OnStack[To])
          Low[S] = std::min(Low[S], Index[To]);
      }
      if (Descended)
        continue;
      if (Low[S] == Index[S]) {
        while (true) {
          uint32_t T = Stack.back();
          Stack.pop_back();
          OnStack[T] = false;
          Comp[T] = NumComps;
          if (T == S)
            break;
        }
        ++NumComps;
      }
      Dfs.pop_back();
      if (!Dfs.empty())
        Low[Dfs.back().first] = std::min(Low[Dfs.back().first], Low[S]);
    }
  }

  void push(uint32_t S) {
    Index[S] = Low[S] = ++NextIndex;
    Stack.push_back(S);
    OnStack[S] = true;
  }

  const Nfa &A;
  std::vector<bool> InSubgraph;
  std::vector<uint32_t> Index, Low;
  std::vector<bool> OnStack;
  std::vector<uint32_t> Comp;
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0;
  uint32_t NumComps = 0;
};

} // namespace

bool Nfa::isLanguageFinite() const {
  std::vector<uint32_t> Useful = usefulStates();
  if (Useful.empty())
    return true;
  SccFinder Scc(*this, Useful);
  Scc.run();
  // Infinite iff a pumpable cycle exists: a non-epsilon edge within one
  // SCC of the useful subgraph.
  for (uint32_t S : Useful)
    for (const Edge &E : Adj[S])
      if (E.Label != EpsSym && Scc.inSubgraph(E.To) &&
          Scc.component(S) == Scc.component(E.To))
        return false;
  return true;
}
