//===-- fa/Nfa.h - Nondeterministic finite automata --------------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// NFAs with epsilon moves over a dense symbol alphabet (symbol ids
/// 1..numSymbols(), with 0 = epsilon, matching the PDS stack alphabets).
/// These automata represent regular sets of stack words: pushdown store
/// automata project onto them, and the symbolic engine stores per-thread
/// stack languages as rooted NFAs.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_FA_NFA_H
#define CUBA_FA_NFA_H

#include <cstdint>
#include <vector>

#include "pds/Pds.h" // For Sym / EpsSym.

namespace cuba {

/// An NFA with epsilon transitions, a set of initial states and a set of
/// accepting states.
class Nfa {
public:
  struct Edge {
    Sym Label; // EpsSym for epsilon moves.
    uint32_t To;
    bool operator==(const Edge &) const = default;
  };

  explicit Nfa(uint32_t NumSymbols) : NumSymbols(NumSymbols) {}

  uint32_t addState() {
    Adj.emplace_back();
    Accepting.push_back(false);
    Initial.push_back(false);
    return static_cast<uint32_t>(Adj.size() - 1);
  }

  /// Pre-allocates the per-state bookkeeping for \p N total states
  /// (callers that know the final state count up front, e.g. the PSA
  /// constructors, avoid the incremental regrowth).
  void reserveStates(uint32_t N) {
    Adj.reserve(N);
    Accepting.reserve(N);
    Initial.reserve(N);
  }

  uint32_t numStates() const { return static_cast<uint32_t>(Adj.size()); }
  uint32_t numSymbols() const { return NumSymbols; }

  void addEdge(uint32_t From, Sym Label, uint32_t To) {
    assert(From < Adj.size() && To < Adj.size() && "state out of range");
    assert(Label <= NumSymbols && "symbol out of range");
    Adj[From].push_back({Label, To});
  }

  void setInitial(uint32_t S) { Initial[S] = true; }
  void setAccepting(uint32_t S, bool A = true) { Accepting[S] = A; }
  bool isInitial(uint32_t S) const { return Initial[S]; }
  bool isAccepting(uint32_t S) const { return Accepting[S]; }

  const std::vector<Edge> &edgesFrom(uint32_t S) const { return Adj[S]; }

  /// Expands \p States (in place) to its epsilon closure; the result is
  /// sorted and duplicate-free.
  void epsilonClosure(std::vector<uint32_t> &States) const;

  /// True when the automaton accepts the word \p Word (given top-first,
  /// i.e. in reading order).
  bool accepts(const std::vector<Sym> &Word) const;

  /// States reachable from the initial states (sorted).
  std::vector<uint32_t> reachableStates() const;

  /// "Useful" states: reachable from an initial state and co-reachable
  /// to an accepting state (sorted).
  std::vector<uint32_t> usefulStates() const;

  /// True when the language is empty.
  bool isLanguageEmpty() const;

  /// True when the language is finite.  Precisely: the language is
  /// infinite iff some strongly connected component of the useful-state
  /// subgraph contains a non-epsilon edge (a pumpable cycle).  This is
  /// the loop-freeness test of the FCR check (Sec. 5, Fig. 4) as the
  /// differential oracle runs it; epsilon-only cycles do not pump word
  /// length and are ignored.
  bool isLanguageFinite() const;

private:
  uint32_t NumSymbols;
  std::vector<std::vector<Edge>> Adj;
  std::vector<bool> Accepting;
  std::vector<bool> Initial;
};

} // namespace cuba

#endif // CUBA_FA_NFA_H
