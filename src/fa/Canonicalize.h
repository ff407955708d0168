//===-- fa/Canonicalize.h - Canonical DFAs of NFA languages -----*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical form of a regular stack language and the one function
/// that computes it.  Canonical DFAs give the symbolic engine an exact
/// language-equality key for deduplicating symbolic states
/// <q | A_1..A_n> (Sec. 6): two rooted automata denote the same stack
/// language iff their canonical forms are identical, so a hash table
/// over CanonicalDfa dedups by language.
///
/// canonicalizeNfa reads the language from a set of root states in one
/// fused pass of subset construction, co-accessibility pruning,
/// partial-DFA Hopcroft minimisation and canonical BFS renumbering.
/// The canonical form is unique per language, so the result equals the
/// naive complete-DFA route (subset construction with an explicit sink,
/// Moore refinement, dead-state removal) bit for bit -- the reference
/// kept in tests/ReferenceFa.h, which FaPropertyTest pins it against.
///
/// The fused pass never materialises the complete DFA: no sink state, no
/// dense NumSymbols-wide rows for subsets that define only a few
/// symbols, and no per-symbol predecessor arrays over the full alphabet.
/// On the wide-alphabet rooted automata the symbolic engine extracts
/// from post* saturations almost every complete-DFA row would be mostly
/// sink.
///
/// Partial-DFA minimisation note: after trimming, a defined transition
/// always leads to a useful state, so "delta(s, X) is defined" is
/// equivalent to "s accepts some word starting with X".  Seeding the
/// partition with (acceptance, defined-symbol-set) signatures is
/// therefore refinement-sound, keeps every block definedness-homogeneous
/// and lets the refinement loop run on sparse predecessor lists of the
/// defined transitions only -- the implicit dead block never needs to be
/// split against.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_FA_CANONICALIZE_H
#define CUBA_FA_CANONICALIZE_H

#include <cstdint>
#include <vector>

#include "fa/Nfa.h"
#include "support/Hashing.h"

namespace cuba {

namespace fa_testing {
/// Testing hook for the mutation-sensitivity checks (the canonicalizer
/// analogue of OracleOptions::InjectDropVisible): when true,
/// canonicalizeNfa deliberately partitions by acceptance alone and never
/// refines, simulating an under-refinement bug that conflates distinct
/// languages.  The reference comparison and the differential oracle
/// must then report mismatches.  Never set outside tests.
extern bool InjectMinimizeUnderRefine;
} // namespace fa_testing

/// The canonical form of a regular language: the minimal partial DFA with
/// states numbered in BFS order from the start (exploring symbols in
/// increasing order) and dead states removed.  Two languages are equal
/// iff their canonical forms compare equal.
struct CanonicalDfa {
  /// UINT32_MAX in Table encodes "no transition" (the dead sink).
  static constexpr uint32_t NoState = UINT32_MAX;

  uint32_t NumSymbols = 0;
  /// NoState when the language is empty (there are then no states).
  uint32_t Start = NoState;
  /// Row-major numStates x NumSymbols transition table.
  std::vector<uint32_t> Table;
  std::vector<uint8_t> Accepting;

  bool operator==(const CanonicalDfa &) const = default;

  uint32_t numStates() const {
    return static_cast<uint32_t>(Accepting.size());
  }

  uint64_t hash() const {
    uint64_t H = hashCombine(NumSymbols, Start);
    H = hashCombine(H, hashRange(Table.begin(), Table.end()));
    return hashCombine(H, hashRange(Accepting.begin(), Accepting.end()));
  }
};

/// Canonicalizes the language \p A reads from exactly the states in
/// \p Roots (the automaton's own initial flags are ignored).
CanonicalDfa canonicalizeNfa(const Nfa &A, const std::vector<uint32_t> &Roots);

/// As above, but accepting at exactly the states whose \p Accepting
/// flag is set (one per state; the automaton's own flags are ignored).
CanonicalDfa canonicalizeNfa(const Nfa &A, const std::vector<uint32_t> &Roots,
                             const std::vector<uint8_t> &Accepting);

/// Canonicalizes the language of \p A from its initial states.
CanonicalDfa canonicalizeNfa(const Nfa &A);

} // namespace cuba

#endif // CUBA_FA_CANONICALIZE_H
