//===-- fa/Canonicalize.h - Direct NFA canonicalization ---------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct canonicalization of the language an NFA reads from a set of
/// root states: one fused pass of subset construction, co-accessibility
/// pruning, partial-DFA Hopcroft minimisation and canonical BFS
/// renumbering, producing the same CanonicalDfa as
/// `determinize().canonicalize()` (the canonical form is unique per
/// language, so the two pipelines are interchangeable bit for bit --
/// pinned by FaPropertyTest).
///
/// The fused pass never materialises the complete DFA: no sink state, no
/// dense NumSymbols-wide rows for subsets that define only a few
/// symbols, and no per-symbol predecessor arrays over the full alphabet.
/// On the wide-alphabet rooted automata the symbolic engine extracts
/// from post* saturations, the complete-DFA detour is the dominant cost
/// -- almost every row is mostly sink -- which is what this entry point
/// exists to skip.
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

#include <vector>

#include "fa/Dfa.h"
#include "fa/Nfa.h"

namespace cuba {

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
