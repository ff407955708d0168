//===-- psa/PostStar.h - post* saturation for PDSs ---------------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical post* saturation (Bouajjani-Esparza-Maler 1997; Schwoon
/// 2000): given a PDS P and a PSA recognising a regular set C of PDS
/// states, computes a PSA recognising post*(C), the set of states
/// reachable from C.  The verifier itself saturates through the shared
/// post* of psa/SaturationEngine and the helper-level FCR saturation of
/// core/FcrCheck; this single-automaton one is the reference the
/// differential oracle and the tests hold them to.
///
/// The saturation processes a worklist of automaton transitions.  Popping
/// (p, y, q) with y != eps fires the PDS rules with head (p, y):
///
///   (p,y) -> (p',eps)    adds (p', eps, q)         [pop]
///   (p,y) -> (p',y1)     adds (p', y1, q)          [overwrite]
///   (p,y) -> (p',y1 y2)  adds (p', y1, s) and (s, y2, q) for the helper
///                        state s = s(p',y1)        [push]
///
/// Empty-stack rules fire on the bottom marker (Pds::bottom()): popping
/// (p, bot, q) fires p's empty-stack rules as the bottom-lifted system
/// reads them (Pds::liftedAction), i.e. (p,eps) -> (p',eps) adds
/// (p', bot, q) and (p,eps) -> (p',y1) adds (p', y1, s) and (s, bot, q).
/// An input automaton whose words end in bot therefore saturates the PDS
/// with its empty-stack rules in place; one that never mentions bot
/// never fires them.
///
/// Epsilon edges (which only ever originate at shared states) are closed
/// by symmetric composition: (x, eps, p) + (p, y, q) => (x, y, q), applied
/// both when the epsilon edge and when the target transition is popped,
/// so the closure is complete regardless of discovery order.  Composed
/// edges are shortcuts of existing paths and do not change the language.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PSA_POSTSTAR_H
#define CUBA_PSA_POSTSTAR_H

#include "pds/Pds.h"
#include "psa/PAutomaton.h"
#include "support/Limits.h"

namespace cuba {

/// Result of a saturation run.  When Complete is false the resource
/// budget ran out and the automaton underapproximates post*(C).
struct PostStarResult {
  PAutomaton Automaton;
  bool Complete = true;
};

/// Computes post* of the configurations accepted by \p In under PDS \p P.
/// The result automaton grows out of \p In, so callers that no longer
/// need the input should move it in.
///
/// Preconditions: \p P is frozen, and \p In has no epsilon edges and no
/// transitions into shared states; its alphabet reaches P.bottom() when
/// its words carry the bottom marker.  \p Limits may be null for
/// unbounded runs.
PostStarResult postStar(const Pds &P, PAutomaton In,
                        LimitTracker *Limits = nullptr);

/// Builds the PSA accepting exactly the single PDS state <q | w>
/// (\p TopFirstStack in reading order).
PAutomaton singleStateAutomaton(uint32_t NumShared, uint32_t NumSymbols,
                                QState Q, const std::vector<Sym> &TopFirst);

/// Builds the PSA accepting Q x Sigma^{<=1} lifted onto the bottom marker
/// \p Bottom: <q | bot> and <q | s bot> for every shared state q and
/// symbol 1 <= s < Bottom.  This is the start set of the FCR test
/// (Sec. 5, Lemma 16), over a PDS P with Bottom == P.bottom(); checkFcr
/// leaves it implicit, and the differential oracle runs post* from it
/// to check checkFcr's per-thread answers.
PAutomaton shortStackAutomaton(uint32_t NumShared, Sym Bottom);

} // namespace cuba

#endif // CUBA_PSA_POSTSTAR_H
