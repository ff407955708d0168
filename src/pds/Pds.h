//===-- pds/Pds.h - Sequential pushdown systems -----------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sequential pushdown systems (PDS) as defined in Sec. 2.1 of the paper:
/// a PDS is (Q, Sigma, Delta, qI) with actions (q, w) -> (q', w') where
/// |w| <= 1 and |w'| <= 2.  Stack symbols are dense 32-bit ids local to
/// each PDS; id 0 is reserved for the empty word epsilon, and id
/// numSymbols() + 1 is the built-in bottom-of-stack marker the
/// saturations read the empty stack through.
///
/// A Pds is a handful of flat arrays built once and never copied: the
/// action list, a CSR index from (shared state, top symbol) to action
/// indices, and a table of distinct action labels.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PDS_PDS_H
#define CUBA_PDS_PDS_H

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/ErrorOr.h"
#include "support/FlatHash.h"

namespace cuba {

/// Shared (control) state id.
using QState = uint32_t;
/// Stack symbol id; EpsSym denotes the empty word.
using Sym = uint32_t;
/// Reserved symbol id for the empty word epsilon.
inline constexpr Sym EpsSym = 0;
/// Index into a Pds's table of distinct action labels; 0 is the empty
/// label.
using LabelId = uint32_t;

/// Classification of PDS actions by the shape of (w, w'), following the
/// semantics cases of Sec. 2.1.  Actions with a non-empty source symbol
/// fire when that symbol is on top of the stack; EmptyChange / EmptyPush
/// fire only on the empty stack (case (b) of the semantics).
enum class ActionKind : uint8_t {
  Pop,         ///< (q, s) -> (q', eps): removes the top symbol.
  Overwrite,   ///< (q, s) -> (q', s'): replaces the top symbol.
  Push,        ///< (q, s) -> (q', r0 r1): replaces top by r1, pushes r0.
  EmptyChange, ///< (q, eps) -> (q', eps): shared-state move, stack empty.
  EmptyPush,   ///< (q, eps) -> (q', s): pushes onto the empty stack.
};

/// One pushdown action (q, SrcSym) -> (q', Dst0 Dst1).  For target words
/// shorter than two symbols the unused slots hold EpsSym; for a push,
/// Dst0 is the newly pushed top and Dst1 the symbol written underneath it
/// (the rho0 / rho1 of the paper).  Trivially copyable: the label text
/// lives in the owning Pds (Pds::label).
struct Action {
  QState SrcQ = 0;
  Sym SrcSym = EpsSym;
  QState DstQ = 0;
  Sym Dst0 = EpsSym;
  Sym Dst1 = EpsSym;
  /// Label for diagnostics and printing (f1, b2, ... in the paper's
  /// figures), as an id into the owning Pds's label table.
  LabelId Label = 0;

  ActionKind kind() const {
    if (SrcSym == EpsSym)
      return Dst0 == EpsSym ? ActionKind::EmptyChange : ActionKind::EmptyPush;
    if (Dst1 != EpsSym)
      return ActionKind::Push;
    return Dst0 == EpsSym ? ActionKind::Pop : ActionKind::Overwrite;
  }

  /// Length of the target word w' (0, 1 or 2).
  unsigned targetLength() const {
    if (Dst1 != EpsSym)
      return 2;
    return Dst0 != EpsSym ? 1 : 0;
  }
};

/// An action spelled with its label text, so models and tests can write
/// P.addAction({q, s, q', r0, r1, "name"}).
struct NamedAction {
  QState SrcQ = 0;
  Sym SrcSym = EpsSym;
  QState DstQ = 0;
  Sym Dst0 = EpsSym;
  Sym Dst1 = EpsSym;
  std::string_view Label;
};

/// A sequential pushdown system.  The shared-state set Q is owned by the
/// enclosing Cpds (all threads share it); a Pds owns its stack alphabet
/// and its pushdown program Delta.
///
/// Typical construction: addSymbol() for each stack symbol, addAction()
/// for each rule, then freeze(NumSharedStates) once, which validates the
/// rules and builds the (q, top) -> actions index used by the engines.
/// Move-only: every engine works on the one instance its Cpds owns.
class Pds {
public:
  Pds() = default;
  Pds(Pds &&) = default;
  Pds &operator=(Pds &&) = default;
  Pds(const Pds &) = delete;
  Pds &operator=(const Pds &) = delete;

  /// Registers a stack symbol named \p Name and returns its id (>= 1).
  Sym addSymbol(std::string Name);

  /// Number of genuine stack symbols (excluding epsilon); valid symbol
  /// ids are 1..numSymbols().
  uint32_t numSymbols() const {
    return static_cast<uint32_t>(SymNames.size()) - 1;
  }

  /// The bottom-of-stack marker, one past the alphabet.  Saturations of
  /// the bottom-lifted system read the stack w as the word w followed by
  /// bottom(), over the alphabet 1..bottom(); a transition labelled
  /// bottom() at shared state q fires the empty-stack rules of q (see
  /// rulesOn / liftedAction).  It is not a symbol of the PDS itself.
  Sym bottom() const { return numSymbols() + 1; }

  const std::string &symbolName(Sym S) const {
    assert(S < SymNames.size() && "symbol out of range");
    return SymNames[S];
  }

  /// Finds a symbol by name; the lowest id wins when names repeat.
  /// Returns EpsSym when not present ("eps" itself maps to EpsSym).
  /// A hash lookup, not a scan.
  Sym symbolByName(std::string_view Name) const;

  /// Returns the id of label \p Name, adding it to the label table on
  /// first use.  The empty name is id 0.
  LabelId internLabel(std::string_view Name);

  /// Makes room for \p N more labels, so interning them reallocates
  /// nothing.
  void reserveLabels(size_t N) {
    LabelNames.reserve(LabelNames.size() + N);
    LabelIndex.reserve(LabelIndex.size() + N);
  }

  /// Appends an action to Delta; returns its index.  \p A's label must
  /// come from internLabel() on this Pds.
  uint32_t addAction(const Action &A) {
    assert(!Frozen && "cannot add actions after freeze()");
    assert(A.Label < LabelNames.size() && "label not interned in this PDS");
    Delta.push_back(A);
    return static_cast<uint32_t>(Delta.size() - 1);
  }

  /// Appends an action whose label is given as text.
  uint32_t addAction(const NamedAction &A);

  const std::vector<Action> &actions() const { return Delta; }

  /// The label text of action \p ActionIdx ("" when it has none).
  const std::string &label(uint32_t ActionIdx) const {
    assert(ActionIdx < Delta.size() && "action index out of range");
    return LabelNames[Delta[ActionIdx].Label];
  }

  /// Validates all actions against \p NumSharedStates and this alphabet,
  /// then builds the source index.  Must be called before actionsFrom().
  ErrorOr<void> freeze(uint32_t NumSharedStates);

  bool frozen() const { return Frozen; }

  /// Indices of the actions whose source is (\p Q, \p Top), in Delta
  /// order; \p Top is EpsSym for the empty stack.  Requires freeze().
  std::span<const uint32_t> actionsFrom(QState Q, Sym Top) const {
    assert(Frozen && "Pds::freeze() must run before queries");
    assert(Top <= numSymbols() && "top symbol out of range");
    size_t Key = static_cast<size_t>(Q) * (numSymbols() + 1) + Top;
    assert(Key + 1 < SourceStart.size() && "source state out of range");
    return {SourceActions.data() + SourceStart[Key],
            SourceStart[Key + 1] - SourceStart[Key]};
  }

  /// The source index behind actionsFrom, for callers that precompute
  /// per-action data in its order: every action index, bucketed by source
  /// key q * (numSymbols() + 1) + top.  actionsFrom(Q, Top) is
  /// sourceActions()[sourceStarts()[key] .. sourceStarts()[key + 1]).
  /// Requires freeze().
  std::span<const uint32_t> sourceActions() const {
    assert(Frozen && "Pds::freeze() must run before queries");
    return SourceActions;
  }
  std::span<const uint32_t> sourceStarts() const {
    assert(Frozen && "Pds::freeze() must run before queries");
    return SourceStart;
  }

  /// The rules a saturation fires on a transition (\p Q, \p Top) of the
  /// bottom-lifted system: actionsFrom(Q, Top), except that Top ==
  /// bottom() selects the empty-stack rules.  Read each through
  /// liftedAction().
  std::span<const uint32_t> rulesOn(QState Q, Sym Top) const {
    return actionsFrom(Q, Top == bottom() ? EpsSym : Top);
  }

  /// Action \p ActionIdx as the bottom-lifted system reads it: the
  /// empty-stack rules become rules on the marker,
  ///   (q, eps) -> (q', eps)   as   (q, bot) -> (q', bot),
  ///   (q, eps) -> (q', s)     as   (q, bot) -> (q', s bot),
  /// and every other action is returned unchanged.  The lifted system's
  /// runs correspond one to one with the original's (stack w is w bot),
  /// so reachability and language finiteness carry over.
  Action liftedAction(uint32_t ActionIdx) const {
    Action A = Delta[ActionIdx];
    if (A.SrcSym == EpsSym) {
      A.SrcSym = bottom();
      (A.Dst0 == EpsSym ? A.Dst0 : A.Dst1) = bottom();
    }
    return A;
  }

  /// The set E of "emerging" symbols: every symbol written directly
  /// underneath a newly pushed symbol (the rho1 of push actions).  These
  /// are the candidates for the symbol exposed by a pop (Alg. 2 and the
  /// generator-set definition, Eq. 2).  Requires freeze(); the result is
  /// sorted and duplicate-free.
  const std::vector<Sym> &emergingSymbols() const {
    assert(Frozen && "Pds::freeze() must run before queries");
    return Emerging;
  }

  /// Shared states that are the target of a pop action (q, s) -> (q', eps)
  /// with s != eps; used by the generator-set predicate (Eq. 2).  Sorted
  /// and duplicate-free; requires freeze().
  const std::vector<QState> &popTargets() const {
    assert(Frozen && "Pds::freeze() must run before queries");
    return PopTargets;
  }

private:
  std::vector<std::string> SymNames = {"eps"};
  /// Name hash -> lowest symbol id with that hash (ids >= 1).
  FlatMap<uint64_t, Sym> SymIndex;
  std::vector<std::string> LabelNames = {""};
  /// Name hash -> lowest label id with that hash (non-empty names).
  FlatMap<uint64_t, LabelId> LabelIndex;
  std::vector<Action> Delta;
  /// CSR source index (see sourceActions()).
  std::vector<uint32_t> SourceStart;
  std::vector<uint32_t> SourceActions;
  std::vector<Sym> Emerging;
  std::vector<QState> PopTargets;
  bool Frozen = false;
};

} // namespace cuba

#endif // CUBA_PDS_PDS_H
