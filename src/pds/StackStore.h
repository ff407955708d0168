//===-- pds/StackStore.h - Hash-consed prefix-sharing stacks ----*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interning arena for thread stacks.  A stack is a 32-bit StackId
/// naming a (top symbol, rest-of-stack) node; structurally equal stacks
/// always intern to the same id, so:
///
///   - deriving a successor stack (one push / pop / overwrite) is O(1)
///     and shares the untouched suffix with its parent instead of
///     deep-copying the whole vector<Sym>;
///   - the top symbol (the T projection of Eq. 1) is a field load;
///   - stack equality is id equality, making global-state hashing and
///     comparison O(threads) instead of O(total stack depth).
///
/// Ids are dense and stable: nodes are only ever appended, so ids remain
/// valid across arena growth.  The explicit engine stores a global state
/// as a state row [q, w1..wn] of stack ids (support/StateRows.h);
/// packRow / unpackRow convert between rows and GlobalState.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PDS_STACKSTORE_H
#define CUBA_PDS_STACKSTORE_H

#include "pds/State.h"
#include "support/FaultInject.h"
#include "support/FlatHash.h"

namespace cuba {

/// Interned stack handle.  EmptyStackId names the empty stack.
using StackId = uint32_t;
inline constexpr StackId EmptyStackId = 0;

/// The interning arena.  Not thread-safe; each engine owns one.
class StackStore {
public:
  StackStore() {
    Nodes.push_back({EpsSym, EmptyStackId}); // Slot 0: the empty stack.
  }

  /// Number of distinct interned stacks, including the empty stack.
  size_t size() const { return Nodes.size(); }

  /// The stack \p Top pushed onto \p Rest.
  StackId push(StackId Rest, Sym Top) {
    assert(Top != EpsSym && "cannot push the empty word");
    // Probe before any mutation so an injected failure cannot leave a
    // torn intern entry behind.
    fault::checkAlloc();
    uint64_t Key = (static_cast<uint64_t>(Top) << 32) | Rest;
    auto [Slot, New] = Intern.tryEmplace(Key, 0);
    if (New) {
      *Slot = static_cast<StackId>(Nodes.size());
      Nodes.push_back({Top, Rest});
    }
    return *Slot;
  }

  /// Logical footprint: node array plus intern index, both deterministic
  /// functions of the interned-node count.
  uint64_t memoryBytes() const {
    return static_cast<uint64_t>(Nodes.size()) * sizeof(Node) +
           Intern.memoryBytes();
  }

  /// The stack below the top of \p W.
  StackId pop(StackId W) const {
    assert(W != EmptyStackId && "cannot pop the empty stack");
    return Nodes[W].Rest;
  }

  /// The top symbol of \p W, or EpsSym for the empty stack (the function
  /// T of Eq. 1 on one stack).
  Sym topOf(StackId W) const { return Nodes[W].Top; }

  /// Interns \p W (stored bottom-first, top at back, as in pds/State.h).
  StackId intern(const Stack &W);

  /// Looks up the node (\p Top pushed onto \p Rest) without creating it;
  /// the read-only counterpart of push() used by StackOverlay during the
  /// parallel derive phases, when the arena is frozen.
  bool findNode(Sym Top, StackId Rest, StackId &Id) const {
    uint64_t Key = (static_cast<uint64_t>(Top) << 32) | Rest;
    const StackId *Found = Intern.find(Key);
    if (!Found)
      return false;
    Id = *Found;
    return true;
  }

  /// Rebuilds the explicit bottom-first stack named by \p Id.
  Stack materialise(StackId Id) const;

  /// Number of symbols on stack \p Id.
  size_t depth(StackId Id) const;

private:
  struct Node {
    Sym Top;
    StackId Rest;
  };

  std::vector<Node> Nodes;
  /// (Top << 32 | Rest) -> node id.
  FlatMap<uint64_t, StackId> Intern;
};

/// A worker-private overlay on a frozen StackStore: reads resolve
/// against the base arena, pushes that miss the base are interned into
/// local nodes whose ids continue past the base size.  This is what lets
/// the explicit engine's parallel derive phase run successor derivation
/// concurrently with zero synchronisation -- the shared arena is never
/// written -- while the serial commit later re-interns only the
/// genuinely new nodes (translate(), memoised per node) in serial order,
/// so StackStore id assignment stays bit-identical to a serial run.
///
/// Overlay ids are only meaningful against the base-size snapshot taken
/// by rebase(); rebase again whenever the base arena may have grown
/// (i.e. once per derive phase).
class StackOverlay {
public:
  /// Snapshots \p B's current size and drops all local nodes.
  void rebase(const StackStore &B) {
    Base = &B;
    BaseSize = static_cast<uint32_t>(B.size());
    Nodes.clear();
    Memo.clear();
    Intern.clear();
  }

  uint32_t baseSize() const { return BaseSize; }

  Sym topOf(StackId W) const {
    return W < BaseSize ? Base->topOf(W) : Nodes[W - BaseSize].Top;
  }

  StackId pop(StackId W) const {
    return W < BaseSize ? Base->pop(W) : Nodes[W - BaseSize].Rest;
  }

  StackId push(StackId Rest, Sym Top) {
    assert(Top != EpsSym && "cannot push the empty word");
    // A node whose rest is itself local cannot exist in the frozen base
    // (base rests all precede the snapshot), so only base rests probe it.
    if (Rest < BaseSize) {
      StackId Id;
      if (Base->findNode(Top, Rest, Id))
        return Id;
    }
    uint64_t Key = (static_cast<uint64_t>(Top) << 32) | Rest;
    auto [Slot, New] = Intern.tryEmplace(Key, 0);
    if (New) {
      *Slot = BaseSize + static_cast<uint32_t>(Nodes.size());
      Nodes.push_back({Top, Rest});
      Memo.push_back(UINT32_MAX);
    }
    return *Slot;
  }

  /// Maps an overlay id to a real id, interning local nodes into \p Real
  /// (which must be the rebased-on store) on first use.  Serial-commit
  /// only; memoised so each local node costs one real push ever.
  StackId translate(StackId W, StackStore &Real) {
    if (W < BaseSize)
      return W;
    uint32_t L = W - BaseSize;
    if (Memo[L] != UINT32_MAX)
      return Memo[L];
    StackId R = Real.push(translate(Nodes[L].Rest, Real), Nodes[L].Top);
    Memo[L] = R;
    return R;
  }

private:
  struct Node {
    Sym Top;
    StackId Rest;
  };

  const StackStore *Base = nullptr;
  uint32_t BaseSize = 0;
  std::vector<Node> Nodes;          // Local node ids: BaseSize + index.
  std::vector<StackId> Memo;        // Local node -> real id (commit).
  FlatMap<uint64_t, StackId> Intern;
};

/// Writes the state row [q, w1..wn] of \p S (support/StateRows.h) into
/// \p Row, which holds 1 + S.Stacks.size() words, interning every stack
/// into \p Store.
inline void packRow(const GlobalState &S, StackStore &Store, uint32_t *Row) {
  Row[0] = S.Q;
  for (size_t I = 0; I < S.Stacks.size(); ++I)
    Row[1 + I] = Store.intern(S.Stacks[I]);
}

/// Rebuilds the explicit GlobalState named by the \p NumThreads-thread
/// state row \p Row.
inline GlobalState unpackRow(const uint32_t *Row, unsigned NumThreads,
                             const StackStore &Store) {
  GlobalState S;
  S.Q = Row[0];
  S.Stacks.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    S.Stacks.push_back(Store.materialise(Row[1 + I]));
  return S;
}

} // namespace cuba

#endif // CUBA_PDS_STACKSTORE_H
