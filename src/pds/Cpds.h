//===-- pds/Cpds.h - Concurrent pushdown systems ----------------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrent pushdown systems (CPDS, Sec. 2.2): a fixed-size asynchronous
/// collection of sequential PDSs sharing the state set Q.  Also defines
/// SafetyProperty, the visible-state reachability properties checked by
/// the CUBA engines (assertions of the original programs).
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_PDS_CPDS_H
#define CUBA_PDS_CPDS_H

#include <optional>
#include <string>
#include <vector>

#include "pds/Pds.h"
#include "pds/StackStore.h"
#include "pds/State.h"
#include "support/ErrorOr.h"
#include "support/SymbolTable.h"

namespace cuba {

/// A concurrent pushdown system.  Built incrementally (shared states,
/// threads, actions, initial state), then frozen once; the verification
/// engines only accept frozen systems.
class Cpds {
public:
  Cpds() = default;

  /// Registers (or finds) the shared state named \p Name.
  QState addSharedState(std::string_view Name) {
    assert(!Frozen && "cannot add shared states after freeze()");
    return SharedNames.intern(Name);
  }

  /// Looks up a shared state by name; UINT32_MAX when unknown.
  QState sharedStateByName(std::string_view Name) const {
    return SharedNames.lookup(Name);
  }

  uint32_t numSharedStates() const { return SharedNames.size(); }

  const std::string &sharedStateName(QState Q) const {
    return SharedNames.name(Q);
  }

  /// Adds a thread (a PDS sharing this system's Q) and returns its index.
  unsigned addThread(std::string Name);

  unsigned numThreads() const {
    return static_cast<unsigned>(Threads.size());
  }

  Pds &thread(unsigned I) {
    assert(I < Threads.size() && "thread index out of range");
    return Threads[I];
  }
  const Pds &thread(unsigned I) const {
    assert(I < Threads.size() && "thread index out of range");
    return Threads[I];
  }

  const std::string &threadName(unsigned I) const { return ThreadNames[I]; }

  /// Sets the initial shared state; the default is state 0.
  void setInitialShared(QState Q) {
    assert(!Frozen && "cannot change the initial state after freeze()");
    InitShared = Q;
  }

  /// Sets thread \p I's initial stack contents, top-first as written in
  /// the paper (so {1} means a stack holding just symbol 1).  The default
  /// is the empty stack.
  void setInitialStack(unsigned I, std::vector<Sym> TopFirst);

  QState initialShared() const { return InitShared; }

  /// Validates every thread and builds the engine indexes.
  ErrorOr<void> freeze();

  bool frozen() const { return Frozen; }

  /// The initial global state <qI | w1, ..., wn>.
  GlobalState initialState() const;

  /// Appends to \p Out every state reachable from \p S by firing one
  /// enabled action of thread \p I (one CPDS step triggered by thread I;
  /// disabled actions are skipped rather than modelled as no-ops, which
  /// preserves the reachable-state set).
  void threadSuccessors(const GlobalState &S, unsigned I,
                        std::vector<GlobalState> &Out) const;

  /// The interned counterpart of threadSuccessors: calls
  /// \p Emit(action index, q', w') for every enabled action of thread
  /// \p I in shared state \p Q on the interned stack \p W.  Each successor
  /// stack costs O(1) (a pop is a field load; pushes share the untouched
  /// suffix), and the caller patches q' and w' into a copy of the parent
  /// state row.  \p StoreT is StackStore on the serial paths and
  /// StackOverlay in the parallel derive, where workers must not write
  /// the shared arena; the overlay resolves already-interned nodes to
  /// their real ids, so the derivation is identical either way.
  template <typename StoreT, typename EmitFn>
  void threadSteps(QState Q, StackId W, unsigned I, StoreT &Store,
                   EmitFn Emit) const {
    assert(Frozen && "freeze() must run before threadSteps()");
    assert(I < Threads.size() && "thread index out of range");
    const Pds &P = Threads[I];
    for (uint32_t AI : P.actionsFrom(Q, Store.topOf(W))) {
      const Action &A = P.actions()[AI];
      StackId WS = W;
      switch (A.kind()) {
      case ActionKind::Pop:
        WS = Store.pop(W);
        break;
      case ActionKind::Overwrite:
        WS = Store.push(Store.pop(W), A.Dst0);
        break;
      case ActionKind::Push:
        // (q, s) -> (q', r0 r1): s is overwritten by r1, then r0 pushed.
        WS = Store.push(Store.push(Store.pop(W), A.Dst1), A.Dst0);
        break;
      case ActionKind::EmptyChange:
        break;
      case ActionKind::EmptyPush:
        WS = Store.push(W, A.Dst0);
        break;
      }
      Emit(AI, A.DstQ, WS);
    }
  }

  /// Appends to \p Out every visible state reachable from visible state
  /// \p V by one thread-\p I action under the stack-of-size-<=1 cutoff of
  /// Alg. 2.  This is the transition relation of the finite-state
  /// abstraction M_n used to compute Z; see core/ZOverapprox.
  void abstractSuccessors(const VisibleState &V, unsigned I,
                          std::vector<VisibleState> &Out) const;

private:
  SymbolTable SharedNames;
  std::vector<Pds> Threads;
  std::vector<std::string> ThreadNames;
  std::vector<Stack> InitStacks; // Top at back, aligned with Threads.
  QState InitShared = 0;
  bool Frozen = false;
};

/// A pattern over visible states: a shared state (or wildcard) plus a
/// top-of-stack pattern per thread (symbol, epsilon, or wildcard).  The
/// error states of a safety property are given as a set of patterns.
struct VisiblePattern {
  /// Shared state to match; nullopt matches any.
  std::optional<QState> Q;
  /// One entry per thread: the symbol to match (EpsSym for the empty
  /// stack) or nullopt for any.
  std::vector<std::optional<Sym>> Tops;

  bool matches(const VisibleState &V) const {
    if (Q && *Q != V.Q)
      return false;
    assert(Tops.size() == V.Tops.size() && "thread count mismatch");
    for (size_t I = 0; I < Tops.size(); ++I)
      if (Tops[I] && *Tops[I] != V.Tops[I])
        return false;
    return true;
  }
};

/// A safety property C: the program is safe iff no reachable visible
/// state matches any bad pattern.  An empty pattern list is the trivial
/// property "true" (the run then only computes reachability facts).
class SafetyProperty {
public:
  void addBadPattern(VisiblePattern P) { Bad.push_back(std::move(P)); }

  bool violatedBy(const VisibleState &V) const {
    for (const VisiblePattern &P : Bad)
      if (P.matches(V))
        return true;
    return false;
  }

  const std::vector<VisiblePattern> &badPatterns() const { return Bad; }
  bool trivial() const { return Bad.empty(); }

private:
  std::vector<VisiblePattern> Bad;
};

} // namespace cuba

#endif // CUBA_PDS_CPDS_H
