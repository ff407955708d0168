//===-- fa/Canonicalize.cpp - Direct NFA canonicalization -----------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "fa/Canonicalize.h"

#include <algorithm>
#include <cassert>

#include "fa/SubsetInterner.h"

using namespace cuba;

bool cuba::fa_testing::InjectMinimizeUnderRefine = false;

namespace {

/// The fused canonicalizer; one instance per call, all phases sharing
/// the subset arena.
class Canonicalizer {
public:
  Canonicalizer(const Nfa &A, const std::vector<uint32_t> &Roots,
                const std::vector<uint8_t> *Accepting = nullptr)
      : A(A), Accepting(Accepting), NumSymbols(A.numSymbols()),
        NStates(A.numStates()), Mark(NStates, 0),
        Intern(NStates ? NStates / 2 + 1 : 1), BySym(NumSymbols + 1) {
    Work.reserve(NStates);
    Cur.assign(Roots.begin(), Roots.end());
  }

  CanonicalDfa run() {
    buildSubsets();
    CanonicalDfa C;
    C.NumSymbols = NumSymbols;
    if (!trim())
      return C; // Start cannot reach acceptance: the empty language.
    seedPartition();
    refine();
    renumber(C);
    return C;
  }

private:
  /// Epsilon-closes \p States in place (deduplicating the input), then
  /// sorts: the canonical subset key (the set Nfa::epsilonClosure
  /// returns, without its per-call allocation).
  void close(std::vector<uint32_t> &States) {
    ++Epoch;
    size_t Keep = 0;
    Work.clear();
    for (uint32_t S : States) {
      if (Mark[S] == Epoch)
        continue;
      Mark[S] = Epoch;
      States[Keep++] = S;
      Work.push_back(S);
    }
    States.resize(Keep);
    while (!Work.empty()) {
      uint32_t S = Work.back();
      Work.pop_back();
      for (const Nfa::Edge &E : A.edgesFrom(S)) {
        if (E.Label != EpsSym || Mark[E.To] == Epoch)
          continue;
        Mark[E.To] = Epoch;
        States.push_back(E.To);
        Work.push_back(E.To);
      }
    }
    std::sort(States.begin(), States.end());
  }

  uint8_t subsetAccepts(uint32_t Id) const {
    for (const uint32_t *P = Intern.begin(Id), *E = Intern.end(Id); P != E;
         ++P)
      if (Accepting ? (*Accepting)[*P] : A.isAccepting(*P))
        return 1;
    return 0;
  }

  /// Sparse subset construction: only non-empty successor subsets exist
  /// (missing row entries are the implicit dead sink), rows are sorted
  /// by symbol.
  void buildSubsets() {
    close(Cur);
    Intern.intern(Cur);
    Acc.push_back(subsetAccepts(0));
    RowOff.push_back(0);

    std::vector<Sym> Touched;
    std::vector<uint32_t> Next;
    for (uint32_t Row = 0; Row < Intern.numSubsets(); ++Row) {
      for (const uint32_t *P = Intern.begin(Row), *E = Intern.end(Row);
           P != E; ++P) {
        for (const Nfa::Edge &Ed : A.edgesFrom(*P)) {
          if (Ed.Label == EpsSym)
            continue;
          std::vector<uint32_t> &B = BySym[Ed.Label];
          if (B.empty())
            Touched.push_back(Ed.Label);
          B.push_back(Ed.To);
        }
      }
      std::sort(Touched.begin(), Touched.end());
      for (Sym X : Touched) {
        std::vector<uint32_t> &B = BySym[X];
        Next.assign(B.begin(), B.end());
        B.clear();
        close(Next);
        auto [Id, New] = Intern.intern(Next);
        if (New)
          Acc.push_back(subsetAccepts(Id));
        RowSym.push_back(X);
        RowTo.push_back(Id);
      }
      Touched.clear();
      RowOff.push_back(static_cast<uint32_t>(RowSym.size()));
    }
  }

  /// Co-accessibility over the subset graph; compacts the alive states
  /// and their alive-to-alive edges into the trimmed CSR (TOff / TSym /
  /// TTo).  Returns false when the start subset is dead.
  bool trim() {
    uint32_t N = Intern.numSubsets();
    std::vector<uint32_t> RevOff(N + 1, 0), RevDat(RowTo.size());
    for (uint32_t T : RowTo)
      ++RevOff[T + 1];
    for (uint32_t S = 0; S < N; ++S)
      RevOff[S + 1] += RevOff[S];
    {
      std::vector<uint32_t> Cursor(RevOff.begin(), RevOff.end() - 1);
      for (uint32_t S = 0; S < N; ++S)
        for (uint32_t I = RowOff[S]; I < RowOff[S + 1]; ++I)
          RevDat[Cursor[RowTo[I]]++] = S;
    }
    std::vector<uint8_t> Alive(N, 0);
    Work.clear();
    for (uint32_t S = 0; S < N; ++S) {
      if (Acc[S]) {
        Alive[S] = 1;
        Work.push_back(S);
      }
    }
    while (!Work.empty()) {
      uint32_t S = Work.back();
      Work.pop_back();
      for (uint32_t I = RevOff[S]; I < RevOff[S + 1]; ++I) {
        uint32_t P = RevDat[I];
        if (Alive[P])
          continue;
        Alive[P] = 1;
        Work.push_back(P);
      }
    }
    if (!Alive[0])
      return false;

    AliveId.assign(N, UINT32_MAX);
    for (uint32_t S = 0; S < N; ++S)
      if (Alive[S])
        AliveId[S] = NAlive++;
    TOff.reserve(NAlive + 1);
    TOff.push_back(0);
    TAcc.reserve(NAlive);
    for (uint32_t S = 0; S < N; ++S) {
      if (!Alive[S])
        continue;
      for (uint32_t I = RowOff[S]; I < RowOff[S + 1]; ++I) {
        if (!Alive[RowTo[I]])
          continue;
        TSym.push_back(RowSym[I]);
        TTo.push_back(AliveId[RowTo[I]]);
      }
      TOff.push_back(static_cast<uint32_t>(TSym.size()));
      TAcc.push_back(Acc[S]);
    }
    return true;
  }

  /// Initial partition: group by (acceptance, defined-symbol-set)
  /// signature -- sound on a trimmed partial automaton (see the header)
  /// and what makes every block definedness-homogeneous, so refinement
  /// never needs the implicit dead block as a splitter.
  void seedPartition() {
    detail::SubsetInterner Sigs(4);
    std::vector<uint32_t> Sig;
    Class.resize(NAlive);
    for (uint32_t S = 0; S < NAlive; ++S) {
      Sig.clear();
      Sig.push_back(TAcc[S]);
      // The under-refinement mutation collapses the seed to the
      // acceptance split alone (and refine() then never runs), which
      // is what the reference comparison and the differential oracle's
      // sensitivity checks must catch.
      if (!fa_testing::InjectMinimizeUnderRefine)
        for (uint32_t I = TOff[S]; I < TOff[S + 1]; ++I)
          Sig.push_back(TSym[I]);
      Class[S] = Sigs.intern(Sig).first;
    }
    uint32_t NumBlocks = Sigs.numSubsets();
    // Counted fill: block B spans [Count[B], Count[B+1]) after the
    // prefix sum.
    std::vector<uint32_t> Count(NumBlocks + 1, 0);
    for (uint32_t S = 0; S < NAlive; ++S)
      ++Count[Class[S] + 1];
    for (uint32_t B = 1; B <= NumBlocks; ++B)
      Count[B] += Count[B - 1];
    StateAt.resize(NAlive);
    PosOf.resize(NAlive);
    {
      std::vector<uint32_t> Cursor(Count.begin(), Count.end() - 1);
      for (uint32_t S = 0; S < NAlive; ++S) {
        uint32_t P = Cursor[Class[S]]++;
        StateAt[P] = S;
        PosOf[S] = P;
      }
    }
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      BlockLo.push_back(Count[B]);
      BlockHi.push_back(Count[B + 1]);
      Marked.push_back(0);
      InWork.push_back(1);
      WorkBlocks.push_back(B);
    }
  }

  /// Hopcroft refinement on the trimmed sparse graph: splitters pull
  /// their incoming defined transitions, bucketed by symbol, and mark
  /// preimages to the front of their block spans by swap; the smaller
  /// half of every split re-enters the worklist, giving the
  /// O(|Sigma| n log n) bound.
  void refine() {
    // Per-state incoming defined transitions: (pred, symbol) pairs.
    std::vector<uint32_t> RevOff(NAlive + 1, 0);
    std::vector<uint32_t> RevPred(TTo.size());
    std::vector<Sym> RevSym(TTo.size());
    for (uint32_t T : TTo)
      ++RevOff[T + 1];
    for (uint32_t S = 0; S < NAlive; ++S)
      RevOff[S + 1] += RevOff[S];
    {
      std::vector<uint32_t> Cursor(RevOff.begin(), RevOff.end() - 1);
      for (uint32_t S = 0; S < NAlive; ++S)
        for (uint32_t I = TOff[S]; I < TOff[S + 1]; ++I) {
          uint32_t C = Cursor[TTo[I]]++;
          RevPred[C] = S;
          RevSym[C] = TSym[I];
        }
    }

    if (fa_testing::InjectMinimizeUnderRefine)
      WorkBlocks.clear(); // Simulated bug: never refine past acceptance.

    std::vector<uint32_t> Splitter;
    std::vector<Sym> TouchedSyms;
    std::vector<uint32_t> TouchedBlocks;
    while (!WorkBlocks.empty()) {
      uint32_t C = WorkBlocks.back();
      WorkBlocks.pop_back();
      InWork[C] = 0;
      Splitter.assign(StateAt.begin() + BlockLo[C],
                      StateAt.begin() + BlockHi[C]);
      // Bucket the splitter's incoming transitions by symbol.
      for (uint32_t T : Splitter) {
        for (uint32_t I = RevOff[T]; I < RevOff[T + 1]; ++I) {
          std::vector<uint32_t> &B = BySym[RevSym[I]];
          if (B.empty())
            TouchedSyms.push_back(RevSym[I]);
          B.push_back(RevPred[I]);
        }
      }
      for (Sym X : TouchedSyms) {
        std::vector<uint32_t> &Pre = BySym[X];
        for (uint32_t P : Pre) {
          uint32_t B = Class[P];
          uint32_t MarkPos = BlockLo[B] + Marked[B];
          uint32_t Pos = PosOf[P];
          if (Pos < MarkPos)
            continue; // Already marked (multiple edges into C).
          uint32_t Other = StateAt[MarkPos];
          StateAt[MarkPos] = P;
          StateAt[Pos] = Other;
          PosOf[P] = MarkPos;
          PosOf[Other] = Pos;
          if (Marked[B]++ == 0)
            TouchedBlocks.push_back(B);
        }
        Pre.clear();
        for (uint32_t B : TouchedBlocks) {
          uint32_t M = Marked[B];
          Marked[B] = 0;
          uint32_t Size = BlockHi[B] - BlockLo[B];
          if (M == Size)
            continue; // The whole block maps into the splitter.
          uint32_t NewB = static_cast<uint32_t>(BlockLo.size());
          BlockLo.push_back(BlockLo[B]);
          BlockHi.push_back(BlockLo[B] + M);
          Marked.push_back(0);
          InWork.push_back(0);
          BlockLo[B] += M;
          for (uint32_t P = BlockLo[NewB]; P < BlockHi[NewB]; ++P)
            Class[StateAt[P]] = NewB;
          if (InWork[B]) {
            InWork[NewB] = 1;
            WorkBlocks.push_back(NewB);
          } else {
            uint32_t Push = M <= Size - M ? NewB : B;
            InWork[Push] = 1;
            WorkBlocks.push_back(Push);
          }
        }
        TouchedBlocks.clear();
      }
      TouchedSyms.clear();
    }
  }

  /// Canonical BFS renumbering from the start class, exploring defined
  /// symbols in increasing order (rows are symbol-sorted); unique for a
  /// trimmed minimal automaton, so structural equality of the output is
  /// language equality.
  void renumber(CanonicalDfa &C) const {
    std::vector<uint32_t> NewId(BlockLo.size(), CanonicalDfa::NoState);
    std::vector<uint32_t> Order; // Representative state per output id.
    Order.reserve(BlockLo.size());
    uint32_t StartClass = Class[AliveId[0]];
    NewId[StartClass] = 0;
    Order.push_back(AliveId[0]);
    for (size_t Head = 0; Head < Order.size(); ++Head) {
      uint32_t S = Order[Head];
      for (uint32_t I = TOff[S]; I < TOff[S + 1]; ++I) {
        uint32_t ToClass = Class[TTo[I]];
        if (NewId[ToClass] != CanonicalDfa::NoState)
          continue;
        NewId[ToClass] = static_cast<uint32_t>(Order.size());
        Order.push_back(TTo[I]);
      }
    }
    uint32_t NumClasses = static_cast<uint32_t>(Order.size());
    C.Start = 0;
    C.Table.assign(static_cast<size_t>(NumClasses) * NumSymbols,
                   CanonicalDfa::NoState);
    C.Accepting.assign(NumClasses, 0);
    for (uint32_t Id = 0; Id < NumClasses; ++Id) {
      uint32_t S = Order[Id];
      C.Accepting[Id] = TAcc[S];
      for (uint32_t I = TOff[S]; I < TOff[S + 1]; ++I)
        C.Table[static_cast<size_t>(Id) * NumSymbols + (TSym[I] - 1)] =
            NewId[Class[TTo[I]]];
    }
  }

  const Nfa &A;
  const std::vector<uint8_t> *Accepting; // Overrides A's flags when set.
  const uint32_t NumSymbols;
  const uint32_t NStates;

  // Closure scratch.
  std::vector<uint32_t> Mark;
  uint32_t Epoch = 0;
  std::vector<uint32_t> Work, Cur;

  // Subset arena: sparse symbol-sorted rows in a CSR (RowOff / RowSym /
  // RowTo) plus per-subset acceptance.
  detail::SubsetInterner Intern;
  std::vector<uint8_t> Acc;
  std::vector<uint32_t> RowOff, RowTo;
  std::vector<Sym> RowSym;
  std::vector<std::vector<uint32_t>> BySym; // Shared per-symbol buckets.

  // Trimmed automaton (dense alive ids).
  std::vector<uint32_t> AliveId;
  uint32_t NAlive = 0;
  std::vector<uint32_t> TOff, TTo;
  std::vector<Sym> TSym;
  std::vector<uint8_t> TAcc;

  // Partition state: StateAt is ordered by block, block B spans
  // [BlockLo[B], BlockHi[B]); Marked[B] counts the states the current
  // splitter swapped to the front of that span.
  std::vector<uint32_t> Class, StateAt, PosOf;
  std::vector<uint32_t> BlockLo, BlockHi, Marked;
  std::vector<uint8_t> InWork;
  std::vector<uint32_t> WorkBlocks;
};

} // namespace

CanonicalDfa cuba::canonicalizeNfa(const Nfa &A,
                                   const std::vector<uint32_t> &Roots) {
  return Canonicalizer(A, Roots).run();
}

CanonicalDfa cuba::canonicalizeNfa(const Nfa &A,
                                   const std::vector<uint32_t> &Roots,
                                   const std::vector<uint8_t> &Accepting) {
  assert(Accepting.size() == A.numStates() && "one flag per state");
  return Canonicalizer(A, Roots, &Accepting).run();
}

CanonicalDfa cuba::canonicalizeNfa(const Nfa &A) {
  std::vector<uint32_t> Roots;
  for (uint32_t S = 0; S < A.numStates(); ++S)
    if (A.isInitial(S))
      Roots.push_back(S);
  return Canonicalizer(A, Roots).run();
}
