//===-- bp/Translate.cpp - Boolean program to CPDS -------------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "bp/Translate.h"

#include <iterator>
#include <unordered_map>

#include "bp/Parser.h"
#include "support/Unreachable.h"

using namespace cuba;
using namespace cuba::bp;

bool cuba::bp_testing::InjectDropAssignRule = false;

namespace {

/// The set of values an expression can take in one (shared, local)
/// valuation; nondeterminism makes this a set.
struct BoolSet {
  bool Can0 = false;
  bool Can1 = false;

  static BoolSet of(bool V) { return V ? BoolSet{false, true}
                                       : BoolSet{true, false}; }
  static BoolSet both() { return {true, true}; }

  /// The possible values, false first, enumerated in place.
  struct Values {
    bool V[2] = {false, false};
    uint8_t N = 0;
    const bool *begin() const { return V; }
    const bool *end() const { return V + N; }
    size_t size() const { return N; }
    bool operator[](size_t I) const { return V[I]; }
  };

  Values values() const {
    Values R;
    if (Can0)
      R.V[R.N++] = false;
    if (Can1)
      R.V[R.N++] = true;
    return R;
  }
};

/// Applies a binary Boolean operator pointwise over two value sets.
template <typename FnT>
static BoolSet combine(BoolSet A, BoolSet B, FnT Fn) {
  BoolSet R;
  for (bool X : A.values())
    for (bool Y : B.values()) {
      if (Fn(X, Y))
        R.Can1 = true;
      else
        R.Can0 = true;
    }
  return R;
}

/// One flattened operation of a function body.
struct FlatOp {
  enum class K {
    Skip,
    Goto,   ///< Targets: all jump destinations.
    Branch, ///< Cond; Targets[0] on true, Targets[1] on false.
    Assume, ///< Cond must possibly hold.
    Assert, ///< !Cond possibly holding enters err.
    Assign,
    Call,   ///< Targets[0] is the return-site pc.
    Bind,   ///< x := $ret at a call's return site.
    Return,
    Lock,
    Unlock,
    Taint,  ///< source/sanitize/sink; S->Kind says which.
  };
  K Kind = K::Skip;
  std::vector<unsigned> Targets;
  const Stmt *S = nullptr; // Source statement for expressions/slots.
};

struct FlatFunction {
  const Function *F = nullptr;
  std::vector<FlatOp> Ops;
};

/// Flattens structured statements into a pc-indexed op list.
class Flattener {
public:
  explicit Flattener(const Function &F) { Flat.F = &F; }

  ErrorOr<FlatFunction> run() {
    if (auto R = emitBody(Flat.F->Body); !R)
      return R.error();
    // Implicit return at the end of the body (void-style pop; Sema
    // guarantees bool functions return explicitly on used paths).
    append(FlatOp::K::Return, nullptr);
    // Resolve gotos now that every label has a pc.  Synthetic gotos
    // (loop back-edges, if-skips) carry no statement and already have
    // their targets.
    for (FlatOp &Op : Flat.Ops) {
      if (Op.Kind != FlatOp::K::Goto || !Op.S || !Op.Targets.empty())
        continue;
      for (const std::string &L : Op.S->GotoTargets) {
        auto It = LabelPc.find(L);
        if (It == LabelPc.end())
          return Error("unknown label '" + L + "'", Op.S->Line,
                       Op.S->Column);
        Op.Targets.push_back(It->second);
      }
    }
    return std::move(Flat);
  }

private:
  unsigned pc() const { return static_cast<unsigned>(Flat.Ops.size()); }

  FlatOp &append(FlatOp::K K, const Stmt *S) {
    FlatOp Op;
    Op.Kind = K;
    Op.S = S;
    Flat.Ops.push_back(std::move(Op));
    return Flat.Ops.back();
  }

  ErrorOr<void> emitBody(const std::vector<StmtPtr> &Body) {
    for (const StmtPtr &SP : Body)
      if (auto R = emitStmt(*SP); !R)
        return R.error();
    return {};
  }

  ErrorOr<void> emitStmt(const Stmt &S) {
    if (!S.Label.empty())
      LabelPc[S.Label] = pc();
    switch (S.Kind) {
    case StmtKind::Skip:
      append(FlatOp::K::Skip, &S);
      return {};
    case StmtKind::Goto:
      append(FlatOp::K::Goto, &S); // Targets resolved at the end.
      return {};
    case StmtKind::Assume:
      append(FlatOp::K::Assume, &S);
      return {};
    case StmtKind::Assert:
      append(FlatOp::K::Assert, &S);
      return {};
    case StmtKind::Assign:
      append(FlatOp::K::Assign, &S);
      return {};
    case StmtKind::Call: {
      FlatOp &Op = append(FlatOp::K::Call, &S);
      if (!S.CallResult.empty()) {
        Op.Targets = {pc()};
        append(FlatOp::K::Bind, &S);
      } else {
        Op.Targets = {pc()};
        // Return site is simply the next op.
      }
      return {};
    }
    case StmtKind::Return:
      append(FlatOp::K::Return, &S);
      return {};
    case StmtKind::Lock:
      append(FlatOp::K::Lock, &S);
      return {};
    case StmtKind::Unlock:
      append(FlatOp::K::Unlock, &S);
      return {};
    case StmtKind::Atomic: {
      append(FlatOp::K::Lock, &S);
      if (auto R = emitBody(S.Body); !R)
        return R.error();
      append(FlatOp::K::Unlock, &S);
      return {};
    }
    case StmtKind::While: {
      unsigned CondPc = pc();
      FlatOp &Br = append(FlatOp::K::Branch, &S);
      (void)Br;
      if (auto R = emitBody(S.Body); !R)
        return R.error();
      FlatOp &Back = append(FlatOp::K::Goto, nullptr);
      Back.Targets = {CondPc};
      Flat.Ops[CondPc].Targets = {CondPc + 1, pc()};
      return {};
    }
    case StmtKind::If: {
      unsigned CondPc = pc();
      append(FlatOp::K::Branch, &S);
      if (auto R = emitBody(S.Body); !R)
        return R.error();
      if (S.ElseBody.empty()) {
        Flat.Ops[CondPc].Targets = {CondPc + 1, pc()};
        return {};
      }
      FlatOp &Skip = append(FlatOp::K::Goto, nullptr);
      unsigned SkipPc = pc() - 1;
      Flat.Ops[CondPc].Targets = {CondPc + 1, pc()};
      if (auto R = emitBody(S.ElseBody); !R)
        return R.error();
      Flat.Ops[SkipPc].Targets = {pc()};
      (void)Skip;
      return {};
    }
    case StmtKind::Source:
    case StmtKind::Sanitize:
    case StmtKind::Sink:
      append(FlatOp::K::Taint, &S);
      return {};
    case StmtKind::ThreadCreate:
      // Only occurs in main, which is never flattened.
      cuba_unreachable("thread_create survived Sema outside main");
    }
    return {};
  }

  FlatFunction Flat;
  std::unordered_map<std::string, unsigned> LabelPc;
};

/// The rule labels the translation emits, in RuleNames order.
enum class Rule : uint8_t {
  Skip, Goto, Br1, Br0, Assume, AssertOk, AssertFail, Assign,
  Bind, Ret, Lock, Unlock, Source, Sanitize, Sink, Call
};
constexpr const char *RuleNames[] = {
    "skip",   "goto",      "br1",         "br0",
    "assume", "assert-ok", "assert-fail", "assign",
    "bind",   "ret",       "lock",        "unlock",
    "source", "sanitize",  "sink",        "call",
};
static_assert(std::size(RuleNames) == static_cast<size_t>(Rule::Call) + 1,
              "one name per rule label");

/// One flattened function's slice of a thread's frame-symbol table:
/// frame (pc, locals) sits at Base + (pc << LocalBits) + locals.
struct FuncSlot {
  const FlatFunction *Flat;
  const std::string *Name;
  size_t Base;
  unsigned LocalBits;
};

/// The CPDS emission context.
class Emitter {
public:
  Emitter(const Program &P, const SemaInfo &Info,
          const TranslateOptions &Opts)
      : P(P), Info(Info), Opts(Opts) {}

  ErrorOr<CpdsFile> run() {
    // Hidden shared bits follow the declared variables.
    SharedBitCount = static_cast<unsigned>(P.SharedVars.size());
    // $ret must be one bit PER THREAD: a pop rule can only write the
    // (global) control state, so a single shared bit would let thread
    // B's return clobber thread A's value between A's `ret` and the
    // `bind` at its call's return site -- a cross-thread race on a
    // thread-local quantity, observed as bogus counterexamples in
    // multi-threaded programs that bind call results.
    RetBitBase = Info.UsesReturnValue ? static_cast<int>(SharedBitCount) : -1;
    if (Info.UsesReturnValue)
      SharedBitCount += static_cast<unsigned>(P.ThreadEntries.size());
    LockBit = Info.UsesLock ? static_cast<int>(SharedBitCount++) : -1;
    // Folded taint bits sit ABOVE every hidden bit, so the low
    // FoldBitBase bits of a folded control state are exactly the
    // weighted translation's control state (the projection the
    // dataflow oracle relies on).
    FoldBitBase = static_cast<int>(SharedBitCount);
    if (Opts.FoldTaint)
      SharedBitCount += static_cast<unsigned>(Info.TaintFacts.size());
    if (Opts.Taint) {
      Opts.Taint->FactNames = Info.TaintFacts;
      Opts.Taint->SharedBits = static_cast<unsigned>(FoldBitBase);
    }

    for (const Function &F : P.Functions) {
      if (F.Name == "main")
        continue;
      Flattener Fl(F);
      auto R = Fl.run();
      if (!R)
        return R.error();
      Flats.emplace(F.Name, R.take());
    }

    if (auto R = checkSize(); !R)
      return R.error();
    indexFunctions();
    buildSharedStates();
    for (size_t T = 0; T < P.ThreadEntries.size(); ++T)
      if (auto R = buildThread(static_cast<unsigned>(T)); !R)
        return R.error();

    File.System.setInitialShared(0); // All bits zero.
    VisiblePattern Bad;
    Bad.Q = ErrState;
    Bad.Tops.assign(P.ThreadEntries.size(), std::nullopt);
    File.Property.addBadPattern(std::move(Bad));
    if (auto R = File.System.freeze(); !R)
      return R.error();
    return std::move(File);
  }

private:
  ErrorOr<void> checkSize() {
    uint64_t NumShared = 1ull << SharedBitCount;
    uint64_t Rules = 0;
    for (auto &[Name, Flat] : Flats) {
      uint64_t Locals = 1ull << Flat.F->AllLocals.size();
      Rules += Flat.Ops.size() * Locals * NumShared;
    }
    Rules *= P.ThreadEntries.size();
    if (Rules > 4'000'000)
      return Error("translated system would be too large (" +
                   std::to_string(Rules) + " rule slots); reduce the "
                   "number of variables");
    // Every thread's alphabet is one symbol per (function, pc, locals)
    // frame.  The saturations pack symbol ids, the bottom marker one past
    // the alphabet included, into 21-bit fields.
    uint64_t Frames = 0;
    for (auto &[Name, Flat] : Flats)
      Frames += Flat.Ops.size() << Flat.F->AllLocals.size();
    if (!P.ThreadEntries.empty() && Frames + 1 >= (1u << 21))
      return Error("thread " + P.ThreadEntries[0] +
                   ".1: alphabet too large (" + std::to_string(Frames) +
                   " frame symbols plus the bottom marker reach the 2^21 "
                   "limit of the saturations); reduce the number of locals "
                   "or statements");
    return {};
  }

  void buildSharedStates() {
    unsigned N = 1u << SharedBitCount;
    for (unsigned V = 0; V < N; ++V) {
      std::string Name = "b";
      for (unsigned B = 0; B < SharedBitCount; ++B)
        Name += (V >> B) & 1 ? '1' : '0';
      if (SharedBitCount == 0)
        Name = "b.";
      File.System.addSharedState(Name);
    }
    ErrState = File.System.addSharedState("err");
  }

  /// Thread \p T's private $ret bit.
  int retBit(unsigned T) const {
    return RetBitBase + static_cast<int>(T);
  }

  static bool bit(uint32_t Bits, int Slot) {
    return (Bits >> Slot) & 1;
  }
  static uint32_t setBit(uint32_t Bits, int Slot, bool V) {
    return V ? Bits | (1u << Slot) : Bits & ~(1u << Slot);
  }

  BoolSet evalExpr(const Expr &E, uint32_t Q, uint32_t L) const {
    switch (E.Kind) {
    case ExprKind::Const:
      return BoolSet::of(E.ConstValue);
    case ExprKind::Nondet:
      return BoolSet::both();
    case ExprKind::Var:
      return BoolSet::of(E.VarIsShared ? bit(Q, E.VarSlot)
                                       : bit(L, E.VarSlot));
    case ExprKind::Not: {
      BoolSet A = evalExpr(*E.Lhs, Q, L);
      return {A.Can1, A.Can0};
    }
    case ExprKind::And:
      return combine(evalExpr(*E.Lhs, Q, L), evalExpr(*E.Rhs, Q, L),
                     [](bool A, bool B) { return A && B; });
    case ExprKind::Or:
      return combine(evalExpr(*E.Lhs, Q, L), evalExpr(*E.Rhs, Q, L),
                     [](bool A, bool B) { return A || B; });
    case ExprKind::Xor:
      return combine(evalExpr(*E.Lhs, Q, L), evalExpr(*E.Rhs, Q, L),
                     [](bool A, bool B) { return A != B; });
    case ExprKind::Eq:
      return combine(evalExpr(*E.Lhs, Q, L), evalExpr(*E.Rhs, Q, L),
                     [](bool A, bool B) { return A == B; });
    case ExprKind::Neq:
      return combine(evalExpr(*E.Lhs, Q, L), evalExpr(*E.Rhs, Q, L),
                     [](bool A, bool B) { return A != B; });
    }
    cuba_unreachable("covered switch over ExprKind");
  }

  /// Stack symbol of (\p F, pc, locals) in the current thread's
  /// alphabet, created on first use.
  Sym frameSym(const FuncSlot &F, unsigned Pc, uint32_t Locals) {
    assert(Pc < F.Flat->Ops.size() && Locals < (1u << F.LocalBits) &&
           "frame outside its function");
    Sym &S =
        FrameTable[F.Base + (static_cast<size_t>(Pc) << F.LocalBits) + Locals];
    if (S != EpsSym)
      return S;
    std::string Name = *F.Name + "." + std::to_string(Pc);
    if (F.LocalBits) {
      Name += ".";
      for (unsigned B = 0; B < F.LocalBits; ++B)
        Name += (Locals >> B) & 1 ? '1' : '0';
    }
    S = Cur->addSymbol(std::move(Name));
    return S;
  }

  /// Lays out one FuncSlot per flattened function, in Flats order (the
  /// emission order, which fixes the symbol numbering).
  void indexFunctions() {
    size_t Base = 0;
    for (auto &[Name, Flat] : Flats) {
      unsigned LocalBits = static_cast<unsigned>(Flat.F->AllLocals.size());
      FuncIndex.emplace(Name, static_cast<unsigned>(Funcs.size()));
      Funcs.push_back({&Flat, &Name, Base, LocalBits});
      Base += Flat.Ops.size() << LocalBits;
    }
    NumFrames = Base;
  }

  ErrorOr<void> buildThread(unsigned T) {
    const std::string &Entry = P.ThreadEntries[T];
    // '.' rather than '#': the thread name must survive the .cpds text
    // format, where '#' starts a comment (--emit-cpds output re-parses).
    unsigned Idx = File.System.addThread(Entry + "." + std::to_string(T + 1));
    assert(Idx == T && "thread indices must align with entries");
    (void)Idx;
    Cur = &File.System.thread(T);
    FrameTable.assign(NumFrames, EpsSym);
    for (size_t R = 0; R < std::size(RuleNames); ++R)
      RuleLabels[R] = Cur->internLabel(RuleNames[R]);

    unsigned NumShared = 1u << SharedBitCount;
    for (const FuncSlot &F : Funcs)
      for (unsigned Pc = 0; Pc < F.Flat->Ops.size(); ++Pc)
        for (uint32_t L = 0; L < (1u << F.LocalBits); ++L)
          for (uint32_t Q = 0; Q < NumShared; ++Q)
            emitOp(T, F, Pc, Q, L);
    File.System.setInitialStack(T, {frameSym(func(Entry), 0, 0)});
    return {};
  }

  const FuncSlot &func(const std::string &Name) const {
    return Funcs[FuncIndex.at(Name)];
  }

  /// Returns the new action's index in the current thread's delta, or
  /// UINT32_MAX when the testing hook swallowed it.
  uint32_t addRule(uint32_t Q, Sym Src, uint32_t Q2, Sym Dst0, Sym Dst1,
                   Rule R) {
    if (bp_testing::InjectDropAssignRule && !DroppedAssign &&
        R == Rule::Assign) {
      DroppedAssign = true;
      return UINT32_MAX;
    }
    return Cur->addAction(Action{Q, Src, Q2, Dst0, Dst1,
                                 RuleLabels[static_cast<size_t>(R)]});
  }

  void emitOp(unsigned T, const FuncSlot &F, unsigned Pc, uint32_t Q,
              uint32_t L) {
    const FlatOp &Op = F.Flat->Ops[Pc];
    Sym Here = frameSym(F, Pc, L);
    auto Next = [&](unsigned ToPc, uint32_t L2) {
      return frameSym(F, ToPc, L2);
    };

    switch (Op.Kind) {
    case FlatOp::K::Skip:
      addRule(Q, Here, Q, Next(Pc + 1, L), EpsSym, Rule::Skip);
      return;
    case FlatOp::K::Goto:
      for (unsigned To : Op.Targets)
        addRule(Q, Here, Q, Next(To, L), EpsSym, Rule::Goto);
      return;
    case FlatOp::K::Branch: {
      BoolSet V = evalExpr(*Op.S->Cond, Q, L);
      if (V.Can1)
        addRule(Q, Here, Q, Next(Op.Targets[0], L), EpsSym, Rule::Br1);
      if (V.Can0)
        addRule(Q, Here, Q, Next(Op.Targets[1], L), EpsSym, Rule::Br0);
      return;
    }
    case FlatOp::K::Assume: {
      if (evalExpr(*Op.S->Cond, Q, L).Can1)
        addRule(Q, Here, Q, Next(Pc + 1, L), EpsSym, Rule::Assume);
      return;
    }
    case FlatOp::K::Assert: {
      BoolSet V = evalExpr(*Op.S->Cond, Q, L);
      if (V.Can1)
        addRule(Q, Here, Q, Next(Pc + 1, L), EpsSym, Rule::AssertOk);
      if (V.Can0)
        addRule(Q, Here, ErrState, Here, EpsSym, Rule::AssertFail);
      return;
    }
    case FlatOp::K::Assign:
      emitAssign(F, Op, Pc, Q, L, Here);
      return;
    case FlatOp::K::Call:
      emitCall(F, Op, Q, L, Here);
      return;
    case FlatOp::K::Bind: {
      // x := $ret at the return site of `x := call f(...)`.
      bool Ret = RetBitBase >= 0 && bit(Q, retBit(T));
      bool IsShared = Op.S->TargetIsShared[0];
      int Slot = Op.S->TargetSlots[0];
      uint32_t Q2 = IsShared ? setBit(Q, Slot, Ret) : Q;
      uint32_t L2 = IsShared ? L : setBit(L, Slot, Ret);
      addRule(Q, Here, Q2, Next(Pc + 1, L2), EpsSym, Rule::Bind);
      return;
    }
    case FlatOp::K::Return: {
      if (Op.S && Op.S->RetValue) {
        for (bool V : evalExpr(*Op.S->RetValue, Q, L).values())
          addRule(Q, Here, setBit(Q, retBit(T), V), EpsSym, EpsSym,
                  Rule::Ret);
      } else {
        addRule(Q, Here, Q, EpsSym, EpsSym, Rule::Ret);
      }
      return;
    }
    case FlatOp::K::Lock:
      if (LockBit >= 0 && !bit(Q, LockBit))
        addRule(Q, Here, setBit(Q, LockBit, true), Next(Pc + 1, L),
                EpsSym, Rule::Lock);
      return;
    case FlatOp::K::Unlock:
      addRule(Q, Here, setBit(Q, LockBit, false), Next(Pc + 1, L),
              EpsSym, Rule::Unlock);
      return;
    case FlatOp::K::Taint:
      emitTaint(T, Op, Pc, Q, L, Here, Next(Pc + 1, L));
      return;
    }
  }

  void emitTaint(unsigned T, const FlatOp &Op, unsigned Pc, uint32_t Q,
                 uint32_t L, Sym Here, Sym NextSym) {
    (void)Pc;
    (void)L;
    int Fact = Op.S->TaintSlot;
    Rule Label = Op.S->Kind == StmtKind::Source     ? Rule::Source
                 : Op.S->Kind == StmtKind::Sanitize ? Rule::Sanitize
                                                    : Rule::Sink;
    uint32_t Q2 = Q;
    if (Opts.FoldTaint) {
      int FoldBit = FoldBitBase + Fact;
      if (Op.S->Kind == StmtKind::Source)
        Q2 = setBit(Q, FoldBit, true);
      else if (Op.S->Kind == StmtKind::Sanitize)
        Q2 = setBit(Q, FoldBit, false);
    }
    uint32_t AI = addRule(Q, Here, Q2, NextSym, EpsSym, Label);
    if (!Opts.Taint)
      return;
    if (!Opts.FoldTaint && AI != UINT32_MAX &&
        Op.S->Kind != StmtKind::Sink) {
      TaintActionWeight W;
      W.Thread = T;
      W.Action = AI;
      if (Op.S->Kind == StmtKind::Source)
        W.Gen = 1u << Fact;
      else
        W.Kill = 1u << Fact;
      Opts.Taint->Weights.push_back(W);
    }
    // One sink record per (thread, frame): the emission loop revisits
    // this op once per shared valuation Q.
    if (Op.S->Kind == StmtKind::Sink && Q == 0)
      Opts.Taint->Sinks.push_back({T, Here, Fact});
  }

  /// Calls \p Fn once per choice of one value for each of \p Exprs at
  /// (\p Q, \p L) -- nondeterministic expressions contribute both --
  /// with the chosen values in order, the first expression varying
  /// fastest.  The buffers are members, reused across calls, so
  /// emission does not allocate per rule.
  template <typename FnT>
  void forEachChoice(const std::vector<ExprPtr> &Exprs, uint32_t Q,
                     uint32_t L, FnT Fn) {
    size_t N = Exprs.size();
    Choices.resize(N);
    ChoiceIdx.assign(N, 0);
    Chosen.resize(N);
    for (size_t I = 0; I < N; ++I)
      Choices[I] = evalExpr(*Exprs[I], Q, L).values();
    while (true) {
      for (size_t I = 0; I < N; ++I)
        Chosen[I] = Choices[I][ChoiceIdx[I]];
      Fn(Chosen);
      size_t I = 0;
      while (I < N && ++ChoiceIdx[I] == Choices[I].size()) {
        ChoiceIdx[I] = 0;
        ++I;
      }
      if (I == N)
        break;
    }
  }

  void emitAssign(const FuncSlot &F, const FlatOp &Op, unsigned Pc,
                  uint32_t Q, uint32_t L, Sym Here) {
    const Stmt &S = *Op.S;
    // The parallel assignment applies every chosen value to the
    // pre-state at once.
    forEachChoice(S.AssignValues, Q, L, [&](const std::vector<uint8_t> &V) {
      uint32_t Q2 = Q, L2 = L;
      for (size_t I = 0; I < V.size(); ++I) {
        if (S.TargetIsShared[I])
          Q2 = setBit(Q2, S.TargetSlots[I], V[I]);
        else
          L2 = setBit(L2, S.TargetSlots[I], V[I]);
      }
      // `constrain e` filters on the post state.
      if (!S.Constrain || evalExpr(*S.Constrain, Q2, L2).Can1)
        addRule(Q, Here, Q2, frameSym(F, Pc + 1, L2), EpsSym, Rule::Assign);
    });
  }

  void emitCall(const FuncSlot &F, const FlatOp &Op, uint32_t Q, uint32_t L,
                Sym Here) {
    const FuncSlot &Callee = func(Op.S->Callee);
    forEachChoice(Op.S->CallArgs, Q, L, [&](const std::vector<uint8_t> &V) {
      uint32_t CalleeLocals = 0;
      for (size_t I = 0; I < V.size(); ++I)
        CalleeLocals = setBit(CalleeLocals, static_cast<int>(I), V[I]);
      Sym EntrySym = frameSym(Callee, 0, CalleeLocals);
      Sym RetSym = frameSym(F, Op.Targets[0], L);
      addRule(Q, Here, Q, EntrySym, RetSym, Rule::Call);
    });
  }

  const Program &P;
  const SemaInfo &Info;
  const TranslateOptions &Opts;
  CpdsFile File;
  bool DroppedAssign = false; // bp_testing::InjectDropAssignRule state.
  unsigned SharedBitCount = 0;
  int RetBitBase = -1;
  int LockBit = -1;
  int FoldBitBase = 0;
  QState ErrState = 0;
  std::unordered_map<std::string, FlatFunction> Flats;
  /// One slot per flattened function, in emission order.
  std::vector<FuncSlot> Funcs;
  std::unordered_map<std::string, unsigned> FuncIndex;
  size_t NumFrames = 0;
  /// The thread being emitted, its frame symbols (EpsSym until
  /// created) and its interned rule labels.
  Pds *Cur = nullptr;
  std::vector<Sym> FrameTable;
  LabelId RuleLabels[std::size(RuleNames)] = {};
  /// forEachChoice's reusable buffers.
  std::vector<BoolSet::Values> Choices;
  std::vector<size_t> ChoiceIdx;
  std::vector<uint8_t> Chosen;
};

} // namespace

ErrorOr<CpdsFile> cuba::bp::translateProgram(const Program &P,
                                             const SemaInfo &Info,
                                             const TranslateOptions &Opts) {
  Emitter E(P, Info, Opts);
  return E.run();
}

ErrorOr<CpdsFile> cuba::bp::translateProgram(const Program &P,
                                             const SemaInfo &Info) {
  TranslateOptions Opts;
  return translateProgram(P, Info, Opts);
}

ErrorOr<CpdsFile> cuba::bp::compileBooleanProgram(std::string_view Source) {
  auto Prog = parseProgram(Source);
  if (!Prog)
    return Prog.error();
  Program P = Prog.take();
  auto Info = analyzeProgram(P);
  if (!Info)
    return Info.error();
  return translateProgram(P, *Info);
}
