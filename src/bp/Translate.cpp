//===-- bp/Translate.cpp - Boolean program to CPDS -------------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "bp/Translate.h"

#include <bit>
#include <iterator>
#include <optional>
#include <unordered_map>

#include "bp/Parser.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
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

/// Marks in \p Used the shared slots \p E reads.
void markReads(const Expr &E, std::vector<uint8_t> &Used) {
  if (E.Kind == ExprKind::Var && E.VarIsShared)
    Used[E.VarSlot] = 1;
  if (E.Lhs)
    markReads(*E.Lhs, Used);
  if (E.Rhs)
    markReads(*E.Rhs, Used);
}

/// Marks in \p Used the shared slots a statement of \p Body reads or
/// writes.  Taint annotations neither read nor write: they are control
/// no-ops whose fact bits, when folded, are separate from the value
/// bits.
void markUsedShared(const std::vector<StmtPtr> &Body,
                    std::vector<uint8_t> &Used) {
  for (const StmtPtr &SP : Body) {
    const Stmt &S = *SP;
    for (const Expr *E : {S.Cond.get(), S.Constrain.get(), S.RetValue.get()})
      if (E)
        markReads(*E, Used);
    for (const ExprPtr &E : S.AssignValues)
      markReads(*E, Used);
    for (const ExprPtr &E : S.CallArgs)
      markReads(*E, Used);
    for (size_t I = 0; I < S.TargetSlots.size(); ++I)
      if (S.TargetIsShared[I])
        Used[S.TargetSlots[I]] = 1;
    markUsedShared(S.Body, Used);
    markUsedShared(S.ElseBody, Used);
  }
}

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

/// One flattened function and its slice of the frame-key space: frame
/// (pc, locals) has key Base + (pc << LocalBits) + locals.
struct FuncSlot {
  FlatFunction Flat;
  size_t Base = 0;
  unsigned LocalBits = 0;
};

/// A stack frame: function (index into the Emitter's Funcs), program
/// point and local valuation.
struct Frame {
  unsigned Func;
  unsigned Pc;
  uint32_t Locals;
};

/// Bound on the (frame, shared valuation) pairs summed over threads:
/// each is one rule slot, a source (q, frame) the emitter evaluates.
constexpr uint64_t MaxRuleSlots = 4'000'000;
/// The saturations pack symbol ids, the bottom marker one past the
/// alphabet included, into 21-bit fields.
constexpr uint64_t MaxAlphabet = 1u << 21;

/// The CPDS emission context.
class Emitter {
public:
  Emitter(const Program &P, const SemaInfo &Info,
          const TranslateOptions &Opts)
      : P(P), Info(Info), Opts(Opts) {}

  ErrorOr<CpdsFile> run() {
    // A declared variable gets a bit only when some statement reads or
    // writes it: any other one is 0 in every reachable state (all bits
    // start at 0), so its bit would only duplicate each state.  Kept
    // bits follow declaration order; hidden bits follow them.
    std::vector<uint8_t> Used(P.SharedVars.size(), 0);
    for (const Function &F : P.Functions)
      if (F.Name != "main")
        markUsedShared(F.Body, Used);
    SharedBit.assign(P.SharedVars.size(), -1);
    for (size_t V = 0; V < Used.size(); ++V)
      if (Used[V])
        SharedBit[V] = static_cast<int>(SharedBitCount++);
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
    // unfolded translation's control state (the projection the
    // dataflow oracle relies on).
    FoldBitBase = static_cast<int>(SharedBitCount);
    assert(std::bit_width(Opts.FoldTaint) <= Info.TaintFacts.size() &&
           "folding a fact the program does not have");
    SharedBitCount += static_cast<unsigned>(std::popcount(Opts.FoldTaint));
    if (Opts.Taint) {
      Opts.Taint->FactNames = Info.TaintFacts;
      Opts.Taint->SharedBits = static_cast<unsigned>(FoldBitBase);
    }

    size_t Base = 0;
    for (const Function &F : P.Functions) {
      if (F.Name == "main")
        continue;
      auto R = Flattener(F).run();
      if (!R)
        return R.error();
      unsigned LocalBits = static_cast<unsigned>(F.AllLocals.size());
      FuncIndex.emplace(F.Name, static_cast<unsigned>(Funcs.size()));
      Funcs.push_back({R.take(), Base, LocalBits});
      Base += Funcs.back().Flat.Ops.size() << LocalBits;
    }

    // Every thread reaches its entry frame, so threads x 2^bits rule
    // slots is an exact floor of the reached count: refuse here, before
    // 2^bits is computed or a single shared state built.
    uint64_t Threads = P.ThreadEntries.size();
    if (SharedBitCount >= 32 || (Threads << SharedBitCount) > MaxRuleSlots)
      return Error("translated system would be too large (" +
                   std::to_string(Threads) + " threads x 2^" +
                   std::to_string(SharedBitCount) +
                   " shared valuations exceed " +
                   std::to_string(MaxRuleSlots) +
                   " rule slots); reduce the number of shared variables "
                   "or threads");
    NumShared = 1u << SharedBitCount;

    // One entry per possible frame: 4 bytes x pcs x 2^locals, at most
    // 4 KiB per statement under Sema's 10-local limit.
    FrameTable.assign(Base, EpsSym);

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
  void buildSharedStates() {
    for (uint32_t V = 0; V < NumShared; ++V) {
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
      return BoolSet::of(E.VarIsShared ? bit(Q, SharedBit[E.VarSlot])
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

  /// The frame table entry of (\p Fn, \p Pc, \p Locals).
  Sym &frameSlot(unsigned Fn, unsigned Pc, uint32_t Locals) {
    const FuncSlot &F = Funcs[Fn];
    assert(Pc < F.Flat.Ops.size() && Locals < (1u << F.LocalBits) &&
           "frame outside its function");
    return FrameTable[F.Base + (static_cast<size_t>(Pc) << F.LocalBits) +
                      Locals];
  }

  /// Stack symbol of frame (\p Fn, \p Pc, \p Locals) in the current
  /// thread's alphabet.  A frame seen for the first time takes the next
  /// id and joins the thread's worklist, so ids follow discovery order.
  Sym frameSym(unsigned Fn, unsigned Pc, uint32_t Locals) {
    Sym &S = frameSlot(Fn, Pc, Locals);
    if (S == EpsSym) {
      Frames.push_back({Fn, Pc, Locals});
      S = static_cast<Sym>(Frames.size());
      chargeFrame();
    }
    return S;
  }

  std::string frameName(const Frame &Fr) const {
    const FuncSlot &F = Funcs[Fr.Func];
    std::string Name = F.Flat.F->Name + "." + std::to_string(Fr.Pc);
    if (F.LocalBits) {
      Name += ".";
      for (unsigned B = 0; B < F.LocalBits; ++B)
        Name += (Fr.Locals >> B) & 1 ? '1' : '0';
    }
    return Name;
  }

  /// Charges the frame just reached against the size limits.  The first
  /// breach is kept; buildThread reports it once the frame being
  /// emitted is done.
  void chargeFrame() {
    RuleSlots += NumShared;
    if (Refusal)
      return;
    if (RuleSlots > MaxRuleSlots)
      Refusal = Error("translated system would be too large (" +
                      std::to_string(RuleSlots) +
                      " rule slots reached); reduce the number of "
                      "variables");
    else if (Frames.size() + 1 >= MaxAlphabet)
      Refusal = Error("thread " + CurName + ": alphabet too large (" +
                      std::to_string(Frames.size()) +
                      " frame symbols plus the bottom marker reach the 2^21 "
                      "limit of the saturations); reduce the number of "
                      "locals or statements");
  }

  /// Emits thread \p T: a worklist of frames seeded with the entry
  /// frame, each popped frame's rules over every shared valuation.
  ErrorOr<void> buildThread(unsigned T) {
    const std::string &Entry = P.ThreadEntries[T];
    // '.' rather than '#': the thread name must survive the .cpds text
    // format, where '#' starts a comment (--emit-cpds output re-parses).
    CurName = Entry + "." + std::to_string(T + 1);
    unsigned Idx = File.System.addThread(CurName);
    assert(Idx == T && "thread indices must align with entries");
    (void)Idx;
    Cur = &File.System.thread(T);
    Frames.clear();
    for (size_t R = 0; R < std::size(RuleNames); ++R)
      RuleLabels[R] = Cur->internLabel(RuleNames[R]);

    Sym EntrySym = frameSym(FuncIndex.at(Entry), 0, 0);
    if (Opts.AllFrames)
      for (unsigned Fn = 0; Fn < Funcs.size(); ++Fn)
        for (unsigned Pc = 0; Pc < Funcs[Fn].Flat.Ops.size(); ++Pc)
          for (uint32_t L = 0; L < (1u << Funcs[Fn].LocalBits); ++L)
            frameSym(Fn, Pc, L);
    for (size_t I = 0; I < Frames.size() && !Refusal; ++I) {
      Frame Fr = Frames[I]; // Emission appends to Frames.
      for (uint32_t Q = 0; Q < NumShared; ++Q)
        emitOp(T, Fr, static_cast<Sym>(I + 1), Q);
    }
    if (Refusal)
      return *Refusal;
    // Name the symbols only now, so a refused program never builds the
    // names, and clear the table entries for the next thread.
    for (const Frame &Fr : Frames) {
      Sym S = Cur->addSymbol(frameName(Fr));
      assert(S == frameSlot(Fr.Func, Fr.Pc, Fr.Locals) && "ids out of order");
      (void)S;
      frameSlot(Fr.Func, Fr.Pc, Fr.Locals) = EpsSym;
    }
    File.System.setInitialStack(T, {EntrySym});
    return {};
  }

  /// Adds a rule to the current thread's delta, unless the testing hook
  /// swallows it.
  void addRule(uint32_t Q, Sym Src, uint32_t Q2, Sym Dst0, Sym Dst1,
               Rule R) {
    if (bp_testing::InjectDropAssignRule && !DroppedAssign &&
        R == Rule::Assign) {
      DroppedAssign = true;
      return;
    }
    Cur->addAction(Action{Q, Src, Q2, Dst0, Dst1,
                          RuleLabels[static_cast<size_t>(R)]});
  }

  /// Emits the rules of frame \p Fr, whose symbol is \p Here, at shared
  /// valuation \p Q.
  void emitOp(unsigned T, const Frame &Fr, Sym Here, uint32_t Q) {
    const FlatOp &Op = Funcs[Fr.Func].Flat.Ops[Fr.Pc];
    unsigned Pc = Fr.Pc;
    uint32_t L = Fr.Locals;
    auto Next = [&](unsigned ToPc, uint32_t L2) {
      return frameSym(Fr.Func, ToPc, L2);
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
      emitAssign(Fr, Op, Q, Here);
      return;
    case FlatOp::K::Call:
      emitCall(Fr, Op, Q, Here);
      return;
    case FlatOp::K::Bind: {
      // x := $ret at the return site of `x := call f(...)`.
      bool Ret = RetBitBase >= 0 && bit(Q, retBit(T));
      bool IsShared = Op.S->TargetIsShared[0];
      int Slot = Op.S->TargetSlots[0];
      uint32_t Q2 = IsShared ? setBit(Q, SharedBit[Slot], Ret) : Q;
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
      emitTaint(T, Op, Q, Here, Next(Pc + 1, L));
      return;
    }
  }

  void emitTaint(unsigned T, const FlatOp &Op, uint32_t Q, Sym Here,
                 Sym NextSym) {
    int Fact = Op.S->TaintSlot;
    Rule Label = Op.S->Kind == StmtKind::Source     ? Rule::Source
                 : Op.S->Kind == StmtKind::Sanitize ? Rule::Sanitize
                                                    : Rule::Sink;
    uint32_t Q2 = Q;
    if ((Opts.FoldTaint >> Fact) & 1) {
      // Folded facts take consecutive bits in fact order.
      int FoldBit = FoldBitBase +
                    std::popcount(Opts.FoldTaint & ((1u << Fact) - 1));
      if (Op.S->Kind == StmtKind::Source)
        Q2 = setBit(Q, FoldBit, true);
      else if (Op.S->Kind == StmtKind::Sanitize)
        Q2 = setBit(Q, FoldBit, false);
    }
    addRule(Q, Here, Q2, NextSym, EpsSym, Label);
    // One sink record per (thread, frame): the emission loop visits
    // each frame once per shared valuation Q.
    if (Opts.Taint && Op.S->Kind == StmtKind::Sink && Q == 0)
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

  void emitAssign(const Frame &Fr, const FlatOp &Op, uint32_t Q, Sym Here) {
    const Stmt &S = *Op.S;
    uint32_t L = Fr.Locals;
    // The parallel assignment applies every chosen value to the
    // pre-state at once.
    forEachChoice(S.AssignValues, Q, L, [&](const std::vector<uint8_t> &V) {
      uint32_t Q2 = Q, L2 = L;
      for (size_t I = 0; I < V.size(); ++I) {
        if (S.TargetIsShared[I])
          Q2 = setBit(Q2, SharedBit[S.TargetSlots[I]], V[I]);
        else
          L2 = setBit(L2, S.TargetSlots[I], V[I]);
      }
      // `constrain e` filters on the post state.
      if (!S.Constrain || evalExpr(*S.Constrain, Q2, L2).Can1)
        addRule(Q, Here, Q2, frameSym(Fr.Func, Fr.Pc + 1, L2), EpsSym,
                Rule::Assign);
    });
  }

  void emitCall(const Frame &Fr, const FlatOp &Op, uint32_t Q, Sym Here) {
    unsigned Callee = FuncIndex.at(Op.S->Callee);
    uint32_t L = Fr.Locals;
    forEachChoice(Op.S->CallArgs, Q, L, [&](const std::vector<uint8_t> &V) {
      uint32_t CalleeLocals = 0;
      for (size_t I = 0; I < V.size(); ++I)
        CalleeLocals = setBit(CalleeLocals, static_cast<int>(I), V[I]);
      Sym EntrySym = frameSym(Callee, 0, CalleeLocals);
      Sym RetSym = frameSym(Fr.Func, Op.Targets[0], L);
      addRule(Q, Here, Q, EntrySym, RetSym, Rule::Call);
    });
  }

  const Program &P;
  const SemaInfo &Info;
  const TranslateOptions &Opts;
  CpdsFile File;
  bool DroppedAssign = false; // bp_testing::InjectDropAssignRule state.
  unsigned SharedBitCount = 0;
  /// Declared shared slot -> its bit of Q, -1 when no statement reads or
  /// writes it.
  std::vector<int> SharedBit;
  int RetBitBase = -1;
  int LockBit = -1;
  int FoldBitBase = 0;
  QState ErrState = 0;
  uint32_t NumShared = 0;
  /// One slot per flattened function, in program order.
  std::vector<FuncSlot> Funcs;
  std::unordered_map<std::string, unsigned> FuncIndex;
  /// Rule slots reached so far, over all threads, and the first size
  /// limit they broke.
  uint64_t RuleSlots = 0;
  std::optional<Error> Refusal;
  /// The thread being emitted: its name and PDS, its frames in id order
  /// (Frames[S - 1] is symbol S; the unemitted tail is the worklist),
  /// their ids by frame key (EpsSym until reached) and its interned rule
  /// labels.
  std::string CurName;
  Pds *Cur = nullptr;
  std::vector<Frame> Frames;
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
  static obs::Counter Frames("bp.frames");
  static obs::Counter Actions("bp.actions");
  obs::ScopedSpan Span("translate", obs::Trace::CatDet);
  auto File = Emitter(P, Info, Opts).run();
  if (!File)
    return File;
  uint64_t NumFrames = 0, NumActions = 0;
  for (unsigned T = 0; T < File->System.numThreads(); ++T) {
    NumFrames += File->System.thread(T).numSymbols();
    NumActions += File->System.thread(T).actions().size();
  }
  Frames += NumFrames;
  Actions += NumActions;
  Span.arg("frames", NumFrames);
  Span.arg("actions", NumActions);
  return File;
}

ErrorOr<CpdsFile> cuba::bp::compileBooleanProgram(std::string_view Source,
                                                  const TranslateOptions &Opts) {
  auto Prog = parseProgram(Source);
  if (!Prog)
    return Prog.error();
  Program P = Prog.take();
  auto Info = analyzeProgram(P);
  if (!Info)
    return Info.error();
  return translateProgram(P, *Info, Opts);
}
