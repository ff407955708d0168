//===-- bp/Translate.cpp - Boolean program to CPDS -------------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "bp/Translate.h"

#include <bit>
#include <charconv>
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

/// What an expression can evaluate to at the 64 shared valuations of
/// one mask word, given the frame's locals: bit i of word W stands for
/// valuation Q = 64W + i.  Nondeterminism sets both bits.
struct Lanes {
  uint64_t C1 = 0; ///< Can be 1.
  uint64_t C0 = 0; ///< Can be 0.

  static Lanes of(bool V) { return V ? Lanes{~0ull, 0} : Lanes{0, ~0ull}; }
  bool can1(uint32_t Q) const { return (C1 >> (Q & 63)) & 1; }
  bool can0(uint32_t Q) const { return (C0 >> (Q & 63)) & 1; }
};

/// Bit \p B of the shared valuations of mask word \p W: the low six bits
/// of Q vary inside a word, the word index fixes the others.
uint64_t sharedLanes(int B, uint32_t W) {
  constexpr uint64_t Low[6] = {0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull,
                               0xf0f0f0f0f0f0f0f0ull, 0xff00ff00ff00ff00ull,
                               0xffff0000ffff0000ull, 0xffffffff00000000ull};
  if (B < 6)
    return Low[B];
  return (W >> (B - 6)) & 1 ? ~0ull : 0;
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
    NumWords = (NumShared + 63) / 64;

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

  /// The lanes of \p E at mask word \p W with locals \p L: the value
  /// sets of every shared valuation of the word at once.
  Lanes evalWord(const Expr &E, uint32_t W, uint32_t L) const {
    switch (E.Kind) {
    case ExprKind::Const:
      return Lanes::of(E.ConstValue);
    case ExprKind::Nondet:
      return {~0ull, ~0ull};
    case ExprKind::Var: {
      if (!E.VarIsShared)
        return Lanes::of(bit(L, E.VarSlot));
      assert(SharedBit[E.VarSlot] >= 0 && "a read variable has a bit");
      uint64_t V = sharedLanes(SharedBit[E.VarSlot], W);
      return {V, ~V};
    }
    case ExprKind::Not: {
      Lanes A = evalWord(*E.Lhs, W, L);
      return {A.C0, A.C1};
    }
    // A binary operator can yield v wherever some pair of operand values
    // does; an operand takes at least one value at every valuation.
    case ExprKind::And: {
      Lanes A = evalWord(*E.Lhs, W, L), B = evalWord(*E.Rhs, W, L);
      return {A.C1 & B.C1, A.C0 | B.C0};
    }
    case ExprKind::Or: {
      Lanes A = evalWord(*E.Lhs, W, L), B = evalWord(*E.Rhs, W, L);
      return {A.C1 | B.C1, A.C0 & B.C0};
    }
    case ExprKind::Xor:
    case ExprKind::Eq:
    case ExprKind::Neq: {
      Lanes A = evalWord(*E.Lhs, W, L), B = evalWord(*E.Rhs, W, L);
      uint64_t Same = (A.C1 & B.C1) | (A.C0 & B.C0);
      uint64_t Differ = (A.C1 & B.C0) | (A.C0 & B.C1);
      return E.Kind == ExprKind::Eq ? Lanes{Same, Differ}
                                    : Lanes{Differ, Same};
    }
    }
    cuba_unreachable("covered switch over ExprKind");
  }

  /// Evaluates \p E with locals \p L at every shared valuation into slot
  /// \p Slot of Masks.
  void evalInto(const Expr &E, uint32_t L, size_t Slot) {
    if (Masks.size() < (Slot + 1) * NumWords)
      Masks.resize((Slot + 1) * NumWords);
    for (uint32_t W = 0; W < NumWords; ++W)
      Masks[Slot * NumWords + W] = evalWord(E, W, L);
  }

  /// The lanes of Masks slot \p Slot that hold valuation \p Q.
  Lanes lanes(size_t Slot, uint32_t Q) const {
    return Masks[Slot * NumWords + (Q >> 6)];
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
    char Pc[16];
    char *PcEnd = std::to_chars(Pc, Pc + sizeof(Pc), Fr.Pc).ptr;
    std::string Name;
    Name.reserve(F.Flat.F->Name.size() + (PcEnd - Pc) + F.LocalBits + 2);
    Name.append(F.Flat.F->Name).append(1, '.').append(Pc, PcEnd);
    if (F.LocalBits) {
      Name += '.';
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
    Cur->reserveLabels(std::size(RuleNames));
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
      emitFrame(T, Fr, static_cast<Sym>(I + 1));
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

  /// Emits the rules of frame \p Fr, whose symbol is \p Here: at each
  /// shared valuation Q in ascending order, its rules in a fixed order.
  /// The op's expressions are evaluated once, as lanes over every Q.  A
  /// rule target's symbol is looked up at the first rule that writes it
  /// and reused after, so frames are discovered in (Q, rule) order.
  void emitFrame(unsigned T, const Frame &Fr, Sym Here) {
    const FlatOp &Op = Funcs[Fr.Func].Flat.Ops[Fr.Pc];
    unsigned Pc = Fr.Pc;
    uint32_t L = Fr.Locals;
    auto Next = [&](Sym &Cached, unsigned ToPc, uint32_t L2) {
      if (Cached == EpsSym)
        Cached = frameSym(Fr.Func, ToPc, L2);
      return Cached;
    };

    switch (Op.Kind) {
    case FlatOp::K::Skip: {
      Sym To = EpsSym;
      for (uint32_t Q = 0; Q < NumShared; ++Q)
        addRule(Q, Here, Q, Next(To, Pc + 1, L), EpsSym, Rule::Skip);
      return;
    }
    case FlatOp::K::Goto:
      for (uint32_t Q = 0; Q < NumShared; ++Q)
        for (unsigned To : Op.Targets)
          addRule(Q, Here, Q, frameSym(Fr.Func, To, L), EpsSym, Rule::Goto);
      return;
    case FlatOp::K::Branch: {
      evalInto(*Op.S->Cond, L, 0);
      Sym To1 = EpsSym, To0 = EpsSym;
      for (uint32_t Q = 0; Q < NumShared; ++Q) {
        Lanes V = lanes(0, Q);
        if (V.can1(Q))
          addRule(Q, Here, Q, Next(To1, Op.Targets[0], L), EpsSym, Rule::Br1);
        if (V.can0(Q))
          addRule(Q, Here, Q, Next(To0, Op.Targets[1], L), EpsSym, Rule::Br0);
      }
      return;
    }
    case FlatOp::K::Assume: {
      evalInto(*Op.S->Cond, L, 0);
      Sym To = EpsSym;
      for (uint32_t Q = 0; Q < NumShared; ++Q)
        if (lanes(0, Q).can1(Q))
          addRule(Q, Here, Q, Next(To, Pc + 1, L), EpsSym, Rule::Assume);
      return;
    }
    case FlatOp::K::Assert: {
      evalInto(*Op.S->Cond, L, 0);
      Sym To = EpsSym;
      for (uint32_t Q = 0; Q < NumShared; ++Q) {
        Lanes V = lanes(0, Q);
        if (V.can1(Q))
          addRule(Q, Here, Q, Next(To, Pc + 1, L), EpsSym, Rule::AssertOk);
        if (V.can0(Q))
          addRule(Q, Here, ErrState, Here, EpsSym, Rule::AssertFail);
      }
      return;
    }
    case FlatOp::K::Assign:
      emitAssign(Fr, Op, Here);
      return;
    case FlatOp::K::Call:
      emitCall(Fr, Op, Here);
      return;
    case FlatOp::K::Bind: {
      // x := $ret at the return site of `x := call f(...)`.
      bool IsShared = Op.S->TargetIsShared[0];
      int Slot = Op.S->TargetSlots[0];
      Sym To[2] = {EpsSym, EpsSym}; // By the value bound.
      for (uint32_t Q = 0; Q < NumShared; ++Q) {
        bool Ret = RetBitBase >= 0 && bit(Q, retBit(T));
        uint32_t Q2 = IsShared ? setBit(Q, SharedBit[Slot], Ret) : Q;
        uint32_t L2 = IsShared ? L : setBit(L, Slot, Ret);
        addRule(Q, Here, Q2, Next(To[Ret], Pc + 1, L2), EpsSym, Rule::Bind);
      }
      return;
    }
    case FlatOp::K::Return:
      if (!Op.S || !Op.S->RetValue) {
        for (uint32_t Q = 0; Q < NumShared; ++Q)
          addRule(Q, Here, Q, EpsSym, EpsSym, Rule::Ret);
        return;
      }
      evalInto(*Op.S->RetValue, L, 0);
      for (uint32_t Q = 0; Q < NumShared; ++Q) {
        Lanes V = lanes(0, Q);
        if (V.can0(Q))
          addRule(Q, Here, setBit(Q, retBit(T), false), EpsSym, EpsSym,
                  Rule::Ret);
        if (V.can1(Q))
          addRule(Q, Here, setBit(Q, retBit(T), true), EpsSym, EpsSym,
                  Rule::Ret);
      }
      return;
    case FlatOp::K::Lock: {
      Sym To = EpsSym;
      for (uint32_t Q = 0; Q < NumShared; ++Q)
        if (LockBit >= 0 && !bit(Q, LockBit))
          addRule(Q, Here, setBit(Q, LockBit, true), Next(To, Pc + 1, L),
                  EpsSym, Rule::Lock);
      return;
    }
    case FlatOp::K::Unlock: {
      Sym To = EpsSym;
      for (uint32_t Q = 0; Q < NumShared; ++Q)
        addRule(Q, Here, setBit(Q, LockBit, false), Next(To, Pc + 1, L),
                EpsSym, Rule::Unlock);
      return;
    }
    case FlatOp::K::Taint:
      emitTaint(T, Op, Here, frameSym(Fr.Func, Pc + 1, L));
      return;
    }
  }

  void emitTaint(unsigned T, const FlatOp &Op, Sym Here, Sym NextSym) {
    int Fact = Op.S->TaintSlot;
    Rule Label = Op.S->Kind == StmtKind::Source     ? Rule::Source
                 : Op.S->Kind == StmtKind::Sanitize ? Rule::Sanitize
                                                    : Rule::Sink;
    // Folded facts take consecutive bits in fact order; source sets the
    // fact's bit and sanitize clears it.
    int FoldBit = -1;
    if ((Opts.FoldTaint >> Fact) & 1 && Label != Rule::Sink)
      FoldBit = FoldBitBase +
                std::popcount(Opts.FoldTaint & ((1u << Fact) - 1));
    for (uint32_t Q = 0; Q < NumShared; ++Q) {
      uint32_t Q2 = FoldBit < 0 ? Q : setBit(Q, FoldBit, Label == Rule::Source);
      addRule(Q, Here, Q2, NextSym, EpsSym, Label);
    }
    // One sink record per (thread, frame).
    if (Opts.Taint && Label == Rule::Sink)
      Opts.Taint->Sinks.push_back({T, Here, Fact});
  }

  /// Calls \p Fn at valuation \p Q once per choice of one value for each
  /// of the \p N expressions in Masks slots [0, N), with the choice as a
  /// bit vector (bit I: expression I's value).  The first expression
  /// varies fastest, false before true.
  template <typename FnT> void forEachChoice(size_t N, uint32_t Q, FnT Fn) {
    assert(N <= 32 && "Sema bounds assignment targets and parameters");
    uint32_t Fixed = 0, Free = 0;
    for (size_t I = 0; I < N; ++I) {
      Lanes V = lanes(I, Q);
      if (V.can0(Q) && V.can1(Q))
        Free |= 1u << I;
      else if (V.can1(Q))
        Fixed |= 1u << I;
    }
    // The subsets of Free in ascending order.
    uint32_t Sub = 0;
    do {
      Fn(Fixed | Sub);
      Sub = (Sub - Free) & Free;
    } while (Sub != 0);
  }

  void emitAssign(const Frame &Fr, const FlatOp &Op, Sym Here) {
    const Stmt &S = *Op.S;
    uint32_t L = Fr.Locals;
    size_t N = S.AssignValues.size();
    // Target I writes bit TargetBit[I] of Q when TargetInQ[I], else of L.
    int TargetBit[32];
    assert(N <= std::size(TargetBit) && "Sema bounds assignment targets");
    uint32_t TargetInQ = 0;
    for (size_t I = 0; I < N; ++I) {
      evalInto(*S.AssignValues[I], L, I);
      bool InQ = S.TargetIsShared[I];
      TargetBit[I] = InQ ? SharedBit[S.TargetSlots[I]] : S.TargetSlots[I];
      TargetInQ |= static_cast<uint32_t>(InQ) << I;
    }
    ConstrainLocals.clear();
    ConstrainCan1.clear();
    for (uint32_t Q = 0; Q < NumShared; ++Q)
      forEachChoice(N, Q, [&](uint32_t V) {
        // The parallel assignment applies every chosen value to the
        // pre-state at once.
        uint32_t Q2 = Q, L2 = L;
        for (size_t I = 0; I < N; ++I) {
          bool B = (V >> I) & 1;
          if ((TargetInQ >> I) & 1)
            Q2 = setBit(Q2, TargetBit[I], B);
          else
            L2 = setBit(L2, TargetBit[I], B);
        }
        // `constrain e` filters on the post state.
        if (!S.Constrain || constrainCan1(*S.Constrain, Q2, L2))
          addRule(Q, Here, Q2, frameSym(Fr.Func, Fr.Pc + 1, L2), EpsSym,
                  Rule::Assign);
      });
  }

  /// Whether \p E, the current assignment's constraint, can hold at post
  /// state (\p Q2, \p L2).  Its lanes over every shared valuation are
  /// evaluated once per post-state locals.
  bool constrainCan1(const Expr &E, uint32_t Q2, uint32_t L2) {
    size_t K = 0;
    while (K < ConstrainLocals.size() && ConstrainLocals[K] != L2)
      ++K;
    if (K == ConstrainLocals.size()) {
      ConstrainLocals.push_back(L2);
      for (uint32_t W = 0; W < NumWords; ++W)
        ConstrainCan1.push_back(evalWord(E, W, L2).C1);
    }
    return (ConstrainCan1[K * NumWords + (Q2 >> 6)] >> (Q2 & 63)) & 1;
  }

  void emitCall(const Frame &Fr, const FlatOp &Op, Sym Here) {
    unsigned Callee = FuncIndex.at(Op.S->Callee);
    size_t N = Op.S->CallArgs.size();
    for (size_t I = 0; I < N; ++I)
      evalInto(*Op.S->CallArgs[I], Fr.Locals, I);
    Sym RetSym = EpsSym;
    for (uint32_t Q = 0; Q < NumShared; ++Q)
      forEachChoice(N, Q, [&](uint32_t V) {
        // The arguments fill the callee's parameter slots, in order.
        Sym EntrySym = frameSym(Callee, 0, V);
        if (RetSym == EpsSym)
          RetSym = frameSym(Fr.Func, Op.Targets[0], Fr.Locals);
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
  /// Mask words per expression: ceil(NumShared / 64).
  uint32_t NumWords = 0;
  /// The emitted op's expression lanes, NumWords per slot (evalInto).
  std::vector<Lanes> Masks;
  /// The current assignment's constraint: the post-state locals seen so
  /// far, and for each the can-be-1 lanes over every shared valuation.
  std::vector<uint32_t> ConstrainLocals;
  std::vector<uint64_t> ConstrainCan1;
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
