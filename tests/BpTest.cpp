//===-- tests/BpTest.cpp - Tests for the Boolean-program frontend ----------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

#include "bp/Lexer.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "core/CbaEngine.h"
#include "core/CubaDriver.h"
#include "core/SymbolicEngine.h"
#include "pds/CpdsIO.h"

using namespace cuba;
using namespace cuba::bp;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(BpLexer, TokenKinds) {
  auto T = lex("x := !y & (0 | 1) ^ z != w; // comment\n*");
  ASSERT_TRUE(T) << T.error().str();
  std::vector<TokKind> Kinds;
  for (const Token &Tok : *T)
    Kinds.push_back(Tok.Kind);
  std::vector<TokKind> Want = {
      TokKind::Ident, TokKind::Assign, TokKind::Not,   TokKind::Ident,
      TokKind::Amp,   TokKind::LParen, TokKind::Number, TokKind::Pipe,
      TokKind::Number, TokKind::RParen, TokKind::Caret, TokKind::Ident,
      TokKind::Neq,   TokKind::Ident,  TokKind::Semi,  TokKind::Star,
      TokKind::End};
  EXPECT_EQ(Kinds, Want);
}

TEST(BpLexer, DoubleCharOperators) {
  auto T = lex("a && b || c");
  ASSERT_TRUE(T);
  EXPECT_EQ((*T)[1].Kind, TokKind::Ampersand);
  EXPECT_EQ((*T)[3].Kind, TokKind::PipePipe);
}

TEST(BpLexer, TracksLineNumbers) {
  auto T = lex("a\n\nb");
  ASSERT_TRUE(T);
  EXPECT_EQ((*T)[0].Line, 1u);
  EXPECT_EQ((*T)[1].Line, 3u);
}

TEST(BpLexer, RejectsIllegalCharacter) {
  auto T = lex("a @ b");
  ASSERT_FALSE(T);
  EXPECT_EQ(T.error().line(), 1u);
}

TEST(BpLexer, AcceptsExactlyTheCLocaleClasses) {
  // Whitespace, identifier and digit bytes are those of the C locale's
  // isspace / isalnum / isdigit: CR, \v and \f separate tokens, and no
  // byte >= 0x80 is a letter or a space.
  auto T = lex("a\r\nb\v\fc // note\n   d");
  ASSERT_TRUE(T) << T.error().str();
  ASSERT_EQ(T->size(), 5u);
  const std::pair<unsigned, unsigned> Where[] = {{1, 1}, {2, 1}, {2, 4},
                                                 {3, 4}};
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ((*T)[I].Kind, TokKind::Ident) << I;
    EXPECT_EQ((*T)[I].Line, Where[I].first) << I;
    EXPECT_EQ((*T)[I].Column, Where[I].second) << I;
  }
  // A token after a comment keeps its column.
  auto C = lex("x := 1; // y := 0;\n\tz");
  ASSERT_TRUE(C) << C.error().str();
  EXPECT_EQ((*C)[4].Text, "z");
  EXPECT_EQ((*C)[4].Line, 2u);
  EXPECT_EQ((*C)[4].Column, 2u);

  const std::string_view Punct = "(){},;:^*=!&|/";
  for (unsigned B = 0; B < 256; ++B) {
    char Ch = static_cast<char>(B);
    if (Punct.find(Ch) != std::string_view::npos)
      continue;
    std::string Src = std::string("a\n x") + Ch + "y";
    auto R = lex(Src);
    bool Space = std::isspace(static_cast<unsigned char>(B)) != 0;
    bool Word = std::isalnum(static_cast<unsigned char>(B)) != 0 || B == '_';
    if (!Space && !Word) {
      ASSERT_FALSE(R) << "byte " << B << " accepted";
      EXPECT_EQ(R.error().line(), 2u) << "byte " << B;
      EXPECT_EQ(R.error().column(), 3u) << "byte " << B;
      continue;
    }
    ASSERT_TRUE(R) << "byte " << B << ": " << R.error().str();
    // a, then x and y split by a space byte or joined by a word byte.
    EXPECT_EQ(R->size(), Space ? 4u : 3u) << "byte " << B;
  }
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

static const char *TinyProgram = R"(
decl g, h;

bool flip(v) {
  decl t;
  t := !v;
  return t;
}

void worker() {
  decl a;
  start: a := *;
  if (a) { g := 1; } else { skip; }
  while (g & !h) {
    a := call flip(a);
  }
  assert(g | !h);
  goto start;
}

void main() {
  thread_create(&worker);
  thread_create(worker);
}
)";

TEST(BpParser, ParsesTinyProgram) {
  auto P = parseProgram(TinyProgram);
  ASSERT_TRUE(P) << P.error().str();
  EXPECT_EQ(P->SharedVars, (std::vector<std::string>{"g", "h"}));
  ASSERT_EQ(P->Functions.size(), 3u);
  EXPECT_EQ(P->Functions[0].Name, "flip");
  EXPECT_TRUE(P->Functions[0].ReturnsBool);
  EXPECT_EQ(P->Functions[0].Params, (std::vector<std::string>{"v"}));
  EXPECT_EQ(P->Functions[0].Locals, (std::vector<std::string>{"t"}));
  EXPECT_EQ(P->Functions[1].Name, "worker");
  EXPECT_FALSE(P->Functions[1].ReturnsBool);
}

TEST(BpParser, StatementShapes) {
  auto P = parseProgram(TinyProgram);
  ASSERT_TRUE(P);
  const Function &W = P->Functions[1];
  ASSERT_EQ(W.Body.size(), 5u);
  EXPECT_EQ(W.Body[0]->Kind, StmtKind::Assign);
  EXPECT_EQ(W.Body[0]->Label, "start");
  EXPECT_EQ(W.Body[1]->Kind, StmtKind::If);
  EXPECT_EQ(W.Body[1]->Body.size(), 1u);
  EXPECT_EQ(W.Body[1]->ElseBody.size(), 1u);
  EXPECT_EQ(W.Body[2]->Kind, StmtKind::While);
  ASSERT_EQ(W.Body[2]->Body.size(), 1u);
  EXPECT_EQ(W.Body[2]->Body[0]->Kind, StmtKind::Call);
  EXPECT_EQ(W.Body[2]->Body[0]->CallResult, "a");
  EXPECT_EQ(W.Body[3]->Kind, StmtKind::Assert);
  EXPECT_EQ(W.Body[4]->Kind, StmtKind::Goto);
}

TEST(BpParser, OperatorPrecedence) {
  // a | b & c = d  parses as  a | (b & (c = d)).
  auto P = parseProgram("decl a, b, c, d;\nvoid f() { a := a | b & c = d; }\n"
                        "void main() { thread_create(f); }");
  ASSERT_TRUE(P) << P.error().str();
  const Expr &E = *P->Functions[0].Body[0]->AssignValues[0];
  ASSERT_EQ(E.Kind, ExprKind::Or);
  ASSERT_EQ(E.Rhs->Kind, ExprKind::And);
  EXPECT_EQ(E.Rhs->Rhs->Kind, ExprKind::Eq);
}

TEST(BpParser, ParallelAssignmentWithConstrain) {
  auto P = parseProgram("decl a, b;\nvoid f() { a, b := *, * constrain "
                        "a != b; }\nvoid main() { thread_create(f); }");
  ASSERT_TRUE(P) << P.error().str();
  const Stmt &S = *P->Functions[0].Body[0];
  EXPECT_EQ(S.AssignTargets.size(), 2u);
  ASSERT_TRUE(S.Constrain != nullptr);
  EXPECT_EQ(S.Constrain->Kind, ExprKind::Neq);
}

TEST(BpParser, RejectsArityMismatchInAssignment) {
  auto P = parseProgram("decl a, b;\nvoid f() { a, b := 1; }\n"
                        "void main() { thread_create(f); }");
  ASSERT_FALSE(P);
}

TEST(BpParser, RejectsMissingSemicolon) {
  auto P = parseProgram("decl a;\nvoid f() { skip }\n"
                        "void main() { thread_create(f); }");
  ASSERT_FALSE(P);
  EXPECT_EQ(P.error().line(), 2u);
}

TEST(BpParser, RejectsMultiResultCall) {
  auto P = parseProgram("decl a, b;\nbool g() { return 1; }\n"
                        "void f() { a, b := call g(); }\n"
                        "void main() { thread_create(f); }");
  ASSERT_FALSE(P);
}

//===----------------------------------------------------------------------===//
// Sema
//===----------------------------------------------------------------------===//

namespace {

Error analyzeError(const char *Source) {
  auto P = parseProgram(Source);
  EXPECT_TRUE(P) << P.error().str();
  auto R = analyzeProgram(*P);
  EXPECT_FALSE(R);
  return R ? Error("unexpected success") : R.error();
}

} // namespace

TEST(BpSema, ResolvesTinyProgram) {
  auto P = parseProgram(TinyProgram);
  ASSERT_TRUE(P);
  auto Info = analyzeProgram(*P);
  ASSERT_TRUE(Info) << Info.error().str();
  EXPECT_FALSE(Info->UsesLock);
  EXPECT_TRUE(Info->UsesReturnValue);
  EXPECT_EQ(P->ThreadEntries,
            (std::vector<std::string>{"worker", "worker"}));
}

TEST(BpSema, RejectsUnknownVariable) {
  Error E = analyzeError("decl a;\nvoid f() { zz := 1; }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("unknown variable"), std::string::npos);
}

TEST(BpSema, RejectsUnknownLabel) {
  Error E = analyzeError("decl a;\nvoid f() { goto nowhere; }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("unknown label"), std::string::npos);
}

TEST(BpSema, RejectsCallArityMismatch) {
  Error E = analyzeError("decl a;\nvoid g(x, y) { skip; }\n"
                         "void f() { call g(1); }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("arguments"), std::string::npos);
}

TEST(BpSema, RejectsBindingVoidCall) {
  Error E = analyzeError("decl a;\nvoid g() { skip; }\n"
                         "void f() { a := call g(); }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("void"), std::string::npos);
}

TEST(BpSema, RejectsValuelessReturnInBoolFunction) {
  Error E = analyzeError("decl a;\nbool g() { return; }\n"
                         "void f() { a := call g(); }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("must return"), std::string::npos);
}

TEST(BpSema, RejectsThreadCreateOutsideMain) {
  Error E = analyzeError("decl a;\nvoid f() { thread_create(f); }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("only allowed in main"), std::string::npos);
}

TEST(BpSema, RejectsComputationInMain) {
  Error E = analyzeError("decl a;\nvoid f() { skip; }\n"
                         "void main() { a := 1; thread_create(f); }");
  EXPECT_NE(E.message().find("main may only contain"), std::string::npos);
}

TEST(BpSema, RejectsEntryWithParameters) {
  Error E = analyzeError("decl a;\nvoid f(x) { skip; }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("parameters"), std::string::npos);
}

TEST(BpSema, RejectsDoubleWriteInParallelAssign) {
  Error E = analyzeError("decl a;\nvoid f() { a, a := 1, 0; }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("twice"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Translation semantics, end to end through the verifier
//===----------------------------------------------------------------------===//

namespace {

DriverResult verify(const char *Source, unsigned MaxK = 24) {
  auto F = compileBooleanProgram(Source);
  EXPECT_TRUE(F) << F.error().str();
  DriverOptions O;
  O.Run.Limits = ResourceLimits::unlimited();
  O.Run.Limits.MaxContexts = MaxK;
  O.Run.Limits.MaxStates = 500'000;
  O.Run.Limits.MaxSteps = 50'000'000;
  return runCuba(F->System, F->Property, O);
}

} // namespace

TEST(BpTranslate, AssertTrueIsSafe) {
  DriverResult R = verify("decl a;\nvoid f() { a := 1; assert(a); }\n"
                          "void main() { thread_create(f); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(BpTranslate, AssertFalseIsABug) {
  DriverResult R = verify("decl a;\nvoid f() { a := 1; assert(!a); }\n"
                          "void main() { thread_create(f); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::BugFound);
  ASSERT_TRUE(R.Run.BugBound.has_value());
  EXPECT_EQ(*R.Run.BugBound, 1u);
}

TEST(BpTranslate, RaceBetweenCheckAndAssert) {
  // t1 checks !x, then asserts !x; t2 sets x in between: a concurrency
  // bug needing at least one context switch.
  DriverResult R = verify(
      "decl x;\n"
      "void t1() { if (!x) { assert(!x); } else { skip; } }\n"
      "void t2() { x := 1; }\n"
      "void main() { thread_create(t1); thread_create(t2); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::BugFound);
  ASSERT_TRUE(R.Run.BugBound.has_value());
  EXPECT_GE(*R.Run.BugBound, 2u);
}

TEST(BpTranslate, AtomicSectionsExclude) {
  // With both the check and the set inside atomic sections, the race
  // disappears.
  DriverResult R = verify(
      "decl x, seen;\n"
      "void t1() { atomic { if (!x) { assert(!x); seen := 1; } else "
      "{ skip; } } }\n"
      "void t2() { atomic { x := 1; } }\n"
      "void main() { thread_create(t1); thread_create(t2); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(BpTranslate, CallReturnBindsResult) {
  DriverResult R = verify(
      "decl a;\n"
      "bool negate(v) { return !v; }\n"
      "void f() { a := call negate(0); assert(a); }\n"
      "void main() { thread_create(f); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);

  DriverResult R2 = verify(
      "decl a;\n"
      "bool negate(v) { return !v; }\n"
      "void f() { a := call negate(1); assert(a); }\n"
      "void main() { thread_create(f); }");
  EXPECT_EQ(R2.Run.outcome(), Outcome::BugFound);
}

TEST(BpTranslate, ConstrainFiltersAssignments) {
  // a, b drawn nondeterministically but constrained equal: a ^ b is 0.
  DriverResult R = verify(
      "decl a, b;\n"
      "void f() { a, b := *, * constrain a = b; assert(!(a ^ b)); }\n"
      "void main() { thread_create(f); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(BpTranslate, AssumeBlocksExecution) {
  DriverResult R = verify(
      "decl a;\nvoid f() { a := *; assume(a); assert(a); }\n"
      "void main() { thread_create(f); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(BpTranslate, GotoLoops) {
  DriverResult R = verify(
      "decl a;\nvoid f() { top: a := !a; goto top, out; out: assert(a | "
      "!a); }\n"
      "void main() { thread_create(f); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(BpTranslate, RecursionBuildsUnboundedStacks) {
  // A solo-pumpable recursion: the program is not FCR, so the driver
  // must route to the symbolic engine and still prove safety.
  DriverResult R = verify(
      "decl a;\n"
      "void f() { if (*) { call f(); } else { skip; } assert(a | !a); }\n"
      "void main() { thread_create(f); thread_create(f); }");
  EXPECT_FALSE(R.Fcr.Holds);
  EXPECT_EQ(R.Used, ApproachKind::Symbolic);
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(BpTranslate, Fig2ProgramFromSource) {
  // The paper's Fig. 2 program (foo/bar with shared flag x) written in
  // the App. B language; safe, not FCR -- the flagship frontend test.
  static const char *Fig2 = R"(
    decl x;
    void foo() {
      if (*) { call foo(); } else { skip; }
      while (x) { }
      assert(!x);
      x := 1;
    }
    void bar() {
      if (*) { call bar(); } else { skip; }
      while (!x) { }
      x := 0;
    }
    void main() {
      thread_create(&foo);
      thread_create(&bar);
    }
  )";
  DriverResult R = verify(Fig2);
  EXPECT_FALSE(R.Fcr.Holds);
  EXPECT_EQ(R.Used, ApproachKind::Symbolic);
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << "kmax=" << R.Run.KMax;
}

TEST(BpTranslate, TranslatedSystemShape) {
  auto F = compileBooleanProgram(
      "decl g;\nvoid f() { decl l; l := g; assert(l = g); }\n"
      "void main() { thread_create(f); }");
  ASSERT_TRUE(F) << F.error().str();
  const Cpds &C = F->System;
  // 1 shared bit (no $ret, no $lock) -> 2 valuations + err.
  EXPECT_EQ(C.numSharedStates(), 3u);
  EXPECT_EQ(C.numThreads(), 1u);
  EXPECT_FALSE(F->Property.trivial());
  EXPECT_EQ(C.sharedStateName(C.initialShared()), "b0");
}

TEST(BpTranslate, RejectsAlphabetPastTheSaturationPacking) {
  // One thread, no shared bits, ten locals drawn nondeterministically,
  // then 2,100 statements: 1 + 2,101 pcs x 2^10 locals = 2,151,425
  // reachable frame symbols.  That fits the rule-slot bound (one shared
  // valuation), but the symbols plus the bottom marker would overflow
  // the saturations' 21-bit label fields, so translation must refuse as
  // soon as the 2,097,151st frame is reached.
  std::string Src = "void w() {\n  decl a, b, c, d, e, f, g, h, i, j;\n"
                    "  a, b, c, d, e, f, g, h, i, j := *, *, *, *, *, *, "
                    "*, *, *, *;\n";
  for (int I = 0; I < 2100; ++I)
    Src += "  skip;\n";
  Src += "}\nvoid main() { thread_create(w); }\n";
  auto F = compileBooleanProgram(Src);
  ASSERT_FALSE(F);
  EXPECT_NE(F.error().message().find("alphabet too large"), std::string::npos)
      << F.error().str();
  EXPECT_NE(F.error().message().find("2097151 frame symbols"),
            std::string::npos)
      << F.error().str();

  // The same frame with a short body stays in range.
  std::string Small = "void w() {\n  decl a, b, c, d, e, f, g, h, i, j;\n";
  for (int I = 0; I < 20; ++I)
    Small += "  skip;\n";
  Small += "}\nvoid main() { thread_create(w); }\n";
  EXPECT_TRUE(compileBooleanProgram(Small));
}

TEST(BpTranslate, UncalledHelpersCostNothing) {
  // Exhaustively, the helper h alone is 501 pcs x 2^10 locals x 2^3
  // shared valuations = 4,104,192 rule slots, past the 4,000,000 bound.
  // No thread calls it, so none of its frames is reached and the
  // program translates to w's frames only.
  std::string Helper = "decl x, y, z;\nvoid h() {\n"
                       "  decl a, b, c, d, e, f, g, k, m, n;\n";
  for (int I = 0; I < 500; ++I)
    Helper += "  skip;\n";
  Helper += "}\n";
  std::string Src = Helper + "void w() { x, y, z := 1, 1, 1; assert(x); }\n"
                             "void main() { thread_create(w); }\n";
  auto F = compileBooleanProgram(Src);
  ASSERT_TRUE(F) << F.error().str();
  const Pds &W = F->System.thread(0);
  // The assignment, the assertion and the implicit return.
  ASSERT_EQ(W.numSymbols(), 3u);
  for (Sym S = 1; S <= W.numSymbols(); ++S)
    EXPECT_EQ(W.symbolName(S), "w." + std::to_string(S - 1));

  // A call reaches h, but only at the local valuation it is entered
  // with: w's call and return site plus h's 501 pcs.
  std::string Calls = Helper + "void w() { call h(); }\n"
                               "void main() { thread_create(w); }\n";
  auto G = compileBooleanProgram(Calls);
  ASSERT_TRUE(G) << G.error().str();
  EXPECT_EQ(G->System.thread(0).numSymbols(), 503u);
}

TEST(BpTranslate, RefusesReturnBitsPastTheSlotFloorUpFront) {
  // Each thread binding a call result carries its own $ret bit, so N
  // such threads and one shared variable give 2^(N+1) control states.
  // Twenty threads put threads x 2^bits at 41,943,040, past the
  // 4,000,000-slot bound before any frame is reached; forty make 2^bits
  // itself overflow 32 bits.  Both must be refused before 2^bits is
  // computed or a shared state built (a build would loop 2^41 times).
  for (unsigned Threads : {20u, 40u}) {
    std::string Src = "decl g;\nbool id(v) { return v; }\n"
                      "void w() { g := call id(1); }\nvoid main() {\n";
    for (unsigned I = 0; I < Threads; ++I)
      Src += "  thread_create(w);\n";
    Src += "}\n";
    auto F = compileBooleanProgram(Src);
    ASSERT_FALSE(F) << Threads;
    std::string Want = std::to_string(Threads) + " threads x 2^" +
                       std::to_string(Threads + 1) + " shared valuations";
    EXPECT_NE(F.error().message().find(Want), std::string::npos)
        << F.error().str();
  }
}

TEST(BpTranslate, RefusesTaintFactsPastTheFoldedControlWord) {
  // Folded fact bits sit above the control bits of one 32-bit control
  // word.  Twelve shared variables (Sema's limit), all read and all
  // annotated, plus eight per-thread $ret bits make 20 control bits:
  // folding all 12 facts needs 32 bits, and the translation refuses
  // before any frame is built.  One fact's fold, and the unfolded
  // program, meet the rule-slot floor instead.
  std::string Src = "decl a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11;\n"
                    "bool id(v) { return v; }\nvoid w() {\n"
                    "  a0 := call id(1);\n  assume(a0";
  for (int I = 1; I < 12; ++I)
    Src += " | a" + std::to_string(I);
  Src += ");\n";
  for (int I = 0; I < 12; ++I)
    Src += "  source(a" + std::to_string(I) + ");\n";
  Src += "}\nvoid main() {\n";
  for (int I = 0; I < 8; ++I)
    Src += "  thread_create(w);\n";
  Src += "}\n";

  for (auto [Fold, Bits] : {std::pair<uint32_t, int>{0xfff, 32},
                            std::pair<uint32_t, int>{1, 21},
                            std::pair<uint32_t, int>{0, 20}}) {
    TranslateOptions Opts;
    Opts.FoldTaint = Fold;
    auto F = compileBooleanProgram(Src, Opts);
    ASSERT_FALSE(F) << Bits;
    EXPECT_NE(F.error().message().find("8 threads x 2^" +
                                       std::to_string(Bits) +
                                       " shared valuations"),
              std::string::npos)
        << F.error().str();
  }
}

namespace {

/// Per-round visible and state counts of both engines on \p C, to \p K.
std::vector<size_t> roundCounts(const Cpds &C, unsigned K) {
  std::vector<size_t> Out;
  CbaEngine E(C, ResourceLimits::unlimited());
  SymbolicEngine S(C, ResourceLimits::unlimited());
  for (unsigned R = 0;; ++R) {
    Out.insert(Out.end(), {E.reachedSize(), E.visibleSize(),
                           S.symbolicStateCount(), S.visibleSize()});
    if (R == K)
      return Out;
    EXPECT_EQ(E.advance(), CbaEngine::RoundStatus::Ok);
    EXPECT_EQ(S.advance(), SymbolicEngine::RoundStatus::Ok);
  }
}

} // namespace

TEST(BpTranslate, UntouchedGlobalsTakeNoBit) {
  // RaceBetweenCheckAndAssert with a second declared variable that no
  // statement reads or writes (a taint annotation does not count).  It
  // would be 0 in every state, so it gets no bit: the padded program has
  // half the valuations a bit per declaration would give it (2, not 4),
  // and neither engine's rounds, the verdict nor the bug bound change.
  const char *Race =
      "void t1() { if (!x) { assert(!x); } else { skip; } }\n"
      "void t2() { x := 1; }\n"
      "void main() { thread_create(t1); thread_create(t2); }";
  auto Plain = compileBooleanProgram(std::string("decl x;\n") + Race);
  auto Padded = compileBooleanProgram(
      std::string("decl pad, x;\n") + Race + "\nvoid u() { source(pad); }");
  ASSERT_TRUE(Plain) << Plain.error().str();
  ASSERT_TRUE(Padded) << Padded.error().str();
  // One bit for x: 2 valuations + err, not 4 + err.
  EXPECT_EQ(Plain->System.numSharedStates(), 3u);
  EXPECT_EQ(Padded->System.numSharedStates(), 3u);
  EXPECT_EQ(printCpds(*Plain), printCpds(*Padded));
  EXPECT_EQ(roundCounts(Plain->System, 4), roundCounts(Padded->System, 4));
  DriverOptions O;
  O.Run.Limits.MaxContexts = 24;
  DriverResult A = runCuba(Plain->System, Plain->Property, O);
  DriverResult B = runCuba(Padded->System, Padded->Property, O);
  EXPECT_EQ(A.Run.outcome(), Outcome::BugFound);
  EXPECT_EQ(B.Run.outcome(), A.Run.outcome());
  EXPECT_EQ(B.Run.BugBound, A.Run.BugBound);
}

TEST(BpTranslate, WrittenGlobalsKeepTheirBit) {
  // A variable that is written but never read is not constant, so it
  // keeps its bit (dropping it would merge states).
  auto F = compileBooleanProgram("decl w, x;\n"
                                 "void t() { w := *; x := 1; assert(x); }\n"
                                 "void main() { thread_create(t); }");
  ASSERT_TRUE(F) << F.error().str();
  EXPECT_EQ(F->System.numSharedStates(), 5u);
  EXPECT_EQ(F->System.sharedStateName(F->System.initialShared()), "b00");
}

//===----------------------------------------------------------------------===//
// AST printer: print/parse round-trips
//===----------------------------------------------------------------------===//

#include "bp/AstPrinter.h"

TEST(BpPrinter, ExprRendering) {
  auto P = parseProgram("decl a, b;\nvoid f() { a := !(a | b) ^ 1; }\n"
                        "void main() { thread_create(f); }");
  ASSERT_TRUE(P);
  EXPECT_EQ(printExpr(*P->Functions[0].Body[0]->AssignValues[0]),
            "(!(a | b) ^ 1)");
}

TEST(BpPrinter, ProgramRoundTripsThroughParser) {
  auto P1 = parseProgram(TinyProgram);
  ASSERT_TRUE(P1);
  std::string Printed = printProgram(*P1);
  auto P2 = parseProgram(Printed);
  ASSERT_TRUE(P2) << P2.error().str() << "\n" << Printed;
  // Printing is a fixpoint after one round.
  EXPECT_EQ(printProgram(*P2), Printed);
}

TEST(BpPrinter, RoundTripPreservesVerificationOutcome) {
  static const char *Source =
      "decl x;\n"
      "void t1() { atomic { if (!x) { assert(!x); } else { skip; } } }\n"
      "void t2() { atomic { x := 1; } }\n"
      "void main() { thread_create(t1); thread_create(t2); }";
  auto P = parseProgram(Source);
  ASSERT_TRUE(P);
  DriverResult Direct = verify(Source);
  std::string Printed = printProgram(*P);
  DriverResult Reprinted = verify(Printed.c_str());
  EXPECT_EQ(Direct.Run.outcome(), Reprinted.Run.outcome());
}

//===----------------------------------------------------------------------===//
// Regressions surfaced by `cuba fuzz --mode bp`
//===----------------------------------------------------------------------===//

TEST(BpTranslate, ThreadNamesSurviveCpdsRoundTrip) {
  // Thread instances used to be named "entry#N"; '#' starts a comment
  // in the .cpds format, so --emit-cpds output was unreadable.  The
  // translated system must always round-trip through CpdsIO.
  auto F = compileBooleanProgram("decl a;\nvoid f() { a := 1; }\n"
                                 "void main() { thread_create(f); "
                                 "thread_create(f); }");
  ASSERT_TRUE(F) << F.error().str();
  EXPECT_EQ(F->System.threadName(0), "f.1");
  EXPECT_EQ(F->System.threadName(1), "f.2");
  std::string Text = printCpds(*F);
  auto Back = parseCpds(Text);
  ASSERT_TRUE(Back) << Back.error().str();
  EXPECT_EQ(printCpds(*Back), Text);
}

TEST(BpTranslate, ReturnValuesArePerThread) {
  // $ret used to be a single shared bit, so thread B returning 0 could
  // clobber thread A's just-returned 1 before A's bind consumed it --
  // a bogus counterexample in any multi-threaded program binding call
  // results.  Each thread owns a private $ret bit now; this purely
  // thread-local computation must verify with two copies running.
  DriverResult R = verify(
      "decl sink;\n"
      "bool invert(v) { decl w; w := !v; return w; }\n"
      "void worker() {\n"
      "  decl x, y;\n"
      "  x := call invert(0);\n"
      "  y := call invert(x);\n"
      "  assert(x & !y);\n"
      "  sink := y;\n"
      "}\n"
      "void main() { thread_create(worker); thread_create(worker); }");
  EXPECT_EQ(R.Run.outcome(), Outcome::Proved);
}

TEST(BpSema, DuplicateSharedVariableHasLocation) {
  Error E = analyzeError("decl a;\ndecl b, a;\nvoid f() { skip; }\n"
                         "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("duplicate shared variable 'a'"),
            std::string::npos);
  EXPECT_EQ(E.line(), 2u); // The second occurrence is the offender.
  EXPECT_EQ(E.column(), 9u);
}

TEST(BpSema, TooManySharedVariablesHasLocation) {
  Error E = analyzeError(
      "decl s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11;\n"
      "decl s12;\nvoid f() { skip; }\n"
      "void main() { thread_create(f); }");
  EXPECT_NE(E.message().find("too many shared variables"),
            std::string::npos);
  EXPECT_EQ(E.line(), 2u); // Points at the first variable over the limit.
}

TEST(BpSema, MainWithoutThreadsHasLocation) {
  auto P = parseProgram("decl a;\nvoid f() { skip; }\n\nvoid main() { }");
  ASSERT_TRUE(P);
  auto R = analyzeProgram(*P);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("main creates no threads"),
            std::string::npos);
  EXPECT_EQ(R.error().line(), 4u);
}

TEST(BpLexer, ErrorsCarryColumn) {
  auto T = lex("ab @");
  ASSERT_FALSE(T);
  EXPECT_EQ(T.error().line(), 1u);
  EXPECT_EQ(T.error().column(), 4u);
}

TEST(BpParser, ErrorsCarryColumn) {
  auto P = parseProgram("decl a;\nvoid f() { a := ; }\n"
                        "void main() { thread_create(f); }");
  ASSERT_FALSE(P);
  EXPECT_EQ(P.error().line(), 2u);
  EXPECT_GT(P.error().column(), 1u);
}

TEST(BpPrinter, StructuredStatementsRoundTrip) {
  static const char *Source =
      "decl g;\n"
      "bool h(p) { decl q; q := p ^ g; return q; }\n"
      "void f() {\n"
      "  top: while (*) { if (g) { g := 0; } else { g := call h(1); } }\n"
      "  lock; unlock;\n"
      "  goto top, done;\n"
      "  done: return;\n"
      "}\n"
      "void main() { thread_create(f); }";
  auto P1 = parseProgram(Source);
  ASSERT_TRUE(P1) << P1.error().str();
  std::string Printed = printProgram(*P1);
  auto P2 = parseProgram(Printed);
  ASSERT_TRUE(P2) << P2.error().str() << "\n" << Printed;
  EXPECT_EQ(printProgram(*P2), Printed);
}
