//===-- tests/PdsTest.cpp - Unit tests for the PDS/CPDS model --------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "models/Models.h"
#include "pds/Cpds.h"
#include "pds/CpdsIO.h"
#include "pds/Pds.h"
#include "pds/State.h"

using namespace cuba;

//===----------------------------------------------------------------------===//
// Action classification
//===----------------------------------------------------------------------===//

TEST(Action, KindClassification) {
  EXPECT_EQ((Action{0, 1, 0, EpsSym, EpsSym}).kind(), ActionKind::Pop);
  EXPECT_EQ((Action{0, 1, 0, 2, EpsSym}).kind(), ActionKind::Overwrite);
  EXPECT_EQ((Action{0, 1, 0, 2, 3}).kind(), ActionKind::Push);
  EXPECT_EQ((Action{0, EpsSym, 0, EpsSym, EpsSym}).kind(),
            ActionKind::EmptyChange);
  EXPECT_EQ((Action{0, EpsSym, 0, 2, EpsSym}).kind(),
            ActionKind::EmptyPush);
}

TEST(Action, TargetLength) {
  EXPECT_EQ((Action{0, 1, 0, EpsSym, EpsSym}).targetLength(), 0u);
  EXPECT_EQ((Action{0, 1, 0, 2, EpsSym}).targetLength(), 1u);
  EXPECT_EQ((Action{0, 1, 0, 2, 3}).targetLength(), 2u);
}

//===----------------------------------------------------------------------===//
// Pds validation and indexes
//===----------------------------------------------------------------------===//

TEST(Pds, FreezeRejectsOutOfRangeStates) {
  Pds P;
  Sym A = P.addSymbol("a");
  P.addAction({5, A, 0, A, EpsSym, "bad"});
  auto R = P.freeze(2);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("shared state"), std::string::npos);
}

TEST(Pds, FreezeRejectsMalformedTargetWord) {
  Pds P;
  Sym A = P.addSymbol("a");
  Action Bad;
  Bad.SrcQ = 0;
  Bad.SrcSym = A;
  Bad.DstQ = 0;
  Bad.Dst0 = EpsSym;
  Bad.Dst1 = A; // (eps, a) is a word with a hole.
  P.addAction(Bad);
  EXPECT_FALSE(P.freeze(1));
}

TEST(Pds, FreezeRejectsWideEmptyStackRule) {
  Pds P;
  Sym A = P.addSymbol("a");
  P.addAction({0, EpsSym, 0, A, A, "bad"}); // |w'| = 2 from empty stack.
  EXPECT_FALSE(P.freeze(1));
}

TEST(Pds, SourceIndexFindsActions) {
  Pds P;
  Sym A = P.addSymbol("a");
  Sym B = P.addSymbol("b");
  P.addAction({0, A, 1, B, EpsSym, "x"});
  P.addAction({0, A, 0, EpsSym, EpsSym, "y"});
  P.addAction({1, B, 0, A, EpsSym, "z"});
  ASSERT_TRUE(P.freeze(2));
  EXPECT_EQ(P.actionsFrom(0, A).size(), 2u);
  EXPECT_EQ(P.actionsFrom(1, B).size(), 1u);
  EXPECT_TRUE(P.actionsFrom(1, A).empty());
  EXPECT_TRUE(P.actionsFrom(0, EpsSym).empty());
}

TEST(Pds, EmergingSymbolsAndPopTargets) {
  Pds P;
  Sym A = P.addSymbol("a");
  Sym B = P.addSymbol("b");
  Sym C = P.addSymbol("c");
  P.addAction({0, A, 1, B, C, "push1"}); // emerging: c
  P.addAction({1, B, 0, B, C, "push2"}); // emerging: c (dedup)
  P.addAction({0, C, 2, EpsSym, EpsSym, "pop"});
  ASSERT_TRUE(P.freeze(3));
  EXPECT_EQ(P.emergingSymbols(), (std::vector<Sym>{C}));
  EXPECT_EQ(P.popTargets(), (std::vector<QState>{2}));
}

TEST(Pds, SymbolByName) {
  Pds P;
  Sym A = P.addSymbol("alpha");
  EXPECT_EQ(P.symbolByName("alpha"), A);
  EXPECT_EQ(P.symbolByName("eps"), EpsSym);
  EXPECT_EQ(P.symbolByName("nosuch"), EpsSym);
  EXPECT_EQ(P.symbolName(A), "alpha");
}

TEST(Pds, SymbolByNameFirstMatchWinsAndUnknownIsEps) {
  // The hash index answers exactly like a scan from id 1: repeated names
  // resolve to their lowest id, and names never added (including
  // prefixes and near-misses of added ones) resolve to EpsSym.
  Pds P;
  Sym A = P.addSymbol("frame.3.01");
  Sym B = P.addSymbol("frame.3.10");
  Sym A2 = P.addSymbol("frame.3.01");
  EXPECT_NE(A, A2);
  EXPECT_EQ(P.symbolByName("frame.3.01"), A);
  EXPECT_EQ(P.symbolByName("frame.3.10"), B);
  EXPECT_EQ(P.symbolByName("frame.3"), EpsSym);
  EXPECT_EQ(P.symbolByName("frame.3.011"), EpsSym);
  EXPECT_EQ(P.symbolByName(""), EpsSym);
  EXPECT_EQ(P.symbolByName("eps"), EpsSym);
  // Many names: every one still resolves to its own id.
  std::vector<Sym> Ids;
  for (unsigned I = 0; I < 5000; ++I)
    Ids.push_back(P.addSymbol("s" + std::to_string(I)));
  for (unsigned I = 0; I < 5000; ++I)
    ASSERT_EQ(P.symbolByName("s" + std::to_string(I)), Ids[I]);
  EXPECT_EQ(P.symbolByName("s5000"), EpsSym);
}

TEST(Pds, LabelsAreInternedPerPds) {
  Pds P;
  Sym A = P.addSymbol("a");
  uint32_t I0 = P.addAction({0, A, 0, EpsSym, EpsSym, "pop"});
  uint32_t I1 = P.addAction({0, A, 0, A, EpsSym, "keep"});
  uint32_t I2 = P.addAction({0, A, 0, EpsSym, EpsSym, "pop"});
  uint32_t I3 = P.addAction({0, A, 0, A, EpsSym, ""});
  EXPECT_EQ(P.label(I0), "pop");
  EXPECT_EQ(P.label(I1), "keep");
  EXPECT_EQ(P.label(I3), "");
  // One table entry per distinct name; actions carry only its id.
  EXPECT_EQ(P.actions()[I0].Label, P.actions()[I2].Label);
  EXPECT_NE(P.actions()[I0].Label, P.actions()[I1].Label);
  EXPECT_EQ(P.actions()[I3].Label, 0u);
  EXPECT_EQ(P.internLabel("keep"), P.actions()[I1].Label);
  // A pre-interned id builds the same action without naming it again.
  Action Keep{0, A, 0, A, EpsSym, P.internLabel("keep")};
  EXPECT_EQ(P.label(P.addAction(Keep)), "keep");
  static_assert(std::is_trivially_copyable_v<Action>);
}

//===----------------------------------------------------------------------===//
// State semantics
//===----------------------------------------------------------------------===//

namespace {

/// A one-thread CPDS with one rule of each kind for semantics tests.
CpdsFile makeTinySystem() {
  CpdsFile F;
  Cpds &C = F.System;
  QState Q0 = C.addSharedState("q0");
  QState Q1 = C.addSharedState("q1");
  unsigned T = C.addThread("t");
  Pds &P = C.thread(T);
  Sym A = P.addSymbol("a");
  Sym B = P.addSymbol("b");
  Sym X = P.addSymbol("x");
  P.addAction({Q0, A, Q1, B, X, "push"});     // a -> push b over x
  P.addAction({Q1, B, Q0, EpsSym, EpsSym, "pop"});
  P.addAction({Q0, X, Q0, A, EpsSym, "ovw"}); // x -> a
  P.addAction({Q1, EpsSym, Q0, A, EpsSym, "epush"});
  C.setInitialStack(T, {A});
  EXPECT_TRUE(C.freeze());
  return F;
}

} // namespace

TEST(Cpds, PushSemantics) {
  CpdsFile F = makeTinySystem();
  const Cpds &C = F.System;
  GlobalState S = C.initialState();
  EXPECT_EQ(toString(C, S), "<q0 | a>");

  std::vector<GlobalState> Succ;
  C.threadSuccessors(S, 0, Succ);
  ASSERT_EQ(Succ.size(), 1u);
  // Push (q0,a)->(q1, b x): b is the new top, x underneath.
  EXPECT_EQ(toString(C, Succ[0]), "<q1 | b x>");
}

TEST(Cpds, PopExposesUnderlyingSymbolAndEmptyPush) {
  CpdsFile F = makeTinySystem();
  const Cpds &C = F.System;
  GlobalState S = C.initialState();
  std::vector<GlobalState> Succ;
  C.threadSuccessors(S, 0, Succ); // <q1 | b x>
  GlobalState S1 = Succ[0];
  Succ.clear();
  C.threadSuccessors(S1, 0, Succ); // pop b -> <q0 | x>
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_EQ(toString(C, Succ[0]), "<q0 | x>");

  GlobalState S2 = Succ[0];
  Succ.clear();
  C.threadSuccessors(S2, 0, Succ); // overwrite x -> a
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_EQ(toString(C, Succ[0]), "<q0 | a>");
}

TEST(Cpds, EmptyStackActions) {
  CpdsFile F;
  Cpds &C = F.System;
  QState Q0 = C.addSharedState("q0");
  QState Q1 = C.addSharedState("q1");
  unsigned T = C.addThread("t");
  Pds &P = C.thread(T);
  Sym A = P.addSymbol("a");
  P.addAction({Q0, EpsSym, Q1, EpsSym, EpsSym, "echange"});
  P.addAction({Q1, EpsSym, Q1, A, EpsSym, "epush"});
  ASSERT_TRUE(C.freeze());

  GlobalState S = C.initialState(); // <q0 | eps>
  std::vector<GlobalState> Succ;
  C.threadSuccessors(S, 0, Succ);
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_EQ(toString(C, Succ[0]), "<q1 | eps>");

  GlobalState S1 = Succ[0];
  Succ.clear();
  C.threadSuccessors(S1, 0, Succ);
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_EQ(toString(C, Succ[0]), "<q1 | a>");
}

TEST(Cpds, VisibleProjection) {
  GlobalState S;
  S.Q = 3;
  S.Stacks = {{1, 2}, {}, {7}}; // Tops (at back): 2, eps, 7.
  VisibleState V = project(S);
  EXPECT_EQ(V.Q, 3u);
  EXPECT_EQ(V.Tops, (std::vector<Sym>{2, EpsSym, 7}));
}

TEST(Cpds, GlobalStateHashAndEquality) {
  GlobalState A, B;
  A.Q = B.Q = 1;
  A.Stacks = {{1, 2}};
  B.Stacks = {{1, 2}};
  EXPECT_EQ(A, B);
  EXPECT_EQ(GlobalStateHash()(A), GlobalStateHash()(B));
  B.Stacks = {{2, 1}};
  EXPECT_NE(A, B);
}

TEST(Cpds, VisiblePatternMatching) {
  VisiblePattern P;
  P.Q = 2;
  P.Tops = {std::nullopt, 5};
  VisibleState V{2, {9, 5}};
  EXPECT_TRUE(P.matches(V));
  V.Tops[1] = 6;
  EXPECT_FALSE(P.matches(V));
  V.Tops[1] = 5;
  V.Q = 1;
  EXPECT_FALSE(P.matches(V));

  VisiblePattern Any;
  Any.Q = std::nullopt;
  Any.Tops = {std::nullopt, std::nullopt};
  EXPECT_TRUE(Any.matches(V));
}

//===----------------------------------------------------------------------===//
// Parser and printer
//===----------------------------------------------------------------------===//

static const char *Fig1Text = R"(
# The Fig. 1 running example.
shared 0 1 2 3
init 0
thread P1 {
  alphabet 1 2
  stack 1
  f1: (0, 1) -> (1, 2)
  f2: (3, 2) -> (0, 1)
}
thread P2 {
  alphabet 4 5 6
  stack 4
  b1: (0, 4) -> (0, eps)
  b2: (1, 4) -> (2, 5)
  b3: (2, 5) -> (3, 4 6)
}
bad (3 | *, eps)
)";

TEST(CpdsIO, ParsesFig1) {
  auto R = parseCpds(Fig1Text);
  ASSERT_TRUE(R) << R.error().str();
  const Cpds &C = R->System;
  EXPECT_EQ(C.numSharedStates(), 4u);
  EXPECT_EQ(C.numThreads(), 2u);
  EXPECT_EQ(C.thread(0).numSymbols(), 2u);
  EXPECT_EQ(C.thread(1).numSymbols(), 3u);
  EXPECT_EQ(C.thread(0).actions().size(), 2u);
  EXPECT_EQ(C.thread(1).actions().size(), 3u);
  EXPECT_EQ(toString(C, C.initialState()), "<0 | 1, 4>");
  ASSERT_EQ(R->Property.badPatterns().size(), 1u);

  // The push b3 writes top-first: new top 4, 6 underneath.
  const Action &B3 = C.thread(1).actions()[2];
  EXPECT_EQ(B3.kind(), ActionKind::Push);
  EXPECT_EQ(C.thread(1).symbolName(B3.Dst0), "4");
  EXPECT_EQ(C.thread(1).symbolName(B3.Dst1), "6");
}

TEST(CpdsIO, ParsedSystemMatchesBuiltinModel) {
  auto R = parseCpds(Fig1Text);
  ASSERT_TRUE(R);
  CpdsFile Built = models::buildFig1();
  EXPECT_EQ(R->System.numSharedStates(), Built.System.numSharedStates());
  for (unsigned I = 0; I < 2; ++I) {
    ASSERT_EQ(R->System.thread(I).actions().size(),
              Built.System.thread(I).actions().size());
    for (size_t J = 0; J < Built.System.thread(I).actions().size(); ++J) {
      const Action &A = R->System.thread(I).actions()[J];
      const Action &B = Built.System.thread(I).actions()[J];
      EXPECT_EQ(A.SrcQ, B.SrcQ);
      EXPECT_EQ(A.SrcSym, B.SrcSym);
      EXPECT_EQ(A.DstQ, B.DstQ);
      EXPECT_EQ(A.Dst0, B.Dst0);
      EXPECT_EQ(A.Dst1, B.Dst1);
    }
  }
}

TEST(CpdsIO, PrintParseRoundTrip) {
  auto R = parseCpds(Fig1Text);
  ASSERT_TRUE(R);
  std::string Printed = printCpds(*R);
  auto R2 = parseCpds(Printed);
  ASSERT_TRUE(R2) << R2.error().str() << "\n" << Printed;
  EXPECT_EQ(printCpds(*R2), Printed);
}

TEST(CpdsIO, SharedCountShorthand) {
  auto R = parseCpds("shared 3\ninit 2\nthread t { alphabet a\n"
                     "(0, a) -> (1, a) }");
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->System.numSharedStates(), 3u);
  EXPECT_EQ(R->System.initialShared(), 2u);
}

TEST(CpdsIO, RejectsUnknownSharedState) {
  auto R = parseCpds("shared 2\nthread t { alphabet a\n(5, a) -> (0, a) }");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().str().find("unknown shared state"), std::string::npos);
}

TEST(CpdsIO, RejectsUnknownSymbol) {
  auto R = parseCpds("shared 2\nthread t { alphabet a\n(0, zz) -> (0, a) }");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().str().find("unknown stack symbol"), std::string::npos);
}

TEST(CpdsIO, RejectsBadPatternArity) {
  auto R = parseCpds("shared 2\nthread t { alphabet a\n(0, a) -> (0, a) }\n"
                     "bad (0 | a, a)");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().str().find("threads"), std::string::npos);
}

TEST(CpdsIO, RejectsReservedEps) {
  auto R = parseCpds("shared 1\nthread t { alphabet eps }");
  ASSERT_FALSE(R);
}

TEST(CpdsIO, ReportsLineNumbers) {
  auto R = parseCpds("shared 2\nthread t {\n  alphabet a\n  (0, a -> (0, a)\n}");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().line(), 4u);
}

//===----------------------------------------------------------------------===//
// Built-in models sanity
//===----------------------------------------------------------------------===//

TEST(Models, AllTable2InstancesValidate) {
  auto Rows = models::table2Instances();
  EXPECT_EQ(Rows.size(), 19u);
  for (const auto &Row : Rows) {
    EXPECT_TRUE(Row.File.System.frozen()) << Row.Suite;
    EXPECT_GE(Row.File.System.numThreads(), 1u) << Row.Suite;
    EXPECT_FALSE(Row.File.Property.trivial()) << Row.Suite;
  }
}

TEST(Models, Fig2MatchesPaperShape) {
  CpdsFile F = models::buildFig2();
  const Cpds &C = F.System;
  EXPECT_EQ(C.numSharedStates(), 3u);
  EXPECT_EQ(C.numThreads(), 2u);
  // foo: 4 pcs; bar: 4 pcs.
  EXPECT_EQ(C.thread(0).numSymbols(), 4u);
  EXPECT_EQ(C.thread(1).numSymbols(), 4u);
  EXPECT_EQ(toString(C, C.initialState()), "<bot | 2, 6>");
}

//===----------------------------------------------------------------------===//
// Parser robustness sweep: every malformed input is rejected with a
// diagnostic, never accepted or crashed on.
//===----------------------------------------------------------------------===//

class CpdsParserRejects : public ::testing::TestWithParam<const char *> {};

TEST_P(CpdsParserRejects, MalformedInput) {
  auto R = parseCpds(GetParam());
  ASSERT_FALSE(R) << "accepted: " << GetParam();
  EXPECT_FALSE(R.error().str().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, CpdsParserRejects,
    ::testing::Values(
        "",                                        // empty file
        "thread t { alphabet a }",                 // missing 'shared'
        "shared",                                  // no states
        "shared 2\ninit 7",                        // unknown init (number)
        "shared 2\ninit nosuch",                   // unknown init (name)
        "shared 2\nthread t { alphabet a",         // unterminated block
        "shared 2\nthread t { alphabet a a }",     // duplicate symbol
        "shared 2\nthread t { alphabet a\n(0, a) -> (1, eps a) }", // hole
        "shared 2\nthread t { alphabet a\n(0, a) - (1, a) }",      // bad ->
        "shared 2\nthread t { alphabet a\n(0 a) -> (1, a) }",      // comma
        "shared 2\nthread t { alphabet a }\nbad (0 | )",  // empty pattern
        "shared 2\nthread t { alphabet a }\nbad 0 | a",   // missing parens
        "shared 2\nthread t { alphabet a\n(0, eps) -> (0, a a) }", // wide eps
        "shared 2\n$$$"));                         // illegal character

TEST(CpdsIO, AcceptsEmptyInitialStackAndEmptyAlphabetlessBadPattern) {
  // Minimal but legal: one thread with one symbol, never used; empty
  // initial stack; a property over the empty stack.
  auto R = parseCpds("shared 2\nthread t { alphabet a\n"
                     "(0, eps) -> (1, a) }\nbad (1 | a)");
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->System.initialState().Stacks[0].empty());
  // The EmptyPush rule fires from the empty stack.
  std::vector<GlobalState> Succ;
  R->System.threadSuccessors(R->System.initialState(), 0, Succ);
  ASSERT_EQ(Succ.size(), 1u);
  EXPECT_TRUE(R->Property.violatedBy(project(Succ[0])));
}

TEST(CpdsIO, RoundTripsEveryBuiltinModel) {
  // The printer must emit re-parseable text for every Table 2 system,
  // and the reprint must be a fixpoint.
  for (const auto &Row : models::table2Instances()) {
    std::string Printed = printCpds(Row.File);
    auto R = parseCpds(Printed);
    ASSERT_TRUE(R) << Row.Suite << " " << Row.Config << ": "
                   << R.error().str();
    EXPECT_EQ(printCpds(*R), Printed) << Row.Suite << " " << Row.Config;
    EXPECT_EQ(R->System.numThreads(), Row.File.System.numThreads());
    EXPECT_EQ(R->Property.badPatterns().size(),
              Row.File.Property.badPatterns().size());
  }
}
