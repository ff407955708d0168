//===-- tests/DataflowTest.cpp - Weighted dataflow client tests -----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
//
// The per-fact taint folds (dataflow/TaintFolds.h), end to end:
//
//  * the source/sanitize/sink frontend (parse/print fixpoint, Sema
//    rules, the contextual-keyword corner, the fold's bit effects),
//  * hand-written leak / sanitized / cross-thread instances through the
//    folds-vs-full-fold differential oracle,
//  * a 160-instance seeded suite: each fact's fold, on the engine FCR
//    picks, against CbaEngine on the full fold of every fact, round for
//    round, including verdict agreement,
//  * budget-truncation agreement (tiny budgets never fabricate a
//    mismatch),
//  * the lost-mask-growth mutation check on folds that take the symbolic
//    route (the suite must catch psa_testing::InjectDropMaskGrowth),
//  * --jobs independence: the explicit engines on a thread pool yield
//    the identical report,
//  * runTaintFolds itself: the route per fold, the shared budget, and a
//    program without facts.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "dataflow/TaintFolds.h"
#include "exec/ThreadPool.h"
#include "obs/Metrics.h"
#include "testing/DataflowOracle.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using namespace cuba::testing;

//===----------------------------------------------------------------------===//
// The annotation frontend
//===----------------------------------------------------------------------===//

namespace {

bp::Program parseOk(const std::string &Src) {
  auto P = bp::parseProgram(Src);
  EXPECT_TRUE(P) << (P ? "" : P.error().str());
  return std::move(*P);
}

} // namespace

TEST(TaintFrontend, PrintParseFixpoint) {
  const char *Src = "decl x, y;\n\n"
                    "void t() {\n"
                    "  source(x);\n"
                    "  sanitize(y);\n"
                    "  if (*) {\n"
                    "    sink(x);\n"
                    "  }\n"
                    "}\n\n"
                    "void main() {\n"
                    "  thread_create(&t);\n"
                    "}\n\n";
  bp::Program P = parseOk(Src);
  std::string Printed = bp::printProgram(P);
  EXPECT_EQ(Printed, Src);
  bp::Program P2 = parseOk(Printed);
  EXPECT_EQ(bp::printProgram(P2), Printed);
}

TEST(TaintFrontend, SourceStaysAnIdentifier) {
  // The annotation keywords are contextual: a variable named `source`
  // still assigns, and only `source(` introduces the annotation.
  bp::Program P = parseOk("decl source;\n\n"
                          "void t() {\n"
                          "  source := 1;\n"
                          "  sink(source);\n"
                          "}\n\n"
                          "void main() {\n"
                          "  thread_create(&t);\n"
                          "}\n\n");
  ASSERT_EQ(P.Functions[0].Body.size(), 2u);
  EXPECT_EQ(P.Functions[0].Body[0]->Kind, bp::StmtKind::Assign);
  EXPECT_EQ(P.Functions[0].Body[1]->Kind, bp::StmtKind::Sink);
}

TEST(TaintFrontend, SemaRequiresSharedVariable) {
  bp::Program P = parseOk("decl g;\n\nvoid t() {\n  decl l;\n  source(l);\n}"
                          "\n\nvoid main() {\n  thread_create(&t);\n}\n\n");
  auto Info = bp::analyzeProgram(P);
  ASSERT_FALSE(Info);
  EXPECT_NE(Info.error().str().find("shared"), std::string::npos);
}

TEST(TaintFrontend, SemaNumbersFactsInSharedOrder) {
  bp::Program P = parseOk("decl a, b, c;\n\nvoid t() {\n  source(c);\n"
                          "  sink(a);\n}\n\nvoid main() {\n"
                          "  thread_create(&t);\n}\n\n");
  auto Info = bp::analyzeProgram(P);
  ASSERT_TRUE(Info) << Info.error().str();
  // Fact order follows shared declaration order, not annotation order.
  ASSERT_EQ(Info->TaintFacts.size(), 2u);
  EXPECT_EQ(Info->TaintFacts[0], "a");
  EXPECT_EQ(Info->TaintFacts[1], "c");
  EXPECT_EQ(Info->FactOfShared[0], 0);
  EXPECT_EQ(Info->FactOfShared[1], -1);
  EXPECT_EQ(Info->FactOfShared[2], 1);
}

TEST(TaintFrontend, SideTableRecordsWeightsAndSinks) {
  // A fact's GEN/KILL weights live in its fold: every source rule sets
  // the fact's bit (above the unfolded control bits) and every sanitize
  // rule clears it; sinks are side-table records.
  bp::Program P = parseOk("decl x;\n\nvoid t() {\n  source(x);\n"
                          "  sanitize(x);\n  sink(x);\n}\n\n"
                          "void main() {\n  thread_create(&t);\n}\n\n");
  auto Info = bp::analyzeProgram(P);
  ASSERT_TRUE(Info) << Info.error().str();
  bp::TaintInfo Taint;
  bp::TranslateOptions Opts;
  Opts.FoldTaint = 1;
  Opts.Taint = &Taint;
  auto File = bp::translateProgram(P, *Info, Opts);
  ASSERT_TRUE(File) << File.error().str();
  ASSERT_EQ(Taint.FactNames.size(), 1u);
  // x occurs only in annotations, so it has no value bit of its own.
  EXPECT_EQ(Taint.SharedBits, 0u);
  const Pds &T = File->System.thread(0);
  unsigned Gens = 0, Kills = 0;
  for (uint32_t AI = 0; AI < T.actions().size(); ++AI) {
    const Action &A = T.actions()[AI];
    const std::string &Label = T.label(AI);
    if (Label == "source") {
      EXPECT_EQ(A.DstQ, 1u);
      ++Gens;
    } else if (Label == "sanitize") {
      EXPECT_EQ(A.DstQ, 0u);
      ++Kills;
    } else {
      EXPECT_EQ(A.DstQ, A.SrcQ) << Label << " changed the fact bit";
    }
  }
  EXPECT_GT(Gens, 0u);
  EXPECT_GT(Kills, 0u);
  ASSERT_FALSE(Taint.Sinks.empty());
  for (const bp::TaintSinkSite &S : Taint.Sinks) {
    EXPECT_EQ(S.Thread, 0u);
    EXPECT_EQ(S.Fact, 0);
  }
}

//===----------------------------------------------------------------------===//
// Hand-written instances through the oracle
//===----------------------------------------------------------------------===//

namespace {

DataflowOracleReport runOn(const std::string &Src,
                           const DataflowOracleOptions &Opts = {}) {
  bp::Program P = parseOk(Src);
  return runDataflowOracle(P, Opts);
}

} // namespace

TEST(DataflowOracle, StraightLineLeak) {
  DataflowOracleReport Rep = runOn("decl x;\n\nvoid t() {\n  source(x);\n"
                                   "  sink(x);\n}\n\nvoid main() {\n"
                                   "  thread_create(&t);\n}\n\n");
  EXPECT_TRUE(Rep.ok()) << Rep.str();
  EXPECT_TRUE(Rep.Leak);
  EXPECT_EQ(Rep.FactCount, 1u);
}

TEST(DataflowOracle, SanitizeBlocksTheLeak) {
  // The second program adds a fact: x's fold (one fold bit) and the full
  // fold (two) must clear x's bit alike.
  for (const char *Src :
       {"decl x;\n\nvoid t() {\n  source(x);\n  sanitize(x);\n"
        "  sink(x);\n}\n\nvoid main() {\n  thread_create(&t);\n}\n\n",
        "decl x, y;\n\nvoid t() {\n  source(x);\n  source(y);\n"
        "  sanitize(x);\n  sink(x);\n}\n\n"
        "void main() {\n  thread_create(&t);\n}\n\n"}) {
    DataflowOracleReport Rep = runOn(Src);
    EXPECT_TRUE(Rep.ok()) << Src << Rep.str();
    EXPECT_FALSE(Rep.Leak) << Src;
  }
}

TEST(DataflowOracle, CrossThreadLeak) {
  // The taint flows through the shared fact: thread u only ever sinks,
  // so the leak needs a context switch after thread t's source.
  DataflowOracleReport Rep =
      runOn("decl x;\n\nvoid t() {\n  source(x);\n}\n\n"
            "void u() {\n  skip;\n  sink(x);\n}\n\n"
            "void main() {\n  thread_create(&t);\n  thread_create(&u);\n}\n\n");
  EXPECT_TRUE(Rep.ok()) << Rep.str();
  EXPECT_TRUE(Rep.Leak);
}

TEST(DataflowOracle, CrossThreadLeakPastThirtyTwoThreads) {
  // CrossThreadLeak with the sink thread created first and the source
  // thread last, behind Dead threads that never move: at 33 threads
  // the source is thread 32, past the engines' 32 producer-mask bits,
  // and the sink thread must still expand the state it produced.
  auto Build = [](unsigned Dead) {
    std::string Src = "decl x;\n\nvoid u() {\n  skip;\n  sink(x);\n}\n\n"
                      "void d() {\n  assume(0);\n}\n\n"
                      "void t() {\n  source(x);\n}\n\n"
                      "void main() {\n  thread_create(&u);\n";
    for (unsigned I = 0; I < Dead; ++I)
      Src += "  thread_create(&d);\n";
    return Src + "  thread_create(&t);\n}\n\n";
  };
  for (unsigned Dead : {30u, 31u}) {
    DataflowOracleReport Rep = runOn(Build(Dead));
    EXPECT_TRUE(Rep.ok()) << Dead + 2 << " threads: " << Rep.str();
    EXPECT_TRUE(Rep.Leak) << Dead + 2 << " threads";
  }
}

TEST(DataflowOracle, InterproceduralFlow) {
  // The source sits in a callee; the summary must survive the return.
  DataflowOracleReport Rep =
      runOn("decl x;\n\nvoid poison() {\n  source(x);\n}\n\n"
            "void t() {\n  call poison();\n  sink(x);\n}\n\n"
            "void main() {\n  thread_create(&t);\n}\n\n");
  EXPECT_TRUE(Rep.ok()) << Rep.str();
  EXPECT_TRUE(Rep.Leak);
}

TEST(DataflowOracle, UnannotatedProgramHasNoFacts) {
  DataflowOracleReport Rep = runOn("decl x;\n\nvoid t() {\n  x := 1;\n}\n\n"
                                   "void main() {\n  thread_create(&t);\n}\n\n");
  EXPECT_TRUE(Rep.ok()) << Rep.str();
  EXPECT_FALSE(Rep.Leak);
  EXPECT_EQ(Rep.FactCount, 0u);
}

//===----------------------------------------------------------------------===//
// The seeded suite
//===----------------------------------------------------------------------===//

TEST(DataflowSuite, SeededAgreement160) {
  unsigned Checked = 0, Skipped = 0, Leaks = 0, MultiFact = 0;
  for (uint64_t Seed = 0; Checked < 160; ++Seed) {
    ASSERT_LT(Seed, 1000u) << "size guard rejected too many seeds";
    std::optional<DataflowOracleReport> Rep = checkDataflowSeed(Seed);
    if (!Rep) {
      ++Skipped;
      continue;
    }
    EXPECT_TRUE(Rep->ok()) << "seed " << Seed << ":\n" << Rep->str();
    ++Checked;
    Leaks += Rep->Leak;
    MultiFact += Rep->FactCount >= 2;
  }
  // The suite must exercise both verdicts and multi-fact instances.
  EXPECT_GT(Leaks, 10u);
  EXPECT_LT(Leaks, Checked);
  EXPECT_GT(MultiFact, 10u);
}

TEST(DataflowSuite, BudgetTruncationAgrees) {
  // Tiny budgets truncate the lockstep early; the rounds both engines
  // completed must still agree exactly, whichever side stops first.
  DataflowOracleOptions Opts;
  Opts.Limits = ResourceLimits{400, 20'000, 4, 0};
  unsigned Checked = 0, Truncated = 0;
  for (uint64_t Seed = 0; Checked < 40; ++Seed) {
    ASSERT_LT(Seed, 400u);
    std::optional<DataflowOracleReport> Rep = checkDataflowSeed(Seed, Opts);
    if (!Rep) {
      continue;
    }
    EXPECT_TRUE(Rep->ok()) << "seed " << Seed << ":\n" << Rep->str();
    ++Checked;
    Truncated += Rep->FoldsExhausted || Rep->FullExhausted;
  }
  EXPECT_GT(Truncated, 0u) << "budgets too generous to test truncation";
}

TEST(DataflowSuite, LostCombineIsCaught) {
  // Folds that take the symbolic route saturate with root masks; a
  // saturation that drops the growth of an existing transition's mask
  // loses states, so some such fold must disagree with the full fold.
  DataflowOracleOptions Opts;
  Opts.InjectDropMaskGrowth = true;
  unsigned Caught = 0, Symbolic = 0;
  for (uint64_t Seed = 0; Symbolic < 40 && Caught == 0; ++Seed) {
    ASSERT_LT(Seed, 400u) << "too few seeds take the symbolic route";
    std::optional<DataflowOracleReport> Rep = checkDataflowSeed(Seed, Opts);
    if (!Rep || !Rep->SymbolicFolds)
      continue;
    ++Symbolic;
    Caught += !Rep->ok();
  }
  EXPECT_GT(Caught, 0u) << "the mutation check never tripped";
}

TEST(DataflowSuite, ReferenceJobsIndependence) {
  // The explicit engines' parallel rounds are bit-identical to serial
  // ones, so the oracle report cannot depend on the job count.
  std::vector<uint64_t> Seeds;
  std::vector<DataflowOracleReport> Serial;
  for (uint64_t Seed = 0; Serial.size() < 25; ++Seed) {
    ASSERT_LT(Seed, 250u);
    std::optional<DataflowOracleReport> Rep = checkDataflowSeed(Seed);
    if (!Rep)
      continue;
    Seeds.push_back(Seed);
    Serial.push_back(std::move(*Rep));
  }
  for (unsigned Jobs : {2u, 8u}) {
    exec::ThreadPool Pool(Jobs);
    DataflowOracleOptions Opts;
    Opts.Pool = &Pool;
    for (size_t I = 0; I < Seeds.size(); ++I) {
      std::optional<DataflowOracleReport> Rep =
          checkDataflowSeed(Seeds[I], Opts);
      ASSERT_TRUE(Rep.has_value());
      EXPECT_TRUE(Rep->ok()) << "jobs " << Jobs << " seed " << Seeds[I]
                             << ":\n" << Rep->str();
      EXPECT_EQ(Rep->KCompared, Serial[I].KCompared);
      EXPECT_EQ(Rep->Leak, Serial[I].Leak);
      EXPECT_EQ(Rep->FoldsExhausted, Serial[I].FoldsExhausted);
      EXPECT_EQ(Rep->FullExhausted, Serial[I].FullExhausted);
    }
  }
}

//===----------------------------------------------------------------------===//
// runTaintFolds
//===----------------------------------------------------------------------===//

namespace {

std::string readFile(const char *Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In) << Path;
  std::stringstream Src;
  Src << In.rdbuf();
  return Src.str();
}

/// \p Src's folds under \p Opts.
TaintFoldResult runFolds(const std::string &Src,
                         const TaintFoldOptions &Opts = {}) {
  bp::Program P = parseOk(Src);
  auto Info = bp::analyzeProgram(P);
  EXPECT_TRUE(Info) << Info.error().str();
  auto R = runTaintFolds(P, *Info, Opts);
  EXPECT_TRUE(R) << R.error().str();
  return R.take();
}

} // namespace

TEST(DataflowFolds, DemoFoldsTakeTheExplicitRoute) {
  uint64_t Before = obs::Metrics::value("dataflow.folds");
  TaintFoldResult R = runFolds(readFile(CUBA_TAINT_DEMO));
  EXPECT_EQ(obs::Metrics::value("dataflow.folds") - Before, 2u);
  ASSERT_EQ(R.Folds.size(), 2u);
  for (const FactFold &F : R.Folds) {
    EXPECT_TRUE(F.Explicit) << R.Taint.FactNames[F.Fact];
    EXPECT_TRUE(F.Converged) << R.Taint.FactNames[F.Fact];
  }
  EXPECT_FALSE(R.exhausted());
  // worker leaks x; auditor always sanitizes y.
  ASSERT_EQ(R.Hits.size(), 1u);
  EXPECT_EQ(R.Hits[0].Thread, 0u);
  EXPECT_EQ(R.Taint.FactNames[R.Hits[0].Fact], "x");
}

TEST(DataflowFolds, RecursiveFoldsTakeTheSymbolicRoute) {
  uint64_t Before = obs::Metrics::value("saturation.pops");
  TaintFoldResult R = runFolds(readFile(CUBA_TAINT_RECURSIVE));
  EXPECT_GT(obs::Metrics::value("saturation.pops"), Before);
  ASSERT_EQ(R.Folds.size(), 2u);
  for (const FactFold &F : R.Folds) {
    EXPECT_FALSE(F.Explicit) << R.Taint.FactNames[F.Fact];
    EXPECT_GT(F.Saturations, 0u) << R.Taint.FactNames[F.Fact];
  }
  // reader sinks t while walk sources it; u is sanitized before its sink.
  ASSERT_EQ(R.Hits.size(), 1u);
  EXPECT_EQ(R.Hits[0].Thread, 1u);
  EXPECT_EQ(R.Taint.FactNames[R.Hits[0].Fact], "t");
}

TEST(DataflowFolds, FoldsShareOneBudget) {
  // Each fold alone fits a budget of its own state count; two folds
  // sharing it do not, so the second fold exhausts it (or never
  // starts) and the run ends there.
  std::string Src = readFile(CUBA_TAINT_DEMO);
  TaintFoldResult Free = runFolds(Src);
  ASSERT_EQ(Free.Folds.size(), 2u);
  TaintFoldOptions Opts;
  Opts.Limits.MaxStates =
      std::max(Free.Folds[0].States, Free.Folds[1].States) + 1;
  TaintFoldResult Tight = runFolds(Src, Opts);
  EXPECT_EQ(Tight.ExhaustedBy, ExhaustKind::States);
  ASSERT_FALSE(Tight.Folds.empty());
  EXPECT_TRUE(Tight.Folds[0].Converged);
  EXPECT_EQ(Tight.Folds[0].States, Free.Folds[0].States);
  if (Tight.Folds.size() == 2) {
    EXPECT_FALSE(Tight.Folds[1].Converged);
  }
}

TEST(DataflowFolds, ProgramWithoutFactsRunsNoFold) {
  uint64_t Before = obs::Metrics::value("dataflow.folds");
  TaintFoldResult R =
      runFolds("decl x;\n\nvoid t() {\n  x := 1;\n}\n\n"
               "void main() {\n  thread_create(&t);\n}\n\n");
  EXPECT_EQ(obs::Metrics::value("dataflow.folds"), Before);
  EXPECT_TRUE(R.Folds.empty());
  EXPECT_TRUE(R.Hits.empty());
  EXPECT_FALSE(R.exhausted());
}

TEST(DataflowFolds, FactsWithoutSinksRunNoFold) {
  // y is sourced but never sunk: no state can witness it at a sink, so
  // only x's fold runs.
  uint64_t Before = obs::Metrics::value("dataflow.folds");
  TaintFoldResult R =
      runFolds("decl x, y;\n\nvoid t() {\n  source(x);\n"
               "  source(y);\n  sink(x);\n}\n\n"
               "void main() {\n  thread_create(&t);\n}\n\n");
  EXPECT_EQ(obs::Metrics::value("dataflow.folds") - Before, 1u);
  ASSERT_EQ(R.Folds.size(), 1u);
  EXPECT_EQ(R.Taint.FactNames[R.Folds[0].Fact], "x");
  ASSERT_EQ(R.Hits.size(), 1u);
}
