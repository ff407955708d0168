//===-- tests/DataflowTest.cpp - Weighted dataflow client tests -----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
//
// The weighted-post* dataflow client, end to end:
//
//  * the GEN/KILL transformer algebra and its interning table,
//  * the source/sanitize/sink frontend (parse/print fixpoint, Sema
//    rules, the contextual-keyword corner),
//  * hand-written leak / sanitized / cross-thread instances through the
//    weighted-vs-folded differential oracle,
//  * a 160-instance seeded suite: DataflowEngine on the base
//    translation against CbaEngine on the folded product, round for
//    round, including verdict agreement,
//  * budget-truncation agreement (tiny budgets never fabricate a
//    mismatch),
//  * the lost-`combine` mutation check (the suite must catch
//    psa_testing::InjectDropMaskGrowth),
//  * --jobs independence: the folded reference on a thread pool yields
//    the identical report,
//  * the weighted product cache: a run on examples/taint_demo.bp serves
//    some extraction's product from its saturation's cache.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "dataflow/DataflowEngine.h"
#include "dataflow/TaintDomain.h"
#include "exec/ThreadPool.h"
#include "obs/Metrics.h"
#include "testing/DataflowOracle.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using namespace cuba::testing;

//===----------------------------------------------------------------------===//
// The transformer algebra
//===----------------------------------------------------------------------===//

TEST(TaintAlgebra, SeqComposesApplications) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 200; ++I) {
    TaintTf A{static_cast<uint32_t>(Rng.next() & 0xff),
              static_cast<uint32_t>(Rng.next() & 0xff)};
    TaintTf B{static_cast<uint32_t>(Rng.next() & 0xff),
              static_cast<uint32_t>(Rng.next() & 0xff)};
    uint32_t X = static_cast<uint32_t>(Rng.next() & 0xff);
    EXPECT_EQ(applyTf(seqTf(A, B), X), applyTf(B, applyTf(A, X)));
  }
}

TEST(TaintAlgebra, SeqIsAssociative) {
  SplitMix64 Rng(11);
  for (int I = 0; I < 200; ++I) {
    TaintTf A{static_cast<uint32_t>(Rng.next() & 0xf),
              static_cast<uint32_t>(Rng.next() & 0xf)};
    TaintTf B{static_cast<uint32_t>(Rng.next() & 0xf),
              static_cast<uint32_t>(Rng.next() & 0xf)};
    TaintTf C{static_cast<uint32_t>(Rng.next() & 0xf),
              static_cast<uint32_t>(Rng.next() & 0xf)};
    EXPECT_EQ(seqTf(seqTf(A, B), C), seqTf(A, seqTf(B, C)));
  }
}

TEST(TaintAlgebra, TablePinsIdentity) {
  TaintWeightTable Tab;
  EXPECT_EQ(Tab.internTf({0, 0}), 0u);
  EXPECT_EQ(Tab.internSet({0}), 0u);
  // one is neutral for extend, in both positions.
  uint32_t T = Tab.internTf({1, 2});
  uint32_t S = Tab.internSet({T});
  EXPECT_EQ(Tab.composeSets(S, 0u), S);
  EXPECT_EQ(Tab.composeSets(0u, S), S);
  EXPECT_EQ(Tab.unionSets(S, S), S);
  EXPECT_EQ(Tab.diffSets(S, S), TaintWeightTable::EmptySet);
}

TEST(TaintAlgebra, SetOpsModelSetSemantics) {
  TaintWeightTable Tab;
  uint32_t A = Tab.internTf({0b01, 0b00}); // kill fact 0
  uint32_t B = Tab.internTf({0b00, 0b01}); // gen fact 0
  uint32_t SA = Tab.internSet({A});
  uint32_t SB = Tab.internSet({B});
  std::vector<uint32_t> AB{std::min(A, B), std::max(A, B)};
  uint32_t SAB = Tab.internSet(AB);
  EXPECT_EQ(Tab.unionSets(SA, SB), SAB);
  EXPECT_EQ(Tab.diffSets(SAB, SA), SB);
  // compose({A,B}, {B}) = {seq(A,B), seq(B,B)} = {gen0} (both compose
  // to the pure generator).
  uint32_t C = Tab.composeSets(SAB, SB);
  EXPECT_EQ(Tab.set(C).size(), 1u);
  EXPECT_EQ(Tab.tf(Tab.set(C)[0]), (TaintTf{0b00, 0b01}));
  // May-apply unions over members: {kill0, gen0} applied to {fact0}.
  EXPECT_EQ(Tab.applySetMay(SAB, 0b01), 0b01u);
  EXPECT_EQ(Tab.applySetMay(SA, 0b01), 0b00u);
}

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
  bp::Program P = parseOk("decl x;\n\nvoid t() {\n  source(x);\n"
                          "  sanitize(x);\n  sink(x);\n}\n\n"
                          "void main() {\n  thread_create(&t);\n}\n\n");
  auto Info = bp::analyzeProgram(P);
  ASSERT_TRUE(Info) << Info.error().str();
  bp::TaintInfo Taint;
  bp::TranslateOptions Opts;
  Opts.Taint = &Taint;
  auto File = bp::translateProgram(P, *Info, Opts);
  ASSERT_TRUE(File) << File.error().str();
  ASSERT_EQ(Taint.FactNames.size(), 1u);
  EXPECT_FALSE(Taint.Weights.empty());
  bool SawGen = false, SawKill = false;
  for (const bp::TaintActionWeight &W : Taint.Weights) {
    SawGen |= W.Gen == 1u && W.Kill == 0u;
    SawKill |= W.Kill == 1u && W.Gen == 0u;
  }
  EXPECT_TRUE(SawGen);
  EXPECT_TRUE(SawKill);
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
  DataflowOracleReport Rep = runOn("decl x;\n\nvoid t() {\n  source(x);\n"
                                   "  sanitize(x);\n  sink(x);\n}\n\n"
                                   "void main() {\n  thread_create(&t);\n}\n\n");
  EXPECT_TRUE(Rep.ok()) << Rep.str();
  EXPECT_FALSE(Rep.Leak);
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
  // the source is thread 32, past the weighted engine's 32 producer-mask
  // bits, and the sink thread must still expand the state it produced.
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
    Truncated += Rep->WeightedExhausted || Rep->FoldedExhausted;
  }
  EXPECT_GT(Truncated, 0u) << "budgets too generous to test truncation";
}

TEST(DataflowSuite, LostCombineIsCaught) {
  // A weighted engine whose saturation drops `combine` into existing
  // transitions must disagree with the folded reference on some seed.
  DataflowOracleOptions Opts;
  Opts.InjectDropCombine = true;
  unsigned Caught = 0, Checked = 0;
  for (uint64_t Seed = 0; Checked < 40 && Caught == 0; ++Seed) {
    ASSERT_LT(Seed, 400u);
    std::optional<DataflowOracleReport> Rep = checkDataflowSeed(Seed, Opts);
    if (!Rep)
      continue;
    ++Checked;
    Caught += !Rep->ok();
  }
  EXPECT_GT(Caught, 0u) << "the mutation check never tripped";
}

TEST(DataflowSuite, ReferenceJobsIndependence) {
  // The folded reference's parallel rounds are bit-identical to serial
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
      EXPECT_EQ(Rep->WeightedExhausted, Serial[I].WeightedExhausted);
      EXPECT_EQ(Rep->FoldedExhausted, Serial[I].FoldedExhausted);
    }
  }
}

//===----------------------------------------------------------------------===//
// The weighted product cache
//===----------------------------------------------------------------------===//

// Running the weighted engine on the taint demo must actually exercise
// the product cache: the deterministic dataflow.products.reused counter
// ends above zero.
TEST(WeightedProductCache, EngineCountsReusedProducts) {
  std::ifstream In(CUBA_TAINT_DEMO);
  ASSERT_TRUE(In) << CUBA_TAINT_DEMO;
  std::stringstream Src;
  Src << In.rdbuf();
  bp::Program P = parseOk(Src.str());
  auto Info = bp::analyzeProgram(P);
  ASSERT_TRUE(Info) << Info.error().str();
  bp::TaintInfo Taint;
  bp::TranslateOptions Opts;
  Opts.Taint = &Taint;
  auto File = bp::translateProgram(P, *Info, Opts);
  ASSERT_TRUE(File) << File.error().str();

  uint64_t Before = obs::Metrics::value("dataflow.products.reused");
  DataflowEngine W(File->System, Taint, ResourceLimits());
  while (W.bound() < 64 && !W.frontierEmpty())
    ASSERT_EQ(W.advance(), DataflowEngine::RoundStatus::Ok);
  EXPECT_FALSE(W.sinkHits().empty()) << "the demo's leak went missing";
  EXPECT_GT(obs::Metrics::value("dataflow.products.reused"), Before)
      << "the taint demo never reused a cached product";
}
