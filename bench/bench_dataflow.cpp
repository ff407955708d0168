//===-- bench/bench_dataflow.cpp - Taint fold microbench -------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the taint analysis on synthetic
/// annotated Boolean programs (call chains of depth x facts): the
/// per-fact folds `cuba dataflow` runs (dataflow/TaintFolds.h: one
/// translation with one fact's bit in Q, the FCR check and the rounds
/// per fact) against one run over the full fold of every fact, which
/// pays 2^facts control states.  Every iteration times translation plus
/// rounds on both paths, both to context bound 4.  The recursive rows
/// make the chain's tail call back into its head, so FCR fails and both
/// paths take the symbolic engine.  Emits BENCH_dataflow.json via
/// --benchmark_format=json; see BUILDING.md.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "BenchUtil.h"

#include <optional>
#include <string>

#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "core/CbaEngine.h"
#include "core/FcrCheck.h"
#include "core/SymbolicEngine.h"
#include "dataflow/TaintFolds.h"
#include "support/Limits.h"

using namespace cuba;

namespace {

constexpr unsigned MaxK = 4;

/// A call chain of \p Depth functions threading \p Facts taint facts:
/// the head sources every fact, interior frames alternately sanitize
/// and re-source one fact (so the facts' flows genuinely differ per
/// depth), and the tail sinks them all.  A second thread races
/// re-sources against the chain, keeping every context switch relevant.
/// With \p Recursive, the tail may call the head again before its
/// sinks, so the chain's stack is unbounded and FCR fails.
std::string makeTaintProgram(unsigned Depth, unsigned Facts, bool Recursive) {
  std::string Src = "decl ";
  for (unsigned F = 0; F < Facts; ++F)
    Src += (F ? ", x" : "x") + std::to_string(F);
  Src += ";\n\n";
  for (unsigned D = 0; D < Depth; ++D) {
    std::string Var = "x" + std::to_string(D % Facts);
    Src += "void w" + std::to_string(D) + "() {\n";
    if (D == 0)
      for (unsigned F = 0; F < Facts; ++F)
        Src += "  source(x" + std::to_string(F) + ");\n";
    else
      Src += (D % 2 ? "  sanitize(" : "  source(") + Var + ");\n";
    if (D + 1 < Depth) {
      Src += "  call w" + std::to_string(D + 1) + "();\n";
    } else {
      if (Recursive)
        Src += "  if (*) {\n    call w0();\n  }\n";
      for (unsigned F = 0; F < Facts; ++F)
        Src += "  sink(x" + std::to_string(F) + ");\n";
    }
    Src += "}\n\n";
  }
  Src += "void racer() {\n  source(x0);\n  sink(x0);\n}\n\n";
  Src += "void main() {\n  thread_create(&w0);\n"
         "  thread_create(&racer);\n}\n\n";
  return Src;
}

ResourceLimits benchLimits() {
  ResourceLimits L;
  L.MaxMillis = 0; // Deterministic work, no wall-clock axis.
  L.MaxContexts = MaxK;
  return L;
}

/// The chain program of \p State's (depth, facts, recursive) row,
/// parsed and analyzed.  A rejected program skips the row with the
/// diagnostic and yields false.
bool analyzeChain(benchmark::State &State, bp::Program &P,
                  bp::SemaInfo &Info) {
  auto Prog = bp::parseProgram(makeTaintProgram(
      static_cast<unsigned>(State.range(0)),
      static_cast<unsigned>(State.range(1)), State.range(2) != 0));
  if (!Prog) {
    State.SkipWithError(Prog.error().str().c_str());
    return false;
  }
  P = Prog.take();
  auto I = bp::analyzeProgram(P);
  if (!I) {
    State.SkipWithError(I.error().str().c_str());
    return false;
  }
  Info = I.take();
  return true;
}

/// Runs \p E to the context bound or its fixpoint; returns |T(R_k)|.
template <typename EngineT> size_t runRounds(EngineT &E) {
  while (E.bound() < MaxK && !E.frontierEmpty())
    if (E.advance() != EngineT::RoundStatus::Ok)
      break;
  return E.visibleSize();
}

/// The per-fact folds, as `cuba dataflow` runs them: per fact, translate
/// with its bit folded, check FCR, run the engine it picks.
void BM_DataflowPerFact(benchmark::State &State) {
  bp::Program P;
  bp::SemaInfo Info;
  if (!analyzeChain(State, P, Info))
    return;
  TaintFoldOptions Opts;
  Opts.Limits = benchLimits();
  size_t Visible = 0;
  for (auto _ : State) {
    auto R = runTaintFolds(P, Info, Opts);
    if (!R) {
      State.SkipWithError(R.error().str().c_str());
      return;
    }
    Visible = 0;
    for (const FactFold &F : R->Folds)
      Visible += F.Visible;
    benchmark::DoNotOptimize(Visible);
  }
  State.counters["visible"] = static_cast<double>(Visible);
}

/// One run over the full fold of every fact: translate it, check FCR
/// and run the engine it picks -- the 2^facts baseline.
void BM_DataflowFoldedReference(benchmark::State &State) {
  bp::Program P;
  bp::SemaInfo Info;
  if (!analyzeChain(State, P, Info))
    return;
  bp::TranslateOptions Opts;
  Opts.FoldTaint = (1u << Info.TaintFacts.size()) - 1;
  size_t Visible = 0;
  for (auto _ : State) {
    auto File = bp::translateProgram(P, Info, Opts);
    if (!File) {
      State.SkipWithError(File.error().str().c_str());
      return;
    }
    LimitTracker FcrLimits(benchLimits());
    if (checkFcr(File->System, &FcrLimits).Holds) {
      CbaEngine E(File->System, benchLimits());
      Visible = runRounds(E);
    } else {
      SymbolicEngine E(File->System, benchLimits());
      Visible = runRounds(E);
    }
    benchmark::DoNotOptimize(Visible);
  }
  State.counters["visible"] = static_cast<double>(Visible);
}

/// Depth x facts, plain chains (FCR holds: the explicit engine) and
/// recursive ones (FCR fails: the symbolic engine).  Deeper chains add
/// frames; more facts add folds on one side and double the full fold's
/// control states on the other.
void chainRows(benchmark::internal::Benchmark *B) {
  B->ArgNames({"depth", "facts", "recursive"});
  for (int Recursive : {0, 1})
    for (auto [Depth, Facts] : {std::pair{4, 1}, {4, 3}, {8, 3}, {12, 5},
                                {12, 8}})
      B->Args({Depth, Facts, Recursive});
}

} // namespace

BENCHMARK(BM_DataflowPerFact)->Apply(chainRows)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DataflowFoldedReference)
    ->Apply(chainRows)
    ->Unit(benchmark::kMillisecond);

CUBA_BENCH_MAIN()
