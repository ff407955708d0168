//===-- bench/bench_dataflow.cpp - Weighted dataflow microbench ------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the weighted dataflow client
/// (dataflow/DataflowEngine): interprocedural GEN/KILL taint rounds on
/// synthetic annotated Boolean programs, against the naive
/// fold-the-facts product construction run through the explicit engine.
/// The pair quantifies what the set-of-transformers weights buy: the
/// folded reference pays a 2^facts control-state blowup per round, the
/// weighted engine pays per *distinct summary* instead.  Emits
/// BENCH_dataflow.json via --benchmark_format=json; see BUILDING.md.
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
#include "dataflow/DataflowEngine.h"
#include "support/Limits.h"

using namespace cuba;

namespace {

constexpr unsigned MaxK = 4;

/// A call chain of \p Depth functions threading \p Facts taint facts:
/// the head sources every fact, interior frames alternately sanitize
/// and re-source one fact (so summaries genuinely differ per depth),
/// and the tail sinks them all.  A second thread races re-sources
/// against the chain, keeping every context switch relevant.
std::string makeTaintProgram(unsigned Depth, unsigned Facts) {
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
    if (D + 1 < Depth)
      Src += "  call w" + std::to_string(D + 1) + "();\n";
    else
      for (unsigned F = 0; F < Facts; ++F)
        Src += "  sink(x" + std::to_string(F) + ");\n";
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
  return L;
}

/// The chain program of \p State's (depth, facts) row, translated with
/// \p Opts.  A rejected program skips the row with the diagnostic and
/// yields nullopt.
std::optional<CpdsFile> translateChain(benchmark::State &State,
                                       const bp::TranslateOptions &Opts) {
  auto Skip = [&](const Error &E) {
    State.SkipWithError(E.str().c_str());
    return std::nullopt;
  };
  auto Prog = bp::parseProgram(
      makeTaintProgram(static_cast<unsigned>(State.range(0)),
                       static_cast<unsigned>(State.range(1))));
  if (!Prog)
    return Skip(Prog.error());
  auto Info = bp::analyzeProgram(*Prog);
  if (!Info)
    return Skip(Info.error());
  auto File = bp::translateProgram(*Prog, *Info, Opts);
  if (!File)
    return Skip(File.error());
  return std::move(*File);
}

/// Weighted rounds: saturate with transformer sets, extract per-root
/// products, run to the context bound (or convergence).
void BM_DataflowWeighted(benchmark::State &State) {
  bp::TaintInfo Taint;
  bp::TranslateOptions Opts;
  Opts.Taint = &Taint;
  std::optional<CpdsFile> File = translateChain(State, Opts);
  if (!File)
    return;
  size_t Visible = 0;
  for (auto _ : State) {
    DataflowEngine W(File->System, Taint, benchLimits());
    while (W.bound() < MaxK && !W.frontierEmpty())
      if (W.advance() != DataflowEngine::RoundStatus::Ok)
        break;
    Visible = W.visibleSize();
    benchmark::DoNotOptimize(Visible);
  }
  State.counters["visible"] = static_cast<double>(Visible);
}

/// The folded product reference: fact bits in the control state, the
/// ordinary explicit engine underneath -- the 2^facts baseline.
void BM_DataflowFoldedReference(benchmark::State &State) {
  bp::TranslateOptions Opts;
  Opts.FoldTaint = true;
  std::optional<CpdsFile> File = translateChain(State, Opts);
  if (!File)
    return;
  size_t Visible = 0;
  for (auto _ : State) {
    CbaEngine Ref(File->System, benchLimits());
    for (unsigned K = 0; K < MaxK; ++K)
      if (Ref.advance() != CbaEngine::RoundStatus::Ok)
        break;
    Visible = Ref.visibleFirstSeen().size();
    benchmark::DoNotOptimize(Visible);
  }
  State.counters["visible"] = static_cast<double>(Visible);
}

} // namespace

// Depth x facts: deeper chains grow the summary compositions, more
// facts grow the folded baseline exponentially.  The folded 12 x 8 row
// reaches 3,473,408 of translate's 4,000,000 rule slots: each thread
// reaches only its own chain, so it translates.
BENCHMARK(BM_DataflowWeighted)
    ->ArgNames({"depth", "facts"})
    ->Args({4, 1})
    ->Args({4, 3})
    ->Args({8, 3})
    ->Args({12, 5})
    ->Args({12, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DataflowFoldedReference)
    ->ArgNames({"depth", "facts"})
    ->Args({4, 1})
    ->Args({4, 3})
    ->Args({8, 3})
    ->Args({12, 5})
    ->Args({12, 8})
    ->Unit(benchmark::kMillisecond);

CUBA_BENCH_MAIN()
