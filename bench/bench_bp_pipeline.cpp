//===-- bench/bench_bp_pipeline.cpp - Boolean-program pipeline bench -------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark timings for the Boolean-program frontend pipeline,
/// staged over the committed examples/corpus models: parse (lex +
/// AST), compile (parse + sema + translate to CPDS), and verdict (the
/// full Sec. 6 driver on the translation).  Compile also runs on the
/// generated programs of seeds 4, 26 (128 shared valuations) and 95
/// (256), the most translate-heavy of verifybench's randombp pool,
/// named gen-<seed>.  A fourth counter-style
/// benchmark measures one whole `cuba fuzz --mode bp` iteration, so the
/// JSON tracks fuzz throughput per commit.  Emits BENCH_bp.json via
/// --benchmark_format=json; see BUILDING.md.
///
//===----------------------------------------------------------------------===//

#include <benchmark/benchmark.h>

#include "BenchUtil.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Translate.h"
#include "core/CubaDriver.h"
#include "testing/BpOracle.h"
#include "testing/RandomBp.h"

using namespace cuba;

namespace {

struct CorpusModel {
  std::string Name;
  std::string Source;
};

std::vector<CorpusModel> loadCorpus() {
  std::vector<CorpusModel> Models;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CUBA_CORPUS_DIR)) {
    if (Entry.path().extension() != ".bp")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream SS;
    SS << In.rdbuf();
    Models.push_back({Entry.path().stem().string(), SS.str()});
  }
  std::sort(Models.begin(), Models.end(),
            [](const CorpusModel &A, const CorpusModel &B) {
              return A.Name < B.Name;
            });
  return Models;
}

/// The verdict budget of the corpus golden tests (state/step bounded,
/// no wall clock), so bench and test run the same workload.
DriverOptions verdictOptions() {
  DriverOptions O;
  O.Run.Limits = ResourceLimits{500'000, 50'000'000, 24, 0};
  return O;
}

void BM_BpParse(benchmark::State &State, const CorpusModel &M) {
  for (auto _ : State) {
    auto P = bp::parseProgram(M.Source);
    benchmark::DoNotOptimize(P);
  }
}

void BM_BpCompile(benchmark::State &State, const CorpusModel &M) {
  for (auto _ : State) {
    auto F = bp::compileBooleanProgram(M.Source);
    benchmark::DoNotOptimize(F);
  }
}

void BM_BpVerdict(benchmark::State &State, const CorpusModel &M) {
  auto F = bp::compileBooleanProgram(M.Source);
  if (!F) {
    State.SkipWithError("corpus model does not compile");
    return;
  }
  DriverOptions O = verdictOptions();
  for (auto _ : State) {
    DriverResult R = runCuba(F->System, F->Property, O);
    benchmark::DoNotOptimize(R.Run.VisibleStates);
  }
}

/// One full fuzz iteration: generate a random program, then run the
/// whole cross-representation oracle on it (print/parse fixpoint, dual
/// compile, .cpds round-trip, engine battery).  Seeds advance per
/// iteration so the numbers average over program shapes, same as a real
/// `cuba fuzz --mode bp` run.
void BM_BpFuzzIteration(benchmark::State &State) {
  using namespace cuba::testing;
  BpOracleOptions Opts;
  Opts.Engine.MaxK = 4;
  Opts.Engine.Limits = ResourceLimits{10'000, 1'000'000, 8, 0};
  uint64_t Seed = 1;
  for (auto _ : State) {
    BpOracleReport R = checkBpSeed(Seed, Opts);
    benchmark::DoNotOptimize(R.ok());
    ++Seed;
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK(BM_BpFuzzIteration);

} // namespace

int main(int argc, char **argv) {
  std::vector<CorpusModel> Corpus = loadCorpus();
  for (const CorpusModel &M : Corpus) {
    benchmark::RegisterBenchmark(
        ("BM_BpParse/" + M.Name).c_str(),
        [M](benchmark::State &S) { BM_BpParse(S, M); });
    benchmark::RegisterBenchmark(
        ("BM_BpCompile/" + M.Name).c_str(),
        [M](benchmark::State &S) { BM_BpCompile(S, M); });
    benchmark::RegisterBenchmark(
        ("BM_BpVerdict/" + M.Name).c_str(),
        [M](benchmark::State &S) { BM_BpVerdict(S, M); });
  }
  for (uint64_t Seed : {4, 26, 95}) {
    CorpusModel M{"gen-" + std::to_string(Seed),
                  bp::printProgram(testing::generateRandomBp(
                      Seed, testing::bpShapeOptions(Seed)))};
    benchmark::RegisterBenchmark(
        ("BM_BpCompile/" + M.Name).c_str(),
        [M](benchmark::State &S) { BM_BpCompile(S, M); });
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  cuba::benchutil::addRunContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
