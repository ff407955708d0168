//===-- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the table/figure regeneration harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_BENCH_BENCHUTIL_H
#define CUBA_BENCH_BENCHUTIL_H

#include <cstdio>
#include <optional>
#include <string>

#ifdef CUBA_BENCH_CONTEXT
#include <benchmark/benchmark.h>

#include "exec/ThreadPool.h"
#endif

namespace cuba::benchutil {

/// Formats an optional bound: the value, or ">=k" when the method was
/// interrupted at bound k before concluding (Table 2's notation).
inline std::string boundOrGe(std::optional<unsigned> Bound, unsigned KMax) {
  if (Bound)
    return std::to_string(*Bound);
  return ">=" + std::to_string(KMax);
}

inline void rule(char C = '-', int Width = 78) {
  for (int I = 0; I < Width; ++I)
    std::fputc(C, stdout);
  std::fputc('\n', stdout);
}

#ifdef CUBA_BENCH_CONTEXT
/// Stamps the google-benchmark JSON "context" object with the run's
/// provenance -- commit, build type, sanitizer config, and the default
/// worker count -- so a committed BENCH_*.json says what it measured.
/// Call after benchmark::Initialize, before RunSpecifiedBenchmarks; the
/// macros come from bench/CMakeLists.txt.
inline void addRunContext() {
  benchmark::AddCustomContext("cuba_git_sha", CUBA_BENCH_GIT_SHA);
  benchmark::AddCustomContext("cuba_build_type", CUBA_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("cuba_tsan", CUBA_BENCH_TSAN ? "1" : "0");
  benchmark::AddCustomContext("cuba_asan", CUBA_BENCH_ASAN ? "1" : "0");
  benchmark::AddCustomContext(
      "cuba_jobs", std::to_string(cuba::exec::ThreadPool::defaultJobs()));
}

/// The BENCHMARK_MAIN expansion plus the context stamp; every
/// google-benchmark harness here uses it via CUBA_BENCH_MAIN.
inline int benchMain(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  addRunContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
#define CUBA_BENCH_MAIN()                                                    \
  int main(int argc, char **argv) {                                          \
    return cuba::benchutil::benchMain(argc, argv);                           \
  }
#endif

} // namespace cuba::benchutil

#endif // CUBA_BENCH_BENCHUTIL_H
