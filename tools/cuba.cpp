//===-- tools/cuba.cpp - The CUBA command-line verifier --------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end.  Reads a .cpds file (the textual pushdown
/// format) or a .bp file (a concurrent Boolean program, compiled through
/// the frontend), runs the Sec. 6 procedure, and reports the verdict.
///
///   cuba [options] <input.cpds | input.bp>
///     --max-k N            context-bound cap (default 32)
///     --max-states N       stored-state budget (default 2e6)
///     --max-steps N        engine-step budget (default 5e7)
///     --timeout-ms N       wall-clock budget (default 120000)
///     --max-mb N           engine-memory budget in MiB (logical bytes;
///                          default unlimited)
///     --jobs N             worker parallelism (default: $CUBA_JOBS, else
///                          the hardware concurrency; results are
///                          bit-identical for every N)
///     --approach auto|explicit|symbolic
///     --continue-after-bug keep exploring to a convergence bound
///     --trace              print a concrete interleaving on a bug
///     --emit-cpds          print the (translated) system and exit
///     --dump-ast           print the parsed .bp program and exit
///     --stats              dump internal statistics counters (and, for
///                          a symbolic run, the symmetry.classes and
///                          symmetry.threads gauges)
///
/// The `dataflow` subcommand runs the weighted interprocedural taint
/// analysis (dataflow/DataflowEngine) on an annotated Boolean program:
///
///   cuba dataflow [options] <input.bp>
///     --max-k N          context-bound cap (default 8)
///     --max-states/--max-steps/--timeout-ms/--max-mb   engine budgets
///     --jobs N           worker parallelism of the weighted engine and
///                        the --verify reference (results are
///                        bit-identical for every N)
///     --report-facts     print every visible state with its fact set
///     --verify           cross-check against the folded product
///                        reference (exit 70 on disagreement)
///
/// The `fuzz` subcommand drives the randomized differential harness
/// (testing/RandomCpds + testing/DifferentialOracle) instead of a file:
///
///   cuba fuzz [--mode cpds|bp] [--count N] [--seed S] [--max-k K]
///             [--max-mb M] [--jobs N] [--emit-cpds]
///
/// --mode bp swaps the workload for seeded random Boolean programs and
/// checks the whole frontend pipeline per instance (print/parse
/// fixpoint, translation reproducibility, .cpds round-trip) before the
/// engines are compared (testing/RandomBp + testing/BpOracle).
///
/// The base seed comes from --seed, else the CUBA_FUZZ_SEED environment
/// variable, else 1; a failure prints the offending seed and the exact
/// command reproducing it.
///
/// Numeric flag values are validated hard: a malformed or out-of-range
/// value is a named usage error (exit 64), never a silent truncation.
///
/// All three subcommands take the observability outputs:
///
///   --trace-out FILE     write a Chrome trace_event JSON profile of the
///                        run (load it at https://ui.perfetto.dev)
///   --stats-json FILE    write the metrics registry as JSON; the part
///                        outside the "wall" object is byte-identical at
///                        any --jobs
///
/// Exit codes: 0 safety proved / all fuzz instances agree, 1 bug found
/// or differential mismatch, 2 resource limit, 64 usage or input error,
/// 70 internal error (including a --verify disagreement), 74 a requested
/// output file could not be written.
///
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <cstdlib>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "core/CubaDriver.h"
#include "dataflow/DataflowEngine.h"
#include "testing/DataflowOracle.h"
#include "exec/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pds/CpdsIO.h"
#include "psa/SaturationEngine.h"
#include "support/FaultInject.h"
#include "support/Statistic.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "testing/BpOracle.h"
#include "testing/DifferentialOracle.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;

namespace {

/// The observability outputs every subcommand shares: an optional
/// Chrome-trace profile and an optional metrics-registry JSON dump.
struct ObsOutputs {
  std::string TraceOut;  // --trace-out FILE; empty = off.
  std::string StatsJson; // --stats-json FILE; empty = off.

  bool any() const { return !TraceOut.empty() || !StatsJson.empty(); }

  /// Arms trace collection when --trace-out was given; call before any
  /// engine work so every span lands in the buffer.
  void beginTrace() const {
    if (!TraceOut.empty())
      obs::Trace::begin();
  }

  /// Writes the requested files; \p WallExtra lands in the stats
  /// payload's "wall" object.  Returns false after printing a diagnostic
  /// when a file cannot be written (the caller exits 74).
  bool write(const std::vector<std::pair<std::string, std::string>>
                 &WallExtra) const {
    bool Ok = true;
    if (!TraceOut.empty()) {
      obs::Trace::end();
      if (!obs::Trace::writeFile(TraceOut)) {
        std::fprintf(stderr, "cuba: %s: cannot write trace file\n",
                     TraceOut.c_str());
        Ok = false;
      }
    }
    if (!StatsJson.empty()) {
      std::string Json =
          obs::renderStatsJson(obs::Metrics::snapshot(), WallExtra);
      std::FILE *F = std::fopen(StatsJson.c_str(), "wb");
      bool Wrote =
          F && std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
      if (F)
        Wrote = std::fclose(F) == 0 && Wrote;
      if (!Wrote) {
        std::fprintf(stderr, "cuba: %s: cannot write stats file\n",
                     StatsJson.c_str());
        Ok = false;
      }
    }
    return Ok;
  }
};

struct CliOptions {
  std::string InputPath;
  DriverOptions Driver;
  unsigned Jobs = 0; // 0 = unset; resolved via ThreadPool::defaultJobs().
  bool EmitCpds = false;
  bool DumpAst = false;
  bool Stats = false;
  ObsOutputs Obs;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: cuba [options] <input.cpds | input.bp>\n"
      "  --max-k N            context-bound cap (default 32)\n"
      "  --max-states N       stored-state budget (default 2000000)\n"
      "  --max-steps N        engine-step budget (default 50000000)\n"
      "  --timeout-ms N       wall-clock budget (default 120000)\n"
      "  --max-mb N           engine-memory budget in MiB, logical bytes\n"
      "                       (default unlimited; exceeding it reports\n"
      "                       UNDECIDED (memory), never a crash)\n"
      "  --jobs N             worker parallelism (default: $CUBA_JOBS,\n"
      "                       else hardware concurrency; results are\n"
      "                       bit-identical for every N)\n"
      "  --approach A         auto | explicit | symbolic\n"
      "  --continue-after-bug keep exploring to a convergence bound\n"
      "  --trace              print a concrete interleaving on a bug\n"
      "  --emit-cpds          print the (translated) system and exit\n"
      "  --dump-ast           print the parsed .bp program and exit\n"
      "  --stats              dump internal statistics counters\n"
      "  --trace-out FILE     write a Chrome trace_event JSON profile\n"
      "                       (Perfetto-loadable)\n"
      "  --stats-json FILE    write the metrics registry as JSON\n"
      "\n"
      "usage: cuba dataflow [options] <input.bp>\n"
      "                       weighted interprocedural taint analysis\n"
      "  --max-k N            context-bound cap (default 8)\n"
      "  --max-states N       stored-state budget (default 2000000)\n"
      "  --max-steps N        engine-step budget (default 50000000)\n"
      "  --timeout-ms N       wall-clock budget (default 120000)\n"
      "  --max-mb N           engine-memory budget in MiB\n"
      "  --jobs N             worker parallelism of the weighted engine\n"
      "                       and the --verify reference (default:\n"
      "                       $CUBA_JOBS, else hardware concurrency;\n"
      "                       results are bit-identical for every N)\n"
      "  --report-facts       print every visible state with its facts\n"
      "  --verify             cross-check against the folded product\n"
      "                       reference; a disagreement exits 70\n"
      "  --trace-out FILE     write a Chrome trace_event JSON profile\n"
      "  --stats-json FILE    write the metrics registry as JSON\n"
      "\n"
      "usage: cuba fuzz [options]     randomized differential testing\n"
      "  --mode cpds|bp       workload: random CPDS instances (default)\n"
      "                       or random Boolean programs pushed through\n"
      "                       the whole frontend pipeline\n"
      "  --count N            instances to check (default 200)\n"
      "  --seed S             base seed (default: $CUBA_FUZZ_SEED, else 1)\n"
      "  --max-k N            deepest context bound compared (default 4)\n"
      "  --max-mb N           per-instance engine-memory budget in MiB\n"
      "  --jobs N             worker parallelism (default: $CUBA_JOBS,\n"
      "                       else hardware concurrency)\n"
      "  --emit-cpds          print each generated instance\n"
      "  --stats              per-seed wall-clock / peak-bytes lines and\n"
      "                       aggregate cache-hit / truncation rates\n"
      "  --trace-out FILE     write a Chrome trace_event JSON profile\n"
      "  --stats-json FILE    write the metrics registry as JSON\n");
}

//===----------------------------------------------------------------------===//
// Flag-value parsing: malformed or out-of-range values are named hard
// errors, never silent truncations.
//===----------------------------------------------------------------------===//

/// Every context-bound flag feeds an `unsigned`; values past UINT32_MAX
/// used to truncate silently (e.g. --max-k 4294967296 became 0).
constexpr uint64_t MaxKFlagMax = UINT32_MAX;
/// Worker counts beyond any real machine are configuration mistakes,
/// and the old cast-to-unsigned parse truncated 2^32+1 down to 1.
constexpr uint64_t JobsFlagMax = 1024;
/// --max-mb is scaled by `<< 20` into bytes; bounding the MiB value at
/// 2^24 (16 TiB) keeps the shift inside 64 bits instead of wrapping to
/// a tiny (or unlimited) budget.
constexpr uint64_t MaxMbFlagMax = uint64_t(1) << 24;

/// Parses the value of flag \p Flag from Argv[I+1] into \p Out,
/// enforcing [\p Min, \p Max].  On a missing, malformed, or
/// out-of-range value prints a diagnostic naming the flag plus a usage
/// hint and returns false; the caller exits 64 without re-dumping the
/// full usage text.
bool flagValue(std::string_view Flag, int Argc, char **Argv, int &I,
               uint64_t Min, uint64_t Max, uint64_t &Out) {
  static constexpr char Hint[] = "(run 'cuba' with no arguments for usage)";
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "cuba: %.*s expects a value %s\n",
                 static_cast<int>(Flag.size()), Flag.data(), Hint);
    return false;
  }
  const char *Text = Argv[++I];
  auto V = parseUnsigned(Text);
  if (!V || *V < Min || *V > Max) {
    std::fprintf(stderr,
                 "cuba: invalid %.*s value '%s': expected an integer in "
                 "[%llu, %llu] %s\n",
                 static_cast<int>(Flag.size()), Flag.data(), Text,
                 static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max), Hint);
    return false;
  }
  Out = *V;
  return true;
}

/// Like flagValue, but for flags whose value is a string (file paths).
bool stringFlag(std::string_view Flag, int Argc, char **Argv, int &I,
                std::string &Out) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr,
                 "cuba: %.*s expects a value (run 'cuba' with no arguments"
                 " for usage)\n",
                 static_cast<int>(Flag.size()), Flag.data());
    return false;
  }
  Out = Argv[++I];
  return true;
}

//===----------------------------------------------------------------------===//
// Observability context: raw-JSON fragments for the "wall" object of
// --stats-json.
//===----------------------------------------------------------------------===//

/// Quotes \p S as a JSON string (file paths and verdict words).
std::string jsonQuote(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

/// Milliseconds with two decimals, as a raw JSON number.
std::string jsonMillis(double Ms) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", Ms);
  return Buf;
}

/// The pool's per-worker accounting as a JSON array (pure wall-clock
/// telemetry: busy nanoseconds, tasks, and batches per worker).
std::string workersJson(const exec::ThreadPool &Pool) {
  std::string Out = "[";
  for (const exec::WorkerStats &W : Pool.workerStats()) {
    if (Out.size() > 1)
      Out += ", ";
    Out += "{\"busy_ns\": " + std::to_string(W.BusyNs) +
           ", \"tasks\": " + std::to_string(W.Tasks) +
           ", \"batches\": " + std::to_string(W.Batches) + "}";
  }
  return Out + "]";
}

//===----------------------------------------------------------------------===//
// The fuzz subcommand: generate seeded instances and cross-check every
// engine on each one.
//===----------------------------------------------------------------------===//

int runFuzz(int Argc, char **Argv) {
  uint64_t Count = 200;
  uint64_t BaseSeed = 1;
  uint64_t MaxMB = 0;
  unsigned Jobs = 0;
  bool SeedWasSet = false;
  bool EmitCpds = false;
  bool BpMode = false;
  bool Stats = false;
  ObsOutputs Obs;
  testing::OracleOptions Oracle;
  Oracle.MaxK = 4;
  // No wall-clock cutoff: whether a mismatch is reached must depend only
  // on the seed, never on machine speed (the step budget bounds runtime).
  Oracle.Limits = ResourceLimits{10'000, 1'000'000, 8, 0};
  if (const char *Env = std::getenv("CUBA_FUZZ_SEED")) {
    if (auto V = parseUnsigned(Env)) {
      BaseSeed = *V;
      SeedWasSet = true;
    } else {
      std::fprintf(stderr, "cuba fuzz: ignoring malformed CUBA_FUZZ_SEED"
                           " '%s'\n",
                   Env);
    }
  }
  // Testing hook: CUBA_FUZZ_INJECT=drop-combine simulates a lost
  // `combine` in the saturation core (existing transitions never gain
  // weight), so the MISMATCH reporting path itself -- message, program
  // dump, repro line -- is reachable deterministically and can be
  // pinned by golden-output tests.
  if (const char *Inject = std::getenv("CUBA_FUZZ_INJECT"))
    if (std::string_view(Inject) == "drop-combine")
      psa_testing::InjectDropMaskGrowth = true;
  for (int I = 2; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--count") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return 64;
      Count = N;
    } else if (Arg == "--seed") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return 64;
      BaseSeed = N;
      SeedWasSet = true;
    } else if (Arg == "--max-k") {
      if (!flagValue(Arg, Argc, Argv, I, 0, MaxKFlagMax, N))
        return 64;
      Oracle.MaxK = static_cast<unsigned>(N);
    } else if (Arg == "--max-mb") {
      if (!flagValue(Arg, Argc, Argv, I, 0, MaxMbFlagMax, N))
        return 64;
      MaxMB = N;
      Oracle.Limits.MaxBytes = N << 20;
    } else if (Arg == "--jobs") {
      if (!flagValue(Arg, Argc, Argv, I, 1, JobsFlagMax, N))
        return 64;
      Jobs = static_cast<unsigned>(N);
    } else if (Arg == "--emit-cpds") {
      EmitCpds = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--trace-out") {
      if (!stringFlag(Arg, Argc, Argv, I, Obs.TraceOut))
        return 64;
    } else if (Arg == "--stats-json") {
      if (!stringFlag(Arg, Argc, Argv, I, Obs.StatsJson))
        return 64;
    } else if (Arg == "--mode") {
      std::string_view Mode = I + 1 < Argc ? Argv[++I] : "";
      if (Mode == "bp") {
        BpMode = true;
      } else if (Mode != "cpds") {
        std::fprintf(stderr,
                     "cuba: invalid --mode value '%.*s': expected cpds or"
                     " bp (run 'cuba' with no arguments for usage)\n",
                     static_cast<int>(Mode.size()), Mode.data());
        return 64;
      }
    } else {
      printUsage();
      return 64;
    }
  }
  if (Jobs == 0)
    Jobs = exec::ThreadPool::defaultJobs();
  exec::ThreadPool Pool(Jobs);
  Oracle.Pool = &Pool;

  // Repro lines must replay the whole budget, including the memory axis.
  std::string MaxMbRepro =
      MaxMB ? " --max-mb " + std::to_string(MaxMB) : std::string();

  std::printf("fuzz: %llu %s instance(s) from base seed %llu, %u job(s)%s\n",
              static_cast<unsigned long long>(Count),
              BpMode ? "Boolean-program" : "CPDS",
              static_cast<unsigned long long>(BaseSeed), Jobs,
              SeedWasSet ? "" : " (set --seed or CUBA_FUZZ_SEED to vary)");
  uint64_t Exhausted = 0, MemExhausted = 0;
  auto CountExhaustion = [&](const testing::OracleReport &R) {
    Exhausted += R.ExplicitExhausted || R.SymbolicExhausted;
    MemExhausted += R.ExplicitReason == ExhaustKind::Memory ||
                    R.SymbolicReason == ExhaustKind::Memory;
  };
  // Per-seed wall-clock / peak-bytes lines, each carrying the exact
  // single-instance repro command (--stats only; the default output
  // stays one header plus one footer so log filters keep working).
  auto PrintSeedStats = [&](uint64_t Seed, double Millis,
                            uint64_t PeakBytes) {
    if (!Stats)
      return;
    std::printf("stats: seed=%llu wall_ms=%.2f peak_bytes=%llu"
                " reproduce: CUBA_FUZZ_SEED=%llu cuba fuzz%s --count 1"
                " --max-k %u%s --jobs %u\n",
                static_cast<unsigned long long>(Seed), Millis,
                static_cast<unsigned long long>(PeakBytes),
                static_cast<unsigned long long>(Seed),
                BpMode ? " --mode bp" : "", Oracle.MaxK, MaxMbRepro.c_str(),
                Jobs);
  };
  Obs.beginTrace();
  WallTimer FuzzTimer;
  for (uint64_t I = 0; I < Count; ++I) {
    // Seeds wrap modulo 2^64 so a base near UINT64_MAX still runs the
    // requested number of instances.
    uint64_t Seed = BaseSeed + I;

    if (BpMode) {
      // Program-level pipeline: generate a Boolean program, check the
      // print/parse fixpoint, translation reproducibility and the
      // .cpds round-trip, then run the cross-engine oracle on the
      // translated system (testing/BpOracle).
      testing::BpOracleOptions BpOpts;
      BpOpts.Engine = Oracle;
      bp::Program P =
          testing::generateRandomBp(Seed, testing::bpShapeOptions(Seed));
      if (EmitCpds) {
        std::printf("// seed %llu\n%s\n",
                    static_cast<unsigned long long>(Seed),
                    bp::printProgram(P).c_str());
        std::fflush(stdout);
      }
      WallTimer SeedTimer;
      testing::BpOracleReport Rep = testing::runBpOracle(P, BpOpts);
      PrintSeedStats(Seed, SeedTimer.millis(), Rep.Engine.PeakBytes);
      CountExhaustion(Rep.Engine);
      if (!Rep.ok()) {
        std::fprintf(stderr,
                     "fuzz: MISMATCH at seed %llu\n%s\n"
                     "program:\n%s\n"
                     "reproduce: CUBA_FUZZ_SEED=%llu cuba fuzz --mode bp"
                     " --count 1 --max-k %u%s --jobs %u\n",
                     static_cast<unsigned long long>(Seed), Rep.str().c_str(),
                     Rep.Source.c_str(),
                     static_cast<unsigned long long>(Seed), Oracle.MaxK,
                     MaxMbRepro.c_str(), Jobs);
        return 1;
      }
      continue;
    }

    CpdsFile File =
        testing::generateRandomCpds(Seed, testing::cornerShapeOptions(Seed));
    if (EmitCpds) {
      std::printf("# seed %llu\n%s\n",
                  static_cast<unsigned long long>(Seed),
                  printCpds(File).c_str());
    }
    WallTimer SeedTimer;
    testing::OracleReport Rep = testing::runDifferentialOracle(File, Oracle);
    PrintSeedStats(Seed, SeedTimer.millis(), Rep.PeakBytes);
    CountExhaustion(Rep);
    if (!Rep.ok()) {
      std::fprintf(stderr,
                   "fuzz: MISMATCH at seed %llu\n%s\n"
                   "instance:\n%s\n"
                   "reproduce: CUBA_FUZZ_SEED=%llu cuba fuzz --count 1"
                   " --max-k %u%s --jobs %u\n",
                   static_cast<unsigned long long>(Seed), Rep.str().c_str(),
                   printCpds(File).c_str(),
                   static_cast<unsigned long long>(Seed), Oracle.MaxK,
                   MaxMbRepro.c_str(), Jobs);
      return 1;
    }
  }
  std::printf(
      "fuzz: all %llu instance(s) agree (%llu budget-truncated, %llu by"
      " memory)\n",
      static_cast<unsigned long long>(Count),
      static_cast<unsigned long long>(Exhausted),
      static_cast<unsigned long long>(MemExhausted));
  // Aggregates over the whole run: SatCache effectiveness and how often
  // the per-instance budget truncated the comparison.
  uint64_t Trans = obs::Metrics::value("symbolic.transactions");
  uint64_t Cached = obs::Metrics::value("symbolic.transactions.cached");
  if (Stats)
    std::printf("stats: sat-cache hits %llu/%llu (%.1f%%), truncated"
                " %llu/%llu instance(s) (%.1f%%)\n",
                static_cast<unsigned long long>(Cached),
                static_cast<unsigned long long>(Trans),
                Trans ? 100.0 * static_cast<double>(Cached) /
                            static_cast<double>(Trans)
                      : 0.0,
                static_cast<unsigned long long>(Exhausted),
                static_cast<unsigned long long>(Count),
                Count ? 100.0 * static_cast<double>(Exhausted) /
                            static_cast<double>(Count)
                      : 0.0);
  if (Obs.any()) {
    std::vector<std::pair<std::string, std::string>> Wall;
    Wall.emplace_back("subcommand", jsonQuote("fuzz"));
    Wall.emplace_back("mode", jsonQuote(BpMode ? "bp" : "cpds"));
    Wall.emplace_back("base_seed", std::to_string(BaseSeed));
    Wall.emplace_back("count", std::to_string(Count));
    Wall.emplace_back("jobs", std::to_string(Jobs));
    Wall.emplace_back("elapsed_ms", jsonMillis(FuzzTimer.millis()));
    Wall.emplace_back("truncated", std::to_string(Exhausted));
    Wall.emplace_back("truncated_by_memory", std::to_string(MemExhausted));
    Wall.emplace_back("workers", workersJson(Pool));
    if (!Obs.write(Wall))
      return 74;
  }
  return 0;
}

/// Ok: proceed.  Usage: unknown argument or missing input, caller dumps
/// the full usage text.  Diagnosed: a named flag error was already
/// printed; the caller just exits 64.
enum class ParseResult { Ok, Usage, Diagnosed };

ParseResult parseArgs(int Argc, char **Argv, CliOptions &Cli) {
  RunOptions &Run = Cli.Driver.Run;
  Run.Limits.MaxContexts = 32;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--max-k") {
      if (!flagValue(Arg, Argc, Argv, I, 0, MaxKFlagMax, N))
        return ParseResult::Diagnosed;
      Run.Limits.MaxContexts = static_cast<unsigned>(N);
    } else if (Arg == "--max-states") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return ParseResult::Diagnosed;
      Run.Limits.MaxStates = N;
    } else if (Arg == "--max-steps") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return ParseResult::Diagnosed;
      Run.Limits.MaxSteps = N;
    } else if (Arg == "--timeout-ms") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return ParseResult::Diagnosed;
      Run.Limits.MaxMillis = N;
    } else if (Arg == "--max-mb") {
      if (!flagValue(Arg, Argc, Argv, I, 0, MaxMbFlagMax, N))
        return ParseResult::Diagnosed;
      Run.Limits.MaxBytes = N << 20;
    } else if (Arg == "--jobs") {
      if (!flagValue(Arg, Argc, Argv, I, 1, JobsFlagMax, N))
        return ParseResult::Diagnosed;
      Cli.Jobs = static_cast<unsigned>(N);
    } else if (Arg == "--approach") {
      std::string_view A = I + 1 < Argc ? Argv[++I] : "";
      if (A == "explicit") {
        Cli.Driver.Force = ApproachKind::ExplicitCombined;
      } else if (A == "symbolic") {
        Cli.Driver.Force = ApproachKind::Symbolic;
      } else if (A != "auto") {
        std::fprintf(stderr,
                     "cuba: invalid --approach value '%.*s': expected auto,"
                     " explicit, or symbolic (run 'cuba' with no arguments"
                     " for usage)\n",
                     static_cast<int>(A.size()), A.data());
        return ParseResult::Diagnosed;
      }
    } else if (Arg == "--continue-after-bug") {
      Run.ContinueAfterBug = true;
    } else if (Arg == "--trace") {
      Run.BuildTrace = true;
    } else if (Arg == "--emit-cpds") {
      Cli.EmitCpds = true;
    } else if (Arg == "--dump-ast") {
      Cli.DumpAst = true;
    } else if (Arg == "--stats") {
      Cli.Stats = true;
    } else if (Arg == "--trace-out") {
      if (!stringFlag(Arg, Argc, Argv, I, Cli.Obs.TraceOut))
        return ParseResult::Diagnosed;
    } else if (Arg == "--stats-json") {
      if (!stringFlag(Arg, Argc, Argv, I, Cli.Obs.StatsJson))
        return ParseResult::Diagnosed;
    } else if (!Arg.empty() && Arg[0] != '-' && Cli.InputPath.empty()) {
      Cli.InputPath = Arg;
    } else {
      return ParseResult::Usage;
    }
  }
  return Cli.InputPath.empty() ? ParseResult::Usage : ParseResult::Ok;
}

/// Reports \p E against the input \p Path; returns the usage exit code.
int inputError(const std::string &Path, const Error &E) {
  std::fprintf(stderr, "cuba: %s: %s\n", Path.c_str(), E.str().c_str());
  return 64;
}

bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

ErrorOr<std::string> readFile(const std::string &Path) {
  // No path in the message: every caller prefixes "cuba: <path>: ".
  // The Io fault point degrades exactly like an unreadable file.
  if (fault::fire(fault::Point::Io))
    return Error("injected I/O fault");
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error("cannot open file");
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  return Text;
}

ErrorOr<CpdsFile> loadInput(const std::string &Path) {
  if (endsWith(Path, ".bp")) {
    auto Text = readFile(Path);
    if (!Text)
      return Text.error();
    return bp::compileBooleanProgram(*Text);
  }
  return parseCpdsFile(Path);
}

//===----------------------------------------------------------------------===//
// The dataflow subcommand: weighted interprocedural taint analysis.
//===----------------------------------------------------------------------===//

/// Renders one folded visible state with its fact set decoded, for
/// --report-facts.
std::string renderDataflowState(const Cpds &C, const bp::TaintInfo &Taint,
                                const VisibleState &V, unsigned Round) {
  QState FoldErr = static_cast<QState>(1)
                   << (Taint.SharedBits + Taint.FactNames.size());
  std::string Out = "k=" + std::to_string(Round) + " ";
  if (V.Q == FoldErr) {
    Out += "err";
  } else {
    Out += "q=" + std::to_string(V.Q & ((1u << Taint.SharedBits) - 1));
    uint32_t Facts = V.Q >> Taint.SharedBits;
    std::string List;
    for (size_t F = 0; F < Taint.FactNames.size(); ++F)
      if (Facts & (1u << F))
        List += (List.empty() ? "" : ",") + Taint.FactNames[F];
    Out += " facts={" + List + "}";
  }
  for (unsigned I = 0; I < V.Tops.size(); ++I)
    Out += " | " + C.thread(I).symbolName(V.Tops[I]);
  return Out;
}

int runDataflow(int Argc, char **Argv) {
  std::string Input;
  ResourceLimits Limits;
  Limits.MaxContexts = 8;
  unsigned Jobs = 0;
  bool Verify = false;
  bool ReportFacts = false;
  ObsOutputs Obs;
  for (int I = 2; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--max-k") {
      if (!flagValue(Arg, Argc, Argv, I, 0, MaxKFlagMax, N))
        return 64;
      Limits.MaxContexts = static_cast<unsigned>(N);
    } else if (Arg == "--max-states") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return 64;
      Limits.MaxStates = N;
    } else if (Arg == "--max-steps") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return 64;
      Limits.MaxSteps = N;
    } else if (Arg == "--timeout-ms") {
      if (!flagValue(Arg, Argc, Argv, I, 0, UINT64_MAX, N))
        return 64;
      Limits.MaxMillis = N;
    } else if (Arg == "--max-mb") {
      if (!flagValue(Arg, Argc, Argv, I, 0, MaxMbFlagMax, N))
        return 64;
      Limits.MaxBytes = N << 20;
    } else if (Arg == "--jobs") {
      if (!flagValue(Arg, Argc, Argv, I, 1, JobsFlagMax, N))
        return 64;
      Jobs = static_cast<unsigned>(N);
    } else if (Arg == "--verify") {
      Verify = true;
    } else if (Arg == "--report-facts") {
      ReportFacts = true;
    } else if (Arg == "--trace-out") {
      if (!stringFlag(Arg, Argc, Argv, I, Obs.TraceOut))
        return 64;
    } else if (Arg == "--stats-json") {
      if (!stringFlag(Arg, Argc, Argv, I, Obs.StatsJson))
        return 64;
    } else if (!Arg.empty() && Arg[0] != '-' && Input.empty()) {
      Input = Arg;
    } else {
      printUsage();
      return 64;
    }
  }
  if (Input.empty() || !endsWith(Input, ".bp")) {
    std::fprintf(stderr, "cuba dataflow: needs one .bp input file\n");
    printUsage();
    return 64;
  }

  auto Text = readFile(Input);
  if (!Text)
    return inputError(Input, Text.error());
  auto Prog = bp::parseProgram(*Text);
  if (!Prog)
    return inputError(Input, Prog.error());
  auto Info = bp::analyzeProgram(*Prog);
  if (!Info)
    return inputError(Input, Info.error());

  bp::TaintInfo Taint;
  bp::TranslateOptions TOpts;
  TOpts.Taint = &Taint;
  Obs.beginTrace();
  auto File = bp::translateProgram(*Prog, *Info, TOpts);
  if (!File)
    return inputError(Input, File.error());

  if (Jobs == 0)
    Jobs = exec::ThreadPool::defaultJobs();
  exec::ThreadPool Pool(Jobs);
  WallTimer T;
  DataflowEngine W(File->System, Taint, Limits);
  W.setParallel(&Pool);
  bool Exhausted = false;
  while (!Exhausted && W.bound() < Limits.MaxContexts && !W.frontierEmpty())
    Exhausted = W.advance() == DataflowEngine::RoundStatus::Exhausted;
  bool Converged = !Exhausted && W.frontierEmpty();
  std::vector<SinkHit> Hits = W.sinkHits();

  std::printf("input:     %s\n", Input.c_str());
  std::string FactList;
  for (const std::string &F : Taint.FactNames)
    FactList += (FactList.empty() ? "" : ", ") + F;
  std::printf("facts:     %zu (%s)\n", Taint.FactNames.size(),
              FactList.c_str());
  std::printf("sinks:     %zu site(s)\n", Taint.Sinks.size());
  std::printf("explored:  k_max=%u%s, states=%zu, visible=%zu,"
              " saturations=%zu\n",
              W.bound(), Converged ? " (converged)" : "",
              W.symbolicStateCount(), W.visibleSize(), W.saturationCount());
  std::printf("resources: %.2f ms, %.1f MB peak\n", T.millis(),
              static_cast<double>(W.limits().peakBytes()) / (1024 * 1024));

  if (ReportFacts)
    for (const auto &[V, Round] : W.visibleFirstSeen())
      std::printf("visible:   %s\n",
                  renderDataflowState(File->System, Taint, V, Round).c_str());

  for (const SinkHit &H : Hits)
    std::printf("leak:      thread %u at '%s' may observe tainted '%s'"
                " (first at k=%u)\n",
                H.Thread,
                File->System.thread(H.Thread).symbolName(H.Frame).c_str(),
                Taint.FactNames[H.Fact].c_str(), H.Round);

  if (Verify) {
    testing::DataflowOracleOptions OOpts;
    OOpts.MaxK = Limits.MaxContexts;
    OOpts.Limits = Limits;
    OOpts.Pool = &Pool;
    testing::DataflowOracleReport Rep =
        testing::runDataflowOracle(*Prog, OOpts);
    if (Rep.FoldedRejected) {
      std::printf("verify:    skipped (the folded product exceeds the"
                  " frontend size guard)\n");
    } else if (!Rep.ok()) {
      std::fprintf(stderr, "cuba dataflow: verify MISMATCH against the"
                           " folded product reference\n%s\n",
                   Rep.str().c_str());
      return 70;
    } else {
      std::printf("verify:    agrees with the folded product reference"
                  " (k <= %u, %u job(s))\n",
                  Rep.KCompared, Jobs);
    }
  }

  if (Obs.any()) {
    std::vector<std::pair<std::string, std::string>> Wall;
    Wall.emplace_back("subcommand", jsonQuote("dataflow"));
    Wall.emplace_back("input", jsonQuote(Input));
    Wall.emplace_back("verdict", jsonQuote(!Hits.empty()  ? "leak"
                                           : Exhausted    ? "undecided"
                                                          : "safe"));
    Wall.emplace_back("k_max", std::to_string(W.bound()));
    Wall.emplace_back("jobs", std::to_string(Jobs));
    Wall.emplace_back("elapsed_ms", jsonMillis(T.millis()));
    Wall.emplace_back("peak_bytes", std::to_string(W.limits().peakBytes()));
    Wall.emplace_back("workers", workersJson(Pool));
    if (!Obs.write(Wall))
      return 74;
  }

  if (!Hits.empty()) {
    std::printf("verdict:   LEAK within %u contexts\n", Hits.front().Round);
    return 1;
  }
  if (Exhausted) {
    std::printf("verdict:   UNDECIDED within the resource budget"
                " (explored k <= %u, exhausted: %s)\n",
                W.bound(), exhaustKindName(W.limits().reason()));
    return 2;
  }
  if (Converged)
    std::printf("verdict:   SAFE for every context bound"
                " (state space converged at k = %u)\n",
                W.bound());
  else
    std::printf("verdict:   SAFE up to the context bound k = %u\n",
                W.bound());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) try {
  // CUBA_FAULT_POINT / CUBA_FAULT_AT arm the deterministic fault
  // harness for whole-binary robustness sweeps (no-op when unset).
  fault::armFromEnv();

  if (Argc > 1 && std::string_view(Argv[1]) == "fuzz")
    return runFuzz(Argc, Argv);
  if (Argc > 1 && std::string_view(Argv[1]) == "dataflow")
    return runDataflow(Argc, Argv);

  CliOptions Cli;
  switch (parseArgs(Argc, Argv, Cli)) {
  case ParseResult::Ok:
    break;
  case ParseResult::Usage:
    printUsage();
    return 64;
  case ParseResult::Diagnosed:
    return 64; // The named flag error already carried the usage hint.
  }

  if (Cli.DumpAst) {
    if (!endsWith(Cli.InputPath, ".bp")) {
      std::fprintf(stderr, "cuba: --dump-ast needs a .bp input\n");
      return 64;
    }
    auto Text = readFile(Cli.InputPath);
    if (!Text)
      return inputError(Cli.InputPath, Text.error());
    auto Prog = bp::parseProgram(*Text);
    if (!Prog)
      return inputError(Cli.InputPath, Prog.error());
    std::string Out = bp::printProgram(*Prog);
    std::fwrite(Out.data(), 1, Out.size(), stdout);
    return 0;
  }

  // Armed before loading, so a .bp input's translate span lands too.
  Cli.Obs.beginTrace();
  auto File = loadInput(Cli.InputPath);
  if (!File)
    return inputError(Cli.InputPath, File.error());

  if (Cli.EmitCpds) {
    std::string Text = printCpds(*File);
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return 0;
  }

  unsigned Jobs = Cli.Jobs ? Cli.Jobs : exec::ThreadPool::defaultJobs();
  exec::ThreadPool Pool(Jobs);
  Cli.Driver.Run.Pool = &Pool;

  DriverResult R = runCuba(File->System, File->Property, Cli.Driver);

  std::printf("input:     %s\n", Cli.InputPath.c_str());
  std::printf("threads:   %u\n", File->System.numThreads());
  std::printf("jobs:      %u\n", Jobs);
  std::printf("fcr:       %s\n", R.Fcr.Holds ? "holds" : "not established");
  std::printf("approach:  %s\n", R.Used == ApproachKind::ExplicitCombined
                                     ? "explicit (Scheme1 || Alg3)"
                                     : "symbolic (Alg3 over T(Sk))");
  switch (R.Run.outcome()) {
  case Outcome::Proved:
    std::printf("verdict:   SAFE for every context bound "
                "(sequence collapsed at k0 = %u)\n",
                *R.Run.ConvergedAt);
    break;
  case Outcome::BugFound:
    std::printf("verdict:   BUG reachable within %u contexts\n",
                *R.Run.BugBound);
    std::printf("witness:   %s\n", R.Run.Witness.c_str());
    if (!R.Run.Trace.empty())
      std::printf("trace:\n%s", R.Run.Trace.c_str());
    break;
  case Outcome::ResourceLimit:
    // ExhaustedBy is None when only the context bound (--max-k) ran out.
    std::printf("verdict:   UNDECIDED within the resource budget "
                "(explored k <= %u, exhausted: %s)\n",
                R.Run.KMax,
                R.Run.ExhaustedBy == ExhaustKind::None
                    ? "contexts"
                    : exhaustKindName(R.Run.ExhaustedBy));
    break;
  }
  std::printf("explored:  k_max=%u, states=%llu, visible=%llu\n", R.Run.KMax,
              static_cast<unsigned long long>(R.Run.StatesStored),
              static_cast<unsigned long long>(R.Run.VisibleStates));
  std::printf("resources: %.2f ms, %.1f MB peak\n", R.Run.Millis,
              R.PeakMemMB);

  if (Cli.Stats) {
    std::printf("--- statistics ---\n");
    for (const auto &[Name, Value] : Statistics::snapshot())
      std::printf("%10llu  %s\n", static_cast<unsigned long long>(Value),
                  Name.c_str());
    // The classes of identical threads the symbolic rounds ran on.
    if (R.Used == ApproachKind::Symbolic)
      for (const char *Name : {"symmetry.classes", "symmetry.threads"})
        std::printf("%10llu  %s\n",
                    static_cast<unsigned long long>(obs::Metrics::value(Name)),
                    Name);
  }

  if (Cli.Obs.any()) {
    std::vector<std::pair<std::string, std::string>> Wall;
    Wall.emplace_back("subcommand", jsonQuote("run"));
    Wall.emplace_back("input", jsonQuote(Cli.InputPath));
    Wall.emplace_back("jobs", std::to_string(Jobs));
    Wall.emplace_back("approach",
                      jsonQuote(R.Used == ApproachKind::ExplicitCombined
                                    ? "explicit"
                                    : "symbolic"));
    Wall.emplace_back("verdict", jsonQuote(outcomeName(R.Run.outcome())));
    Wall.emplace_back("elapsed_ms", jsonMillis(R.Run.Millis));
    Wall.emplace_back("workers", workersJson(Pool));
    if (!Cli.Obs.write(Wall))
      return 74;
  }

  switch (R.Run.outcome()) {
  case Outcome::Proved:
    return 0;
  case Outcome::BugFound:
    return 1;
  case Outcome::ResourceLimit:
    return 2;
  }
  return 2;
} catch (const std::bad_alloc &) {
  // Out of memory anywhere the engines' guards do not cover (frontend,
  // pool construction, report formatting): still a clean exit with the
  // resource-limit code, never a crash.
  std::fprintf(stderr, "cuba: out of memory\n");
  return 2;
} catch (const std::exception &E) {
  std::fprintf(stderr, "cuba: internal error: %s\n", E.what());
  return 70; // EX_SOFTWARE
}
