//===-- tools/cuba.cpp - The CUBA command-line verifier --------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end with three subcommands:
///
///   cuba [options] <input.cpds | input.bp>
///     reads a .cpds file (the textual pushdown format) or a .bp file (a
///     concurrent Boolean program, compiled through the frontend), runs
///     the Sec. 6 procedure, and reports the verdict;
///   cuba dataflow [options] <input.bp>
///     runs the interprocedural taint analysis on an annotated Boolean
///     program: one CUBA run per fact (dataflow/TaintFolds);
///   cuba fuzz [options]
///     drives the randomized differential harness on seeded random CPDS
///     instances (testing/RandomCpds + testing/DifferentialOracle) or,
///     with --mode bp, on random Boolean programs pushed through the
///     whole frontend pipeline first (testing/RandomBp +
///     testing/BpOracle).  The base seed comes from --seed, else the
///     CUBA_FUZZ_SEED environment variable, else 1; a failure prints the
///     offending seed and the exact command reproducing it.
///
/// Every flag is declared once, in the Flags table below: the
/// subcommands that take it, its value, the Options field it sets and
/// its help text.  One loop parses every subcommand's command line from
/// the table, and `cuba` with no arguments prints each subcommand's
/// flags from the same rows.  A malformed or out-of-range value is a
/// named usage error (exit 64), never a silent truncation.
///
/// Exit codes: 0 safety proved / all fuzz instances agree, 1 bug found
/// or differential mismatch, 2 resource limit, 64 usage or input error,
/// 70 internal error (including a --verify disagreement), 74 a requested
/// output file could not be written.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "core/CubaDriver.h"
#include "dataflow/TaintFolds.h"
#include "exec/ThreadPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pds/CpdsIO.h"
#include "psa/SaturationEngine.h"
#include "support/FaultInject.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "testing/BpOracle.h"
#include "testing/DataflowOracle.h"
#include "testing/DifferentialOracle.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;

namespace {

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

/// Everything a subcommand reads from its command line.  The Flags table
/// sets every field but Input; the --max-k default of the subcommand and
/// the fuzz seed from CUBA_FUZZ_SEED are set before parsing.
struct Options {
  std::string Input; // The positional input (run and dataflow).
  uint64_t MaxK = 0;
  uint64_t MaxStates = ResourceLimits().MaxStates;
  uint64_t MaxSteps = ResourceLimits().MaxSteps;
  uint64_t TimeoutMs = ResourceLimits().MaxMillis;
  uint64_t MaxMB = 0; // 0 = unlimited.
  uint64_t Jobs = 0;  // 0 = ThreadPool::defaultJobs().
  uint64_t Count = 200;
  std::optional<uint64_t> Seed; // Unset: base seed 1.
  std::string Approach = "auto";
  std::string Mode = "cpds";
  std::string TraceOut;  // Empty = off.
  std::string StatsJson; // Empty = off.
  bool ContinueAfterBug = false;
  bool Trace = false;
  bool EmitCpds = false;
  bool DumpAst = false;
  bool ReportFacts = false;
  bool Verify = false;
  bool Stats = false;

  unsigned jobs() const {
    return Jobs ? static_cast<unsigned>(Jobs)
                : exec::ThreadPool::defaultJobs();
  }

  /// The engine budget of run and dataflow (fuzz keeps its own).
  ResourceLimits limits() const {
    ResourceLimits L;
    L.MaxStates = MaxStates;
    L.MaxSteps = MaxSteps;
    L.MaxContexts = static_cast<unsigned>(MaxK);
    L.MaxMillis = TimeoutMs;
    L.MaxBytes = MaxMB << 20;
    return L;
  }

  /// Arms trace collection when --trace-out was given; call before any
  /// engine work so every span lands in the buffer.
  void beginTrace() const {
    if (!TraceOut.empty())
      obs::Trace::begin();
  }

  /// Writes the requested files, if any.  The stats payload's "wall"
  /// object holds the subcommand \p Sub, then \p Wall, then \p Pool's
  /// per-worker accounting.  Returns false after printing a diagnostic
  /// when a file cannot be written (the caller exits 74).
  bool writeObs(const char *Sub, const exec::ThreadPool &Pool,
                std::vector<std::pair<std::string, std::string>> Wall) const {
    Wall.emplace(Wall.begin(), "subcommand", jsonQuote(Sub));
    Wall.emplace_back("workers", workersJson(Pool));
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
          obs::renderStatsJson(obs::Metrics::snapshot(), Wall);
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

//===----------------------------------------------------------------------===//
// The command line: one table of subcommands, one table of flags.
//===----------------------------------------------------------------------===//

struct Subcommand {
  const char *Name; // argv[1]; the verifier itself has none.
  const char *Synopsis;
  const char *About;
  uint64_t MaxK; // The --max-k default.
};

const Subcommand Subcommands[] = {
    {nullptr, "cuba [options] <input.cpds | input.bp>",
     "prove safety for every context bound, or find a bug", 32},
    {"dataflow", "cuba dataflow [options] <input.bp>",
     "interprocedural taint analysis, one CUBA run per fact that has a "
     "sink: the fact's bit joins the control state (exact, since taint "
     "annotations never steer control), and the run takes the explicit "
     "engine when FCR holds, else the symbolic one; the runs share one "
     "budget of states, steps and time, and --max-mb bounds each run",
     8},
    {"fuzz", "cuba fuzz [options]", "randomized differential testing", 4},
};

/// Bit i of Flag::Cmds stands for Subcommands[i].
enum : unsigned { RunCmd = 1, DataflowCmd = 2, FuzzCmd = 4, AllCmds = 7 };

/// The Options field a flag sets; its type gives the value the flag
/// takes: none (a switch), an integer, or text.
using Field = std::variant<bool Options::*, uint64_t Options::*,
                           std::optional<uint64_t> Options::*,
                           std::string Options::*>;

struct Flag {
  const char *Name;
  unsigned Cmds;
  Field Target;
  const char *Help;
  /// The value's name in the usage text; for a text flag, "a|b|c" lists
  /// the only words it takes.
  const char *Value = nullptr;
  /// The accepted range of an integer value.
  uint64_t Min = 0;
  uint64_t Max = UINT64_MAX;
};

const Flag Flags[] = {
    // Every context bound lands in an `unsigned`, where the engines read
    // 0 as no cap.
    {"--max-k", AllCmds, &Options::MaxK,
     "context-bound cap (default 32; dataflow 8; fuzz 4, the deepest bound "
     "compared)",
     "N", 1, UINT32_MAX},
    {"--max-states", RunCmd | DataflowCmd, &Options::MaxStates,
     "stored-state budget (default 2000000)", "N"},
    {"--max-steps", RunCmd | DataflowCmd, &Options::MaxSteps,
     "engine-step budget (default 50000000)", "N"},
    {"--timeout-ms", RunCmd | DataflowCmd, &Options::TimeoutMs,
     "wall-clock budget (default 120000)", "N"},
    // Scaled by `<< 20` into bytes; 2^24 MiB (16 TiB) keeps the shift
    // inside 64 bits instead of wrapping to a tiny or unlimited budget.
    {"--max-mb", AllCmds, &Options::MaxMB,
     "engine-memory budget in MiB, logical bytes, per instance for fuzz "
     "(default unlimited; exceeding it reports UNDECIDED (memory), never a "
     "crash)",
     "N", 0, uint64_t(1) << 24},
    // The pool takes no more; a larger count would be reported but not
    // run.
    {"--jobs", AllCmds, &Options::Jobs,
     "threads for the explicit engine's large levels and for building G "
     "cap Z beside the rounds (default: $CUBA_JOBS, else hardware "
     "concurrency; results are bit-identical for every N)",
     "N", 1, exec::ThreadPool::MaxJobs},
    {"--approach", RunCmd, &Options::Approach,
     "the engine (default auto: explicit when FCR holds, else symbolic)",
     "auto|explicit|symbolic"},
    {"--mode", FuzzCmd, &Options::Mode,
     "workload: random CPDS instances (default) or random Boolean programs "
     "pushed through the whole frontend pipeline",
     "cpds|bp"},
    {"--count", FuzzCmd, &Options::Count, "instances to check (default 200)",
     "N"},
    {"--seed", FuzzCmd, &Options::Seed,
     "base seed (default: $CUBA_FUZZ_SEED, else 1)", "S"},
    {"--continue-after-bug", RunCmd, &Options::ContinueAfterBug,
     "keep exploring to a convergence bound"},
    {"--trace", RunCmd, &Options::Trace,
     "print a concrete interleaving on a bug"},
    {"--emit-cpds", RunCmd | FuzzCmd, &Options::EmitCpds,
     "print the (translated) system and exit; fuzz: print each generated "
     "instance"},
    {"--dump-ast", RunCmd, &Options::DumpAst,
     "print the parsed .bp program and exit"},
    {"--report-facts", DataflowCmd, &Options::ReportFacts,
     "print every visible state of each fact's run: the fact, k, the "
     "control state q, the fact's bit and the tops"},
    {"--verify", DataflowCmd, &Options::Verify,
     "cross-check each fact's run, round by round, against the folded "
     "product of every fact (at most 8) projected onto that fact's bit; a "
     "disagreement exits 70"},
    {"--stats", RunCmd | FuzzCmd, &Options::Stats,
     "dump internal statistics counters and the symmetry.classes and "
     "symmetry.threads gauges (the run's classes of identical threads); "
     "fuzz: per-seed "
     "wall-clock / peak-bytes lines and aggregate cache-hit / truncation "
     "rates"},
    {"--trace-out", AllCmds, &Options::TraceOut,
     "write a Chrome trace_event JSON profile (Perfetto-loadable)", "FILE"},
    {"--stats-json", AllCmds, &Options::StatsJson,
     "write the metrics registry as JSON; the part outside the \"wall\" "
     "object is byte-identical at any --jobs",
     "FILE"},
};

/// Prints \p Line, then \p Help wrapped between column 23 and column 76;
/// help that would come closer than two spaces to \p Line starts on the
/// next line.
void printColumns(std::string Line, std::string_view Help) {
  constexpr size_t HelpCol = 23, Room = 76 - HelpCol;
  if (Line.size() + 2 > HelpCol) {
    std::fprintf(stderr, "%s\n", Line.c_str());
    Line.clear();
  }
  while (!Help.empty()) {
    size_t Cut = Help.size() <= Room ? Help.size() : Help.rfind(' ', Room);
    if (Cut == std::string_view::npos)
      Cut = std::min(Help.find(' '), Help.size());
    Line.resize(HelpCol, ' ');
    Line.append(Help.substr(0, Cut));
    std::fprintf(stderr, "%s\n", Line.c_str());
    Line.clear();
    Help.remove_prefix(std::min(Cut + 1, Help.size()));
  }
}

void printUsage() {
  for (size_t S = 0; S < std::size(Subcommands); ++S) {
    if (S)
      std::fputc('\n', stderr);
    printColumns(std::string("usage: ") + Subcommands[S].Synopsis,
                 Subcommands[S].About);
    for (const Flag &F : Flags)
      if (F.Cmds & (1u << S))
        printColumns(std::string("  ") + F.Name +
                         (F.Value ? std::string(" ") + F.Value : ""),
                     F.Help);
  }
}

/// \p Words as prose: "a, b, or c" (and "a or b").
std::string wordsProse(const std::vector<std::string_view> &Words) {
  std::string Out;
  for (size_t I = 0; I < Words.size(); ++I) {
    if (I)
      Out += Words.size() > 2 ? ", " : " ";
    if (I && I + 1 == Words.size())
      Out += "or ";
    Out += Words[I];
  }
  return Out;
}

/// Parses Argv[First..] for the subcommand with bit \p Cmd into \p O.
/// Returns 0 for a good command line, else the exit code after the
/// report: a bad or missing value of a flag the subcommand takes gets
/// one named diagnostic, any other argument it does not take the usage.
int parseFlags(unsigned Cmd, int Argc, char **Argv, int First,
               Options &O) {
  static constexpr char Hint[] = "(run 'cuba' with no arguments for usage)";
  for (int I = First; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    const Flag *F =
        std::find_if(std::begin(Flags), std::end(Flags), [&](const Flag &Row) {
          return (Row.Cmds & Cmd) && Arg == Row.Name;
        });
    if (F == std::end(Flags)) {
      if (Cmd != FuzzCmd && !Arg.empty() && Arg[0] != '-' &&
          O.Input.empty()) {
        O.Input = Arg;
        continue;
      }
      printUsage();
      return 64;
    }
    if (auto *Switch = std::get_if<bool Options::*>(&F->Target)) {
      O.*(*Switch) = true;
      continue;
    }
    if (I + 1 == Argc) {
      std::fprintf(stderr, "cuba: %s expects a value %s\n", F->Name, Hint);
      return 64;
    }
    const char *Text = Argv[++I];
    if (auto *Str = std::get_if<std::string Options::*>(&F->Target)) {
      if (std::strchr(F->Value, '|')) {
        std::vector<std::string_view> Words = splitNonEmpty(F->Value, '|');
        if (std::find(Words.begin(), Words.end(), Text) == Words.end()) {
          std::fprintf(stderr, "cuba: invalid %s value '%s': expected %s %s\n",
                       F->Name, Text, wordsProse(Words).c_str(), Hint);
          return 64;
        }
      }
      O.*(*Str) = Text;
      continue;
    }
    auto V = parseUnsigned(Text);
    if (!V || *V < F->Min || *V > F->Max) {
      std::fprintf(stderr,
                   "cuba: invalid %s value '%s': expected an integer in "
                   "[%llu, %llu] %s\n",
                   F->Name, Text, static_cast<unsigned long long>(F->Min),
                   static_cast<unsigned long long>(F->Max), Hint);
      return 64;
    }
    if (auto *Num = std::get_if<uint64_t Options::*>(&F->Target))
      O.*(*Num) = *V;
    else
      O.*std::get<std::optional<uint64_t> Options::*>(F->Target) = *V;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// The fuzz subcommand: generate seeded instances and cross-check every
// engine on each one.
//===----------------------------------------------------------------------===//

/// Reads the fuzz subcommand's environment; runs before the flags, so
/// --seed overrides CUBA_FUZZ_SEED.
void readFuzzEnvironment(Options &O) {
  if (const char *Env = std::getenv("CUBA_FUZZ_SEED")) {
    if (auto V = parseUnsigned(Env))
      O.Seed = *V;
    else
      std::fprintf(stderr, "cuba fuzz: ignoring malformed CUBA_FUZZ_SEED"
                           " '%s'\n",
                   Env);
  }
  // Testing hook: CUBA_FUZZ_INJECT=drop-combine simulates a lost mask
  // propagation in the saturation core (existing transitions never gain
  // root-mask bits), so the MISMATCH reporting path itself -- message,
  // program dump, repro line -- is reachable deterministically and can
  // be pinned by golden-output tests.
  if (const char *Inject = std::getenv("CUBA_FUZZ_INJECT"))
    if (std::string_view(Inject) == "drop-combine")
      psa_testing::InjectDropMaskGrowth = true;
}

int runFuzz(const Options &O) {
  const uint64_t BaseSeed = O.Seed.value_or(1);
  const bool BpMode = O.Mode == "bp";
  testing::OracleOptions Oracle;
  Oracle.MaxK = static_cast<unsigned>(O.MaxK);
  // No wall-clock cutoff: whether a mismatch is reached must depend only
  // on the seed, never on machine speed (the step budget bounds runtime).
  Oracle.Limits = ResourceLimits{10'000, 1'000'000, 8, 0};
  Oracle.Limits.MaxBytes = O.MaxMB << 20;
  const unsigned Jobs = O.jobs();
  exec::ThreadPool Pool(Jobs);
  Oracle.Pool = &Pool;

  // The single-instance repro command; it must replay the whole budget,
  // including the memory axis.
  std::string Repro = std::string("cuba fuzz") + (BpMode ? " --mode bp" : "") +
                      " --count 1 --max-k " + std::to_string(Oracle.MaxK) +
                      (O.MaxMB ? " --max-mb " + std::to_string(O.MaxMB) : "") +
                      " --jobs " + std::to_string(Jobs);

  std::printf("fuzz: %llu %s instance(s) from base seed %llu, %u job(s)%s\n",
              static_cast<unsigned long long>(O.Count),
              BpMode ? "Boolean-program" : "CPDS",
              static_cast<unsigned long long>(BaseSeed), Jobs,
              O.Seed ? "" : " (set --seed or CUBA_FUZZ_SEED to vary)");
  uint64_t Exhausted = 0, MemExhausted = 0;
  O.beginTrace();
  WallTimer FuzzTimer;
  for (uint64_t I = 0; I < O.Count; ++I) {
    // Seeds wrap modulo 2^64 so a base near UINT64_MAX still runs the
    // requested number of instances.
    uint64_t Seed = BaseSeed + I;
    testing::OracleReport Engine;
    std::string Mismatch; // The report and the instance, on a failure.
    WallTimer SeedTimer;
    if (BpMode) {
      // Program-level pipeline: generate a Boolean program, check the
      // print/parse fixpoint, translation reproducibility and the
      // .cpds round-trip, then run the cross-engine oracle on the
      // translated system (testing/BpOracle).
      bp::Program P =
          testing::generateRandomBp(Seed, testing::bpShapeOptions(Seed));
      if (O.EmitCpds) {
        std::printf("// seed %llu\n%s\n",
                    static_cast<unsigned long long>(Seed),
                    bp::printProgram(P).c_str());
        std::fflush(stdout);
      }
      testing::BpOracleOptions BpOpts;
      BpOpts.Engine = Oracle;
      SeedTimer.reset();
      testing::BpOracleReport Rep = testing::runBpOracle(P, BpOpts);
      Engine = Rep.Engine;
      if (!Rep.ok())
        Mismatch = Rep.str() + "\nprogram:\n" + Rep.Source;
    } else {
      CpdsFile File =
          testing::generateRandomCpds(Seed, testing::cornerShapeOptions(Seed));
      if (O.EmitCpds)
        std::printf("# seed %llu\n%s\n", static_cast<unsigned long long>(Seed),
                    printCpds(File).c_str());
      SeedTimer.reset();
      Engine = testing::runDifferentialOracle(File, Oracle);
      if (!Engine.ok())
        Mismatch = Engine.str() + "\ninstance:\n" + printCpds(File);
    }
    // Per-seed wall-clock / peak-bytes lines, each carrying the exact
    // single-instance repro command (--stats only; the default output
    // stays one header plus one footer so log filters keep working).
    if (O.Stats)
      std::printf("stats: seed=%llu wall_ms=%.2f peak_bytes=%llu"
                  " reproduce: CUBA_FUZZ_SEED=%llu %s\n",
                  static_cast<unsigned long long>(Seed), SeedTimer.millis(),
                  static_cast<unsigned long long>(Engine.PeakBytes),
                  static_cast<unsigned long long>(Seed), Repro.c_str());
    Exhausted += Engine.ExplicitExhausted || Engine.SymbolicExhausted;
    MemExhausted += Engine.ExplicitReason == ExhaustKind::Memory ||
                    Engine.SymbolicReason == ExhaustKind::Memory;
    if (!Mismatch.empty()) {
      std::fprintf(stderr,
                   "fuzz: MISMATCH at seed %llu\n%s\n"
                   "reproduce: CUBA_FUZZ_SEED=%llu %s\n",
                   static_cast<unsigned long long>(Seed), Mismatch.c_str(),
                   static_cast<unsigned long long>(Seed), Repro.c_str());
      return 1;
    }
  }
  std::printf(
      "fuzz: all %llu instance(s) agree (%llu budget-truncated, %llu by"
      " memory)\n",
      static_cast<unsigned long long>(O.Count),
      static_cast<unsigned long long>(Exhausted),
      static_cast<unsigned long long>(MemExhausted));
  // Aggregates over the whole run: SatCache effectiveness and how often
  // the per-instance budget truncated the comparison.
  uint64_t Trans = obs::Metrics::value("symbolic.transactions");
  uint64_t Cached = obs::Metrics::value("symbolic.transactions.cached");
  if (O.Stats)
    std::printf("stats: sat-cache hits %llu/%llu (%.1f%%), truncated"
                " %llu/%llu instance(s) (%.1f%%)\n",
                static_cast<unsigned long long>(Cached),
                static_cast<unsigned long long>(Trans),
                Trans ? 100.0 * static_cast<double>(Cached) /
                            static_cast<double>(Trans)
                      : 0.0,
                static_cast<unsigned long long>(Exhausted),
                static_cast<unsigned long long>(O.Count),
                O.Count ? 100.0 * static_cast<double>(Exhausted) /
                              static_cast<double>(O.Count)
                        : 0.0);
  if (!O.writeObs("fuzz", Pool,
                  {{"mode", jsonQuote(O.Mode)},
                   {"base_seed", std::to_string(BaseSeed)},
                   {"count", std::to_string(O.Count)},
                   {"jobs", std::to_string(Jobs)},
                   {"elapsed_ms", jsonMillis(FuzzTimer.millis())},
                   {"truncated", std::to_string(Exhausted)},
                   {"truncated_by_memory", std::to_string(MemExhausted)}}))
    return 74;
  return 0;
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
// The dataflow subcommand: interprocedural taint analysis, one fold per
// fact (dataflow/TaintFolds.h).
//===----------------------------------------------------------------------===//

/// Renders one visible state of fact \p Fact's fold, for --report-facts:
/// the fact, the round, the unfolded control state, the fact's bit and
/// the tops.
std::string renderFoldState(const Cpds &C, const bp::TaintInfo &Taint,
                            int Fact, const VisibleState &V,
                            unsigned Round) {
  std::string Out = "fact=" + Taint.FactNames[Fact] +
                    " k=" + std::to_string(Round) + " ";
  if (V.Q == foldErr(Taint, 1u << Fact))
    Out += "err";
  else
    Out += "q=" + std::to_string(V.Q & ((1u << Taint.SharedBits) - 1)) +
           " bit=" + std::to_string((V.Q >> Taint.SharedBits) & 1);
  for (unsigned I = 0; I < V.Tops.size(); ++I)
    Out += " | " + C.thread(I).symbolName(V.Tops[I]);
  return Out;
}

int runDataflow(const Options &O) {
  if (O.Input.empty() || !endsWith(O.Input, ".bp")) {
    std::fprintf(stderr, "cuba dataflow: needs one .bp input file\n");
    printUsage();
    return 64;
  }

  auto Text = readFile(O.Input);
  if (!Text)
    return inputError(O.Input, Text.error());
  auto Prog = bp::parseProgram(*Text);
  if (!Prog)
    return inputError(O.Input, Prog.error());
  auto Info = bp::analyzeProgram(*Prog);
  if (!Info)
    return inputError(O.Input, Info.error());

  const unsigned Jobs = O.jobs();
  exec::ThreadPool Pool(Jobs);
  TaintFoldOptions FOpts;
  FOpts.Limits = O.limits();
  FOpts.Pool = &Pool;
  FOpts.KeepVisible = O.ReportFacts;
  O.beginTrace();
  WallTimer T;
  auto Run = runTaintFolds(*Prog, *Info, FOpts);
  if (!Run)
    return inputError(O.Input, Run.error());
  const TaintFoldResult &R = *Run;
  double Millis = T.millis();

  // The folds' sums; k_max is the deepest bound, and the run converged
  // only when every fold's frontier emptied.
  unsigned KMax = 0;
  bool Converged = !R.exhausted();
  uint64_t States = 0, Visible = 0, Saturations = 0, PeakBytes = 0;
  for (const FactFold &F : R.Folds) {
    KMax = std::max(KMax, F.Bound);
    Converged &= F.Converged;
    States += F.States;
    Visible += F.Visible;
    Saturations += F.Saturations;
    PeakBytes = std::max(PeakBytes, F.PeakBytes);
  }

  std::printf("input:     %s\n", O.Input.c_str());
  std::string FactList;
  for (const std::string &F : Info->TaintFacts)
    FactList += (FactList.empty() ? "" : ", ") + F;
  std::printf("facts:     %zu (%s)\n", Info->TaintFacts.size(),
              FactList.c_str());
  std::printf("sinks:     %zu site(s)\n", R.Taint.Sinks.size());
  if (R.Folds.empty())
    std::printf("explored:  no fold to run (no taint fact reaches a"
                " sink)\n");
  else
    std::printf("explored:  k_max=%u%s, states=%llu, visible=%llu,"
                " saturations=%llu\n",
                KMax, Converged ? " (converged)" : "",
                static_cast<unsigned long long>(States),
                static_cast<unsigned long long>(Visible),
                static_cast<unsigned long long>(Saturations));
  std::printf("resources: %.2f ms, %.1f MB peak\n", Millis,
              static_cast<double>(PeakBytes) / (1024 * 1024));

  if (O.ReportFacts)
    for (const FactFold &F : R.Folds)
      for (const auto &[V, Round] : F.FirstSeen)
        std::printf("visible:   %s\n",
                    renderFoldState(R.Names.System, R.Taint, F.Fact, V, Round)
                        .c_str());

  for (const SinkHit &H : R.Hits)
    std::printf("leak:      thread %u at '%s' may observe tainted '%s'"
                " (first at k=%u)\n",
                H.Thread,
                R.Names.System.thread(H.Thread).symbolName(H.Frame).c_str(),
                R.Taint.FactNames[H.Fact].c_str(), H.Round);

  if (O.Verify) {
    testing::DataflowOracleOptions OOpts;
    OOpts.MaxK = FOpts.Limits.MaxContexts;
    OOpts.Limits = FOpts.Limits;
    OOpts.Pool = &Pool;
    testing::DataflowOracleReport Rep =
        testing::runDataflowOracle(*Prog, OOpts);
    if (Rep.FullRejected) {
      std::printf("verify:    skipped (the full fold of every fact exceeds"
                  " %zu facts or the frontend size guard)\n",
                  testing::MaxFullFacts);
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

  if (!O.writeObs("dataflow", Pool,
                  {{"input", jsonQuote(O.Input)},
                   {"verdict", jsonQuote(!R.Hits.empty() ? "leak"
                                         : R.exhausted() ? "undecided"
                                                         : "safe")},
                   {"k_max", std::to_string(KMax)},
                   {"jobs", std::to_string(Jobs)},
                   {"elapsed_ms", jsonMillis(Millis)},
                   {"peak_bytes", std::to_string(PeakBytes)}}))
    return 74;

  if (!R.Hits.empty()) {
    // Hits are sorted by (thread, frame, fact, round): the verdict names
    // the least round of any.
    unsigned First = std::min_element(R.Hits.begin(), R.Hits.end(),
                                      [](const SinkHit &A, const SinkHit &B) {
                                        return A.Round < B.Round;
                                      })
                         ->Round;
    std::printf("verdict:   LEAK within %u contexts\n", First);
    return 1;
  }
  if (R.exhausted()) {
    std::printf("verdict:   UNDECIDED within the resource budget"
                " (explored k <= %u, exhausted: %s)\n",
                KMax, exhaustKindName(R.ExhaustedBy));
    return 2;
  }
  if (R.Folds.empty())
    std::printf("verdict:   SAFE for every context bound (no taint fact"
                " reaches a sink)\n");
  else if (Converged)
    std::printf("verdict:   SAFE for every context bound"
                " (state space converged at k = %u)\n",
                KMax);
  else
    std::printf("verdict:   SAFE up to the context bound k = %u\n", KMax);
  return 0;
}

//===----------------------------------------------------------------------===//
// The verifier itself.
//===----------------------------------------------------------------------===//

int runVerify(const Options &O) {
  if (O.Input.empty()) {
    printUsage();
    return 64;
  }
  if (O.DumpAst) {
    if (!endsWith(O.Input, ".bp")) {
      std::fprintf(stderr, "cuba: --dump-ast needs a .bp input\n");
      return 64;
    }
    auto Text = readFile(O.Input);
    if (!Text)
      return inputError(O.Input, Text.error());
    auto Prog = bp::parseProgram(*Text);
    if (!Prog)
      return inputError(O.Input, Prog.error());
    std::string Out = bp::printProgram(*Prog);
    std::fwrite(Out.data(), 1, Out.size(), stdout);
    return 0;
  }

  // Armed before loading, so a .bp input's translate span lands too.
  O.beginTrace();
  auto File = loadInput(O.Input);
  if (!File)
    return inputError(O.Input, File.error());

  if (O.EmitCpds) {
    std::string Text = printCpds(*File);
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return 0;
  }

  const unsigned Jobs = O.jobs();
  exec::ThreadPool Pool(Jobs);
  DriverOptions Driver;
  Driver.Run.Limits = O.limits();
  Driver.Run.ContinueAfterBug = O.ContinueAfterBug;
  Driver.Run.BuildTrace = O.Trace;
  Driver.Run.Pool = &Pool;
  if (O.Approach == "explicit")
    Driver.Force = ApproachKind::ExplicitCombined;
  else if (O.Approach == "symbolic")
    Driver.Force = ApproachKind::Symbolic;

  DriverResult R = runCuba(File->System, File->Property, Driver);

  std::printf("input:     %s\n", O.Input.c_str());
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
              peakRSSMegabytes());

  if (O.Stats) {
    std::printf("--- statistics ---\n");
    // The counters, and among the gauges the run's classes of identical
    // threads, sorted by name.
    for (const obs::InstrumentSnapshot &S : obs::Metrics::snapshot())
      if (S.K == obs::Kind::Counter || S.Name.starts_with("symmetry."))
        std::printf("%10llu  %s\n", static_cast<unsigned long long>(S.Value),
                    S.Name.c_str());
  }

  if (!O.writeObs("run", Pool,
                  {{"input", jsonQuote(O.Input)},
                   {"jobs", std::to_string(Jobs)},
                   {"approach",
                    jsonQuote(R.Used == ApproachKind::ExplicitCombined
                                  ? "explicit"
                                  : "symbolic")},
                   {"verdict", jsonQuote(outcomeName(R.Run.outcome()))},
                   {"elapsed_ms", jsonMillis(R.Run.Millis)}}))
    return 74;

  switch (R.Run.outcome()) {
  case Outcome::Proved:
    return 0;
  case Outcome::BugFound:
    return 1;
  case Outcome::ResourceLimit:
    return 2;
  }
  return 2;
}

} // namespace

int main(int Argc, char **Argv) try {
  // CUBA_FAULT_POINT / CUBA_FAULT_AT arm the deterministic fault
  // harness for whole-binary robustness sweeps (no-op when unset).
  fault::armFromEnv();

  unsigned Sub = 0;
  for (unsigned S = 1; S < std::size(Subcommands); ++S)
    if (Argc > 1 && std::string_view(Argv[1]) == Subcommands[S].Name)
      Sub = S;
  Options O;
  O.MaxK = Subcommands[Sub].MaxK;
  const unsigned Cmd = 1u << Sub;
  if (Cmd == FuzzCmd)
    readFuzzEnvironment(O);
  if (int Rc = parseFlags(Cmd, Argc, Argv, Sub ? 2 : 1, O))
    return Rc;
  switch (Cmd) {
  case FuzzCmd:
    return runFuzz(O);
  case DataflowCmd:
    return runDataflow(O);
  default:
    return runVerify(O);
  }
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
