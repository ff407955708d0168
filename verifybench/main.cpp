//===-- verifybench/main.cpp - Front-door verify benchmark ----------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times whole verifications at the `cuba` front door (parse -> sema ->
/// translate -> runCuba, or runCuba on a finished model) at --jobs 1 and
/// --jobs 4, checks every verdict against its known answer, and prints
/// one JSON result line last.
///
///   verifybench --workload W --seed N --seconds S --trace 0|1
///               --corpus DIR --golden FILE [--trace-out FILE]
///               [--tiny] [--corrupt-answer] [--force-exhaust]
///   verifybench --make-golden FROM TO     (prints golden-table rows)
///
/// --trace 0 reports the end-to-end metrics; --trace 1 reruns the inputs
/// stage by stage under the benchmark's own spans (see Staged.h) and
/// reports per-layer metrics.  run.py builds the binary and supplies the
/// paths.
///
//===----------------------------------------------------------------------===//

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "Inputs.h"
#include "Staged.h"
#include "baseline/CbaBaseline.h"
#include "bp/AstPrinter.h"
#include "bp/Translate.h"
#include "exec/ThreadPool.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using namespace verifybench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string CorpusDir = "examples/corpus";
  std::string Golden;
  std::string TraceOut;
  bool Tiny = false;
  bool CorruptAnswer = false;
  bool ForceExhaust = false;
  uint64_t GoldenFrom = 0, GoldenTo = 0;
};

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "verifybench: %s\nusage: verifybench --workload W --seed N "
               "--seconds S --trace 0|1 --golden FILE [--corpus DIR] "
               "[--trace-out FILE] [--tiny] [--corrupt-answer] "
               "[--force-exhaust]\n       verifybench --make-golden FROM TO\n",
               Msg.c_str());
  std::exit(64);
}

uint64_t number(std::string_view Flag, const char *V) {
  uint64_t N = 0;
  std::string_view S(V);
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), N);
  if (Ec != std::errc() || P != S.data() + S.size())
    usage("bad value for " + std::string(Flag));
  return N;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string_view F = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage("missing value for " + std::string(F));
      return Argv[++I];
    };
    if (F == "--workload")
      A.Workload = Value();
    else if (F == "--seed")
      A.Seed = number(F, Value());
    else if (F == "--seconds")
      A.Seconds = static_cast<double>(number(F, Value()));
    else if (F == "--trace")
      A.Trace = number(F, Value()) != 0;
    else if (F == "--corpus")
      A.CorpusDir = Value();
    else if (F == "--golden")
      A.Golden = Value();
    else if (F == "--trace-out")
      A.TraceOut = Value();
    else if (F == "--tiny")
      A.Tiny = true;
    else if (F == "--corrupt-answer")
      A.CorruptAnswer = true;
    else if (F == "--force-exhaust")
      A.ForceExhaust = true;
    else if (F == "--make-golden") {
      A.GoldenFrom = number(F, Value());
      A.GoldenTo = number(F, Value());
    } else
      usage("unknown argument " + std::string(F));
  }
  if (A.GoldenTo == 0 && A.Workload.empty())
    usage("--workload is required");
  return A;
}

/// Shortest round-trip decimal form of \p V.
std::string num(double V) {
  char Buf[64];
  auto [P, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, P) : "0";
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear-interpolated percentile \p P (0..100) of \p V.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// A field of /proc/self/status ("VmRSS:", "VmHWM:") in MB.
double statusMb(std::string_view Field) {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind(Field, 0) == 0)
      return std::stod(Line.substr(Field.size())) / 1024.0; // Given in kB.
  return 0;
}

/// Hands freed heap pages back and resets the kernel's peak-RSS mark;
/// returns the RSS left (MB), which the next statusMb("VmHWM:") starts
/// from.
double resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return statusMb("VmRSS:");
}

/// Running failure accounting over every verification attempted.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string Mismatch; ///< First wrong verdict; non-empty fails the run.

  void note(const Input &In, const Verification &V) {
    ++Attempted;
    if (V.St == Status::Mismatch && Mismatch.empty())
      Mismatch = In.Name + ": " + V.Detail;
    if (V.St == Status::Rejected || V.St == Status::Exhausted)
      ++Failed;
  }
};

/// Per-input best times over repeated passes at one job count.  The
/// host's CPUs are shared with other machines' work, and a pass's wall
/// time swings by up to 2x over a few seconds as that load comes and
/// goes.  Each input therefore keeps its fastest time, which follows the
/// code rather than the neighbours; pass wall times are kept for the
/// report.
struct BestTimes {
  std::vector<double> Ms;
  std::vector<double> PassSeconds;

  void add(const std::vector<double> &InputMs, double Seconds) {
    if (Ms.empty())
      Ms = InputMs;
    for (size_t I = 0; I < Ms.size(); ++I)
      Ms[I] = std::min(Ms[I], InputMs[I]);
    PassSeconds.push_back(Seconds);
  }

  /// The whole input set's verify time, each input at its best.
  double seconds() const {
    double Sum = 0;
    for (double V : Ms)
      Sum += V;
    return Sum / 1e3;
  }
};

/// The benchmark state shared by both modes.
struct Bench {
  Args A;
  std::vector<Input> Inputs;
  /// The seeded order in which timed passes visit the inputs.
  std::vector<size_t> Order;
  std::unique_ptr<exec::ThreadPool> Pool1, Pool4;
  std::vector<double> SetupSeconds;
  Tally T;

  DriverOptions options(exec::ThreadPool &Pool, size_t InputIdx) const {
    DriverOptions O;
    O.Run.Limits = benchLimits();
    O.Run.Pool = &Pool;
    if (A.ForceExhaust && InputIdx == 0)
      O.Run.Limits.MaxSteps = 1;
    return O;
  }

  /// One front-door verification of every input.  A timed pass (\p Into
  /// given) visits the inputs in Order and records each one's time; an
  /// untimed one visits them in build order, appends the verdicts to
  /// \p Out (when given) and, with \p PeakRss, returns the largest RSS
  /// growth one verification caused (MB), each measured from a trimmed
  /// heap.  Peak RSS still depends on what earlier inputs left behind,
  /// hence the fixed order.
  double pass(exec::ThreadPool &Pool, BestTimes *Into,
              std::vector<Verification> *Out = nullptr, bool PeakRss = false) {
    std::vector<double> Ms(Inputs.size(), 0.0);
    double GrowthMb = 0;
    Clock::time_point P0 = Clock::now();
    for (size_t N = 0; N < Inputs.size(); ++N) {
      size_t I = Into ? Order[N] : N;
      double BaseMb = PeakRss ? resetPeakRss() : 0;
      Clock::time_point T0 = Clock::now();
      Verification V = verifyInput(Inputs[I], options(Pool, I));
      Ms[I] = secondsSince(T0) * 1e3;
      if (PeakRss)
        GrowthMb = std::max(GrowthMb, statusMb("VmHWM:") - BaseMb);
      T.note(Inputs[I], V);
      if (Out)
        Out->push_back(std::move(V));
    }
    if (Into)
      Into->add(Ms, secondsSince(P0));
    return GrowthMb;
  }
};

/// One set-up: builds the inputs and starts both pools.  Returns its wall
/// seconds.
double setUpOnce(const Args &A, std::vector<Input> &Inputs,
                 std::unique_ptr<exec::ThreadPool> &Pool1,
                 std::unique_ptr<exec::ThreadPool> &Pool4) {
  Scale S = A.Tiny ? Scale::tiny() : Scale{};
  Clock::time_point T0 = Clock::now();
  std::vector<GoldenRow> Pool;
  if (A.Workload == "randombp")
    Pool = poolRows(loadGolden(A.Golden), S.Generated);
  Inputs = buildInputs(A.Workload, S, Pool, A.CorpusDir);
  Pool1 = std::make_unique<exec::ThreadPool>(1);
  Pool4 = std::make_unique<exec::ThreadPool>(4);
  return secondsSince(T0);
}

/// Times one more set-up into throw-away inputs and pools.  One set-up
/// runs between each two rounds of passes, so that their median is not
/// set by one stretch of the host's load (see BestTimes).
void retimeSetUp(Bench &B) {
  std::vector<Input> Inputs;
  std::unique_ptr<exec::ThreadPool> Pool1, Pool4;
  B.SetupSeconds.push_back(setUpOnce(B.A, Inputs, Pool1, Pool4));
}

/// The set-up the run uses, plus its known answers.
void setUp(Bench &B) {
  B.SetupSeconds.push_back(setUpOnce(B.A, B.Inputs, B.Pool1, B.Pool4));
  attachModelAnswers(B.Inputs);
  // Fisher-Yates with the workload seed.
  B.Order.resize(B.Inputs.size());
  for (size_t I = 0; I < B.Order.size(); ++I)
    B.Order[I] = I;
  testing::SplitMix64 Rng(B.A.Seed);
  for (size_t I = B.Order.size(); I > 1; --I)
    std::swap(B.Order[I - 1], B.Order[Rng.below(I)]);
  if (B.A.CorruptAnswer) {
    KnownAnswer &K = B.Inputs.front().Answer;
    K.BugK = K.Safe ? 1 : K.BugK + 1;
    K.Safe = false;
  }
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Prints the result line and returns the exit code.
int finish(const Bench &B, const std::vector<Metric> &Metrics,
           const std::string &Extra) {
  bool Correct = B.T.Mismatch.empty() && Extra.empty();
  if (!B.T.Mismatch.empty())
    std::printf("MISMATCH %s\n", B.T.Mismatch.c_str());
  if (!Extra.empty())
    std::printf("MISMATCH %s\n", Extra.c_str());
  std::printf("fail_share %s (%llu of %llu attempted verifications)\n",
              num(B.T.Attempted ? static_cast<double>(B.T.Failed) /
                                      static_cast<double>(B.T.Attempted)
                                : 0)
                  .c_str(),
              static_cast<unsigned long long>(B.T.Failed),
              static_cast<unsigned long long>(B.T.Attempted));
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(B.T.Attempted) +
                  ", \"failed\": " + std::to_string(B.T.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
         num(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  std::printf("%s}}\n", J.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

/// Warms both pools up with one untimed pass each, then calls
/// \p Round(Side) for Side 0 (jobs 1) and 1 (jobs 4) until --seconds have
/// elapsed, at least \p MinRounds times each.  The seed picks which side
/// leads; the order then alternates round by round.  One more set-up is
/// timed per round.  The jobs-1 warm-up records runCuba's verdicts into
/// \p Ref and gives the returned peak RSS: the set-up's RSS plus the
/// largest growth one verification causes.  (At jobs 4 the workers'
/// allocator arenas would make it depend on scheduling.)
template <typename Fn>
double measure(Bench &B, unsigned MinRounds, std::vector<Verification> *Ref,
               Fn Round) {
  Clock::time_point T0 = Clock::now();
  double RssMb = resetPeakRss();
  RssMb += B.pass(*B.Pool1, nullptr, Ref, /*PeakRss=*/true);
  B.pass(*B.Pool4, nullptr);
  bool OneFirst = B.A.Seed % 2 == 0;
  for (unsigned R = 0; R < MinRounds || secondsSince(T0) < B.A.Seconds;
       ++R) {
    retimeSetUp(B);
    Round(OneFirst ? 0 : 1);
    Round(OneFirst ? 1 : 0);
    OneFirst = !OneFirst;
  }
  return RssMb;
}

int runEndToEnd(Bench &B) {
  BestTimes J1, J4;
  double RssMb = measure(B, 3, nullptr, [&](int Side) {
    if (Side == 0)
      B.pass(*B.Pool1, &J1);
    else
      B.pass(*B.Pool4, &J4);
  });

  std::printf("workload %s seed %llu: %zu inputs, %zu timed passes at jobs "
              "1 and %zu at jobs 4\n",
              B.A.Workload.c_str(), static_cast<unsigned long long>(B.A.Seed),
              B.Inputs.size(), J1.PassSeconds.size(), J4.PassSeconds.size());
  std::printf("verify_s_j1 %s s, verify_s_j4 %s s (each input at its best "
              "pass; jobs-4 speedup %s)\n",
              num(J1.seconds()).c_str(), num(J4.seconds()).c_str(),
              num(J1.seconds() / J4.seconds()).c_str());
  std::printf("pass wall time, median: %s s at jobs 1, %s s at jobs 4\n",
              num(median(J1.PassSeconds)).c_str(),
              num(median(J4.PassSeconds)).c_str());
  size_t N = J1.Ms.size();
  std::printf("verdict_ms_p50_j1 %s ms (%zu samples, one per input)\n",
              num(median(J1.Ms)).c_str(), N);
  // The highest percentile with at least ten samples beyond it.
  if (N >= 20) {
    double P = std::floor(100.0 * static_cast<double>(N - 10) /
                          static_cast<double>(N));
    std::printf("verdict_ms_p%.0f_j1 %s ms (%zu samples)\n", P,
                num(percentile(J1.Ms, P)).c_str(), N);
  } else {
    std::printf("verdict tail percentile not reported: %zu samples, fewer "
                "than 10 beyond any percentile above the median\n",
                N);
  }
  std::printf("setup_s: median of %zu set-ups spread over the run; fastest "
              "%s s\n",
              B.SetupSeconds.size(),
              num(*std::min_element(B.SetupSeconds.begin(),
                                    B.SetupSeconds.end()))
                  .c_str());

  std::vector<Metric> M = {
      {"setup_s", median(B.SetupSeconds), "s"},
      {"verify_s_j1", J1.seconds(), "s"},
      {"verify_s_j4", J4.seconds(), "s"},
      {"verdict_ms_p50_j1", median(J1.Ms), "ms"},
      {"peak_rss_mb", RssMb, "MB"},
  };
  return finish(B, M, "");
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Folds one staged pass's per-track self times into \p Best, keeping
/// each (span name, track)'s fastest pass (see BestTimes).
void keepBest(std::map<std::string, std::vector<double>> &Best,
              const std::map<std::string, std::vector<double>> &Pass) {
  for (const auto &[Name, Ms] : Pass) {
    auto [It, Fresh] = Best.try_emplace(Name, Ms);
    if (!Fresh)
      for (size_t T = 0; T < Ms.size(); ++T)
        It->second[T] = std::min(It->second[T], Ms[T]);
  }
}

int runTraced(Bench &B) {
  // Each round runs an untraced front-door pass (the verify time the
  // stages must account for) and then a staged pass, at one job count.
  // The warm-up's verdicts give runCuba's k_max per input.
  size_t Tracks = B.Inputs.size();
  SpanLog Log;
  for (uint32_t I = 0; I < Tracks; ++I)
    Log.nameTrack(I, B.Inputs[I].Name);
  std::vector<Verification> Ref;
  BestTimes U1, U4;
  std::vector<StagedPass> S1, S4;
  std::map<std::string, std::vector<double>> Best1, Best4;
  std::vector<double> BusyShare;
  std::string Inconsistency;
  uint32_t Pass = 0;
  measure(B, 2, &Ref, [&](int Side) {
    bool One = Side == 0;
    exec::ThreadPool &Pool = One ? *B.Pool1 : *B.Pool4;
    B.pass(Pool, One ? &U1 : &U4);
    Log.namePass(Pass, "staged pass " + std::to_string(Pass) + " (jobs " +
                           std::to_string(Pool.jobs()) + ")");
    StagedPass P = runStagedPass(B.Inputs, Ref, Pool, Log, Pass);
    if (Inconsistency.empty())
      Inconsistency = P.Inconsistency;
    std::map<std::string, std::vector<double>> Self =
        Log.selfMs(Pass++, Tracks);
    if (One) {
      std::vector<double> Total(Tracks, 0.0);
      for (const auto &[Name, Ms] : Self)
        for (size_t T = 0; T < Tracks; ++T)
          Total[T] += Ms[T];
      keepBest(Best1, Self);
      keepBest(Best1, {{"@total", Total}});
      S1.push_back(std::move(P));
    } else {
      double RoundsNs =
          (sum(Self["cba.rounds"]) + sum(Self["sym.rounds"])) * 1e6;
      BusyShare.push_back(RoundsNs > 0 ? static_cast<double>(P.Counts.BusyNs) /
                                             (4 * RoundsNs)
                                       : 0);
      keepBest(Best4, Self);
      S4.push_back(std::move(P));
    }
  });
  double VerifyMs = U1.seconds() * 1e3;
  if (!B.A.TraceOut.empty()) {
    std::ofstream Out(B.A.TraceOut, std::ios::binary);
    Out << Log.render();
    if (!Out)
      std::fprintf(stderr, "verifybench: cannot write %s\n",
                   B.A.TraceOut.c_str());
  }

  auto Stage = [&](std::map<std::string, std::vector<double>> &Best,
                   const char *Name) { return sum(Best[Name]); };
  // Z time on inputs that ended in a bug before any generator test read
  // G cap Z (the flag is a deterministic property of the input).
  std::vector<bool> Unused(Tracks, false);
  for (const Span &S : Log.spans())
    if (std::string_view(S.Name) == "z")
      for (const auto &[K, V] : S.Args)
        if (std::string_view(K) == "unused" && V)
          Unused[S.Track] = true;
  double ZUnused = 0;
  for (size_t T = 0; T < Tracks; ++T)
    if (Unused[T] && !Best1["z"].empty())
      ZUnused += Best1["z"][T];

  const StagedCounts &C = S1.back().Counts;
  const char *StageNames[] = {"bp.parse", "bp.sema",    "bp.translate",
                              "fcr",      "z",          "gen",
                              "cba.rounds", "sym.rounds"};
  double StageSum = 0;
  for (const char *N : StageNames)
    StageSum += Stage(Best1, N);
  double TracedMs = Stage(Best1, "@total");
  double RoundsJ1 = Stage(Best1, "cba.rounds") + Stage(Best1, "sym.rounds");
  double RoundsJ4 = Stage(Best4, "cba.rounds") + Stage(Best4, "sym.rounds");
  std::vector<double> Batches, TasksPerBatch;
  uint64_t PrefetchTotal = 0, PrefetchHits = 0;
  for (const StagedPass &P : S4) {
    Batches.push_back(static_cast<double>(P.Counts.Batches));
    TasksPerBatch.push_back(ratio(P.Counts.Tasks, P.Counts.Batches));
    PrefetchHits += P.Counts.PrefetchHits;
    PrefetchTotal += P.Counts.PrefetchHits + P.Counts.PrefetchDropped;
  }
  // Shard imbalance: observation-weighted mean over the histogram, each
  // power-of-two bucket [2^(b-1), 2^b) taken at its midpoint.
  uint64_t ImbN = 0;
  double ImbSum = 0;
  for (size_t Bk = 1; Bk < C.Imbalance.size(); ++Bk) {
    ImbN += C.Imbalance[Bk];
    ImbSum += static_cast<double>(C.Imbalance[Bk]) * 0.75 *
              static_cast<double>(uint64_t(1) << Bk);
  }

  // Layers a workload may not use at all (the frontend on model inputs,
  // one engine or the other, unused Z on safe inputs) are reported as
  // shares, so no time metric reads a constant zero.
  auto Pct = [](double Part, double Whole) {
    return Whole > 0 ? Part / Whole * 100 : 0;
  };
  double ZMs = Stage(Best1, "z");
  std::vector<Metric> M = {
      {"bp.parse_pct", Pct(Stage(Best1, "bp.parse"), VerifyMs), "%"},
      {"bp.sema_pct", Pct(Stage(Best1, "bp.sema"), VerifyMs), "%"},
      {"bp.translate_pct", Pct(Stage(Best1, "bp.translate"), VerifyMs), "%"},
      {"bp.actions", double(C.BpActions), "count"},
      {"fcr.ms", Stage(Best1, "fcr"), "ms"},
      {"fcr.holds_share", ratio(C.FcrHolds, C.Inputs), "share"},
      {"z.ms", ZMs, "ms"},
      {"z.states", double(C.ZStates), "count"},
      {"z.unused_pct", Pct(ZUnused, ZMs), "%"},
      {"gen.ms", Stage(Best1, "gen"), "ms"},
      {"gen.pending", double(C.GenPending), "count"},
      {"rounds.ms_j1", RoundsJ1, "ms"},
      {"rounds.ms_j4", RoundsJ4, "ms"},
      {"cba.rounds_pct", Pct(Stage(Best1, "cba.rounds"), RoundsJ1), "%"},
      {"cba.rounds", double(C.CbaRounds), "count"},
      {"cba.states", double(C.CbaStates), "count"},
      {"cba.bytes", double(C.CbaBytes), "bytes"},
      {"cba.commit.shard_imbalance_pct", ImbN ? ImbSum / double(ImbN) : 0,
       "%"},
      {"sym.rounds", double(C.SymRounds), "count"},
      {"sym.states", double(C.SymStates), "count"},
      {"sym.languages", double(C.SymLanguages), "count"},
      {"sym.saturation_pops", double(C.SatPops), "count"},
      {"sym.sat_bytes_hwm", double(C.SatBytesHwm), "bytes"},
      {"sym.transactions", double(C.Transactions), "count"},
      {"sym.txn_hit_ratio", ratio(C.TransactionsCached, C.Transactions),
       "share"},
      {"sym.extractions", double(C.Extractions), "count"},
      {"sym.extract_skip_ratio", ratio(C.ExtractSkipped, C.Extractions),
       "share"},
      {"sym.prefetch_hit_ratio", ratio(PrefetchHits, PrefetchTotal), "share"},
      {"exec.busy_share_j4", median(BusyShare), "share"},
      {"exec.batches_j4", median(Batches), "count"},
      {"exec.tasks_per_batch_j4", median(TasksPerBatch), "count"},
      {"exec.speedup_j4", RoundsJ4 > 0 ? RoundsJ1 / RoundsJ4 : 0, "x"},
      {"driver.unaccounted_ms", VerifyMs - StageSum, "ms"},
      {"driver.stage_share_pct", VerifyMs > 0 ? StageSum / VerifyMs * 100 : 0,
       "%"},
      {"trace.overhead_pct",
       VerifyMs > 0 ? (TracedMs - VerifyMs) / VerifyMs * 100 : 0, "%"},
  };

  std::printf("workload %s seed %llu (traced): %zu inputs, %zu/%zu untraced "
              "and %zu/%zu staged passes at jobs 1/4\n",
              B.A.Workload.c_str(), static_cast<unsigned long long>(B.A.Seed),
              Tracks, U1.PassSeconds.size(), U4.PassSeconds.size(), S1.size(),
              S4.size());
  std::printf("verify_s_j1 %s ms untraced; traced %s ms; stages sum to %s ms "
              "(each input at its best pass)\n",
              num(VerifyMs).c_str(), num(TracedMs).c_str(),
              num(StageSum).c_str());
  for (const char *N : StageNames)
    std::printf("  %-13s %10.3f ms  %5.1f%% of verify_s_j1\n", N,
                Stage(Best1, N),
                VerifyMs > 0 ? Stage(Best1, N) / VerifyMs * 100 : 0);
  std::printf("bases: txn hits %llu/%llu, extract skipped %llu/%llu, "
              "prefetch hits %llu/%llu, fcr holds %llu/%llu inputs, "
              "imbalance over %llu rounds\n",
              (unsigned long long)C.TransactionsCached,
              (unsigned long long)C.Transactions,
              (unsigned long long)C.ExtractSkipped,
              (unsigned long long)C.Extractions,
              (unsigned long long)PrefetchHits,
              (unsigned long long)PrefetchTotal,
              (unsigned long long)C.FcrHolds, (unsigned long long)C.Inputs,
              (unsigned long long)ImbN);
  std::printf("z unused on inputs that hit their bug first: %s of %s ms\n",
              num(ZUnused).c_str(), num(ZMs).c_str());
  std::printf("exec: rounds %s ms at jobs 1, %s ms at jobs 4; busy share "
              "%s of 4 x rounds wall\n",
              num(RoundsJ1).c_str(), num(RoundsJ4).c_str(),
              num(median(BusyShare)).c_str());
  return finish(B, M, Inconsistency);
}

/// Prints golden-table rows for generator seeds [From, To]: each program
/// is verified by runCuba and its answer confirmed by the independent
/// context-bounded baseline; unconfirmed or undecided seeds become
/// comment lines and stay out of the pool.
int makeGolden(uint64_t From, uint64_t To) {
  const ResourceLimits L = benchLimits();
  exec::ThreadPool Pool(1);
  std::printf("# seed verdict bug_k jobs1_ms\n");
  for (uint64_t Seed = From; Seed <= To; ++Seed) {
    std::string Src = bp::printProgram(
        testing::generateRandomBp(Seed, testing::bpShapeOptions(Seed)));
    auto File = bp::compileBooleanProgram(Src);
    if (!File) {
      std::printf("# %llu rejected: %s\n", (unsigned long long)Seed,
                  File.error().str().c_str());
      continue;
    }
    DriverOptions O;
    O.Run.Limits = L;
    O.Run.Pool = &Pool;
    std::vector<double> Ms;
    DriverResult R;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Clock::time_point T0 = Clock::now();
      R = runCuba(File->System, File->Property, O);
      Ms.push_back(secondsSince(T0) * 1e3);
    }
    Outcome Oc = R.Run.outcome();
    if (Oc == Outcome::ResourceLimit) {
      std::printf("# %llu undecided: %s\n", (unsigned long long)Seed,
                  exhaustKindName(R.Run.ExhaustedBy));
      continue;
    }
    bool Bug = Oc == Outcome::BugFound;
    unsigned K = Bug ? *R.Run.BugBound : R.Run.KMax;
    BaselineResult Base = runCbaBaseline(
        File->System, File->Property, K, L,
        R.Fcr.Holds ? BaselineEngine::Explicit : BaselineEngine::Symbolic);
    bool Confirmed = Bug ? Base.BugBound == K
                         : !Base.BugBound && Base.CompletedToBound;
    if (!Confirmed) {
      std::printf("# %llu unconfirmed by the baseline at k %u\n",
                  (unsigned long long)Seed, K);
      continue;
    }
    std::printf("%llu %s %u %.3f\n", (unsigned long long)Seed,
                Bug ? "bug" : "safe", Bug ? K : 0, median(Ms));
    std::fflush(stdout);
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (A.GoldenTo)
    return makeGolden(A.GoldenFrom, A.GoldenTo);
  if (A.Workload == "randombp" && A.Golden.empty())
    usage("randombp needs --golden");

  Bench B;
  B.A = A;
  setUp(B);
  return A.Trace ? runTraced(B) : runEndToEnd(B);
}
