//===-- bench/bench_table2.cpp - Regenerates Table 2 -----------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment E4: the paper's main results table.  For every benchmark
/// instance, runs the Sec. 6 driver and prints the Table 2 columns:
/// thread configuration, FCR?, Safe?, the collapse bounds of (R_k) and
/// (T(R_k)) (with ">=k" for the sequence that was interrupted when the
/// other concluded, and the bug-revealing bound in parentheses for the
/// unsafe instances), time, and memory.  The paper-reported values are
/// printed alongside for comparison; see EXPERIMENTS.md for the
/// discussion of expected differences (reconstructed models, different
/// hardware).  Stefan-1/10 and Stefan-1/12 follow the paper's rows: the
/// symbolic rounds run on orbits of identical threads, so the suite
/// scales past the paper's 8-thread row.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchUtil.h"
#include "core/CubaDriver.h"
#include "models/Models.h"
#include "support/Timer.h"

using namespace cuba;
using namespace cuba::benchutil;

namespace {

/// Paper-reported numbers for the side-by-side column (Table 2).
struct PaperRow {
  const char *Suite;
  const char *Config;
  const char *RkKmax;
  const char *TkKmax;
  const char *Bug; // "-" when safe.
};

const PaperRow PaperRows[] = {
    {"Bluetooth-1", "1+1", ">=7", "6", "4"},
    {"Bluetooth-1", "1+2", ">=7", "6", "3"},
    {"Bluetooth-1", "2+1", ">=8", "7", "4"},
    {"Bluetooth-2", "1+1", ">=7", "6", "4"},
    {"Bluetooth-2", "1+2", ">=7", "6", "3"},
    {"Bluetooth-2", "2+1", ">=8", "7", "4"},
    {"Bluetooth-3", "1+1", ">=7", "6", "-"},
    {"Bluetooth-3", "1+2", ">=7", "6", "-"},
    {"Bluetooth-3", "2+1", ">=8", "7", "-"},
    {"BST-Insert", "1+1", "2", "2", "-"},
    {"BST-Insert", "2+1", "3", "3", "-"},
    {"BST-Insert", "2+2", ">=5", "4", "-"},
    {"FileCrawler", "1+2", "6", "6", "-"},
    {"K-Induction", "1+1", ">=4", "3", "-"},
    {"Proc-2", "2+2", ">=4", "3", "-"},
    {"Stefan-1", "2", ">=3", "2", "-"},
    {"Stefan-1", "4", ">=5", "4", "-"},
    {"Stefan-1", "8", ">=8", ">=8", "OOM"},
    {"Dekker", "2", "6", "6", "-"},
};

const PaperRow *paperRow(const std::string &Suite,
                         const std::string &Config) {
  for (const PaperRow &R : PaperRows)
    if (Suite == R.Suite && Config == R.Config)
      return &R;
  return nullptr;
}

} // namespace

int main() {
  std::printf("Table 2: CUBA on the benchmark suite "
              "(measured vs. paper-reported)\n");
  rule('=');
  std::printf("%-12s %-5s | %-4s %-5s %-7s %-7s %-6s %9s %8s | %21s\n",
              "Program", "Thr", "FCR?", "Safe?", "Rk-kmax", "Tk-kmax",
              "bug@k", "Time(s)", "Mem(MB)", "paper: Rk / Tk / bug");
  rule();

  auto PrintRow = [](const std::string &Suite, const std::string &Config,
                     const CpdsFile &File) {
    DriverOptions Opts;
    Opts.Run.Limits.MaxContexts = 24;
    Opts.Run.Limits.MaxStates = 1'000'000;
    Opts.Run.Limits.MaxSteps = 100'000'000;
    Opts.Run.Limits.MaxMillis = 60'000;
    Opts.Run.ContinueAfterBug = true;

    DriverResult R = runCuba(File.System, File.Property, Opts);

    std::string RkCol = boundOrGe(R.RkCollapse, R.Run.KMax);
    std::string TkCol = boundOrGe(R.TkCollapse, R.Run.KMax);
    std::string BugCol = R.Run.BugBound
                             ? std::to_string(*R.Run.BugBound)
                             : std::string("-");
    if (R.Run.outcome() == Outcome::ResourceLimit) {
      RkCol = ">=" + std::to_string(R.Run.KMax) + "!";
      TkCol = ">=" + std::to_string(R.Run.KMax) + "!";
    }
    const char *SafeCol =
        R.Run.BugBound ? "no" : (R.Run.ConvergedAt ? "yes" : "?");

    const PaperRow *Paper = paperRow(Suite, Config);
    std::printf("%-12s %-5s | %-4s %-5s %-7s %-7s %-6s %9.3f %8.1f |"
                " %5s / %4s / %4s\n",
                Suite.c_str(), Config.c_str(), R.Fcr.Holds ? "yes" : "no",
                SafeCol, RkCol.c_str(), TkCol.c_str(), BugCol.c_str(),
                R.Run.Millis / 1000.0, peakRSSMegabytes(),
                Paper ? Paper->RkKmax : "-", Paper ? Paper->TkKmax : "-",
                Paper ? Paper->Bug : "-");
  };
  for (const auto &Row : models::table2Instances())
    PrintRow(Row.Suite, Row.Config, Row.File);
  for (unsigned N : {10u, 12u})
    PrintRow("Stefan-1", std::to_string(N), models::buildStefan1(N));
  rule();
  std::printf(
      "Notes: '>=k' marks a sequence interrupted when the other one\n"
      "concluded (the Sec. 6 parallel composition); '>=k!' marks a\n"
      "resource-limited run.  The paper's Stefan-1/8 row ran out of its\n"
      "4 GB budget; ours proves it safe at k = 8, and the Stefan-1/10\n"
      "and /12 rows (no paper figures) go further: the symbolic rounds\n"
      "run on orbits of the identical threads (thread symmetry, see\n"
      "BUILDING.md).  Safe?/FCR?/bug verdicts are expected to match\n"
      "the paper exactly; kmax values match where the models are the\n"
      "paper's own pushdown systems and sit in the same small-k regime\n"
      "elsewhere (reconstructed models; see BUILDING.md).\n");
  return 0;
}
