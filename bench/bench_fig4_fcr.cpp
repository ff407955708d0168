//===-- bench/bench_fig4_fcr.cpp - Regenerates Fig. 4 ----------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Experiment E3: the FCR determination of Fig. 4.  For each thread of
/// the Fig. 1 and Fig. 2 systems, saturates the pushdown store automaton
/// of R(Q x Sigma^{<=1}) and reports whether its useful part is
/// loop-free (language finite); checkFcr stores only the automaton's
/// push-helper level and tests that for a cycle.  Fig. 1's threads pass
/// (FCR holds); Fig. 2's threads have pumpable loops (FCR fails).  The
/// per-thread verdicts for the whole Table 2 suite follow.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchUtil.h"
#include "core/FcrCheck.h"
#include "models/Models.h"

using namespace cuba;
using namespace cuba::benchutil;

static void report(const char *Name, const CpdsFile &F, const char *Paper) {
  FcrResult R = checkFcr(F.System);
  std::printf("%-22s: FCR %s (paper: %s); per-thread language finite:",
              Name, R.Holds ? "HOLDS" : "fails", Paper);
  for (unsigned I = 0; I < R.ThreadFinite.size(); ++I)
    std::printf(" %s=%s", F.System.threadName(I).c_str(),
                R.ThreadFinite[I] ? "yes" : "no");
  std::printf("\n");
}

int main() {
  std::printf("[E3] Fig. 4: finite context reachability via PSA "
              "loop-freeness\n");
  rule('=');
  report("Fig. 1 example", models::buildFig1(), "holds");
  report("Fig. 2 / K-Induction", models::buildFig2(), "fails");

  std::printf("\nFull suite (Table 2 FCR column):\n");
  for (const auto &Row : models::table2Instances()) {
    FcrResult R = checkFcr(Row.File.System);
    bool Match = R.Holds == Row.ExpectFcr;
    std::printf("  %-12s %-4s: measured %-5s paper %-5s %s\n",
                Row.Suite.c_str(), Row.Config.c_str(),
                R.Holds ? "yes" : "no", Row.ExpectFcr ? "yes" : "no",
                Match ? "[match]" : "[MISMATCH]");
  }
  return 0;
}
