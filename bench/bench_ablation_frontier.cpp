//===-- bench/bench_ablation_frontier.cpp - Frontier expansion ablation ----=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A2 (see BUILDING.md, "Model reconstructions"): the
/// explicit engine expands only the frontier R_k \ R_{k-1} each round,
/// justified by the idempotence of per-thread closures.  This harness
/// runs both modes on the same systems, checks the per-round sets agree
/// exactly, and reports the work saved.
///
//===----------------------------------------------------------------------===//

#include <cstdio>

#include "BenchUtil.h"
#include "core/CbaEngine.h"
#include "models/Models.h"
#include "support/Timer.h"

using namespace cuba;
using namespace cuba::benchutil;

namespace {

struct ModeStats {
  double Millis = 0;
  uint64_t Steps = 0;
  size_t States = 0;
  bool Agreed = true;
};

void compare(const char *Name, const CpdsFile &F, unsigned Rounds) {
  ModeStats Frontier, Full;
  {
    WallTimer T;
    CbaEngine E(F.System, ResourceLimits::unlimited());
    for (unsigned K = 0; K < Rounds; ++K)
      if (E.advance() != CbaEngine::RoundStatus::Ok)
        break;
    Frontier = {T.millis(), E.limits().steps(), E.reachedSize(), true};
  }
  {
    WallTimer T;
    CbaEngine E(F.System, ResourceLimits::unlimited());
    CbaEngine Ref(F.System, ResourceLimits::unlimited());
    E.setExpandAll(true);
    bool Agreed = true;
    for (unsigned K = 0; K < Rounds; ++K) {
      if (E.advance() != CbaEngine::RoundStatus::Ok)
        break;
      Ref.advance();
      Agreed = Agreed && E.reachedSize() == Ref.reachedSize() &&
               E.visibleSize() == Ref.visibleSize();
    }
    Full = {T.millis(), E.limits().steps(), E.reachedSize(), Agreed};
  }
  std::printf("%-18s k<=%-2u | frontier: %8.2f ms %9llu steps | "
              "full: %8.2f ms %9llu steps | speedup %.1fx | results %s\n",
              Name, Rounds, Frontier.Millis,
              static_cast<unsigned long long>(Frontier.Steps), Full.Millis,
              static_cast<unsigned long long>(Full.Steps),
              Frontier.Millis > 0 ? Full.Millis / Frontier.Millis : 0.0,
              Full.Agreed ? "identical" : "DIFFER (bug!)");
}

} // namespace

int main() {
  std::printf("[A2] Frontier vs full re-expansion in the explicit "
              "engine\n");
  rule('=');
  compare("Fig1", models::buildFig1(), 12);
  compare("Bluetooth-1 1+1", models::buildBluetooth(1, 1, 1), 12);
  compare("Bluetooth-3 1+2", models::buildBluetooth(3, 1, 2), 10);
  compare("BST 2+2", models::buildBstInsert(2, 2), 10);
  compare("Dekker", models::buildDekker(), 12);
  return 0;
}
