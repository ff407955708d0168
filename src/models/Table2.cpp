//===-- models/Table2.cpp - The Table 2 benchmark registry -----------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "models/Models.h"

using namespace cuba;
using namespace cuba::models;

std::vector<BenchmarkInstance> cuba::models::table2Instances() {
  std::vector<BenchmarkInstance> Rows;
  auto Add = [&](std::string Suite, std::string Config, bool Safe, bool Fcr,
                 CpdsFile File) {
    Rows.push_back({std::move(Suite), std::move(Config), Safe, Fcr,
                    std::move(File)});
  };

  // Suites 1-3: the Bluetooth driver.  Thread configs are
  // stoppers+adders (the recursive counter thread is implicit; see
  // models/Bluetooth.cpp).
  for (int V = 1; V <= 3; ++V) {
    std::string Suite = "Bluetooth-" + std::to_string(V);
    bool Safe = V == 3;
    Add(Suite, "1+1", Safe, true, buildBluetooth(V, 1, 1));
    Add(Suite, "1+2", Safe, true, buildBluetooth(V, 1, 2));
    Add(Suite, "2+1", Safe, true, buildBluetooth(V, 2, 1));
  }

  // Suite 4: concurrent binary search tree (inserters+searchers).
  Add("BST-Insert", "1+1", true, true, buildBstInsert(1, 1));
  Add("BST-Insert", "2+1", true, true, buildBstInsert(2, 1));
  Add("BST-Insert", "2+2", true, true, buildBstInsert(2, 2));

  // Suite 5: parallel file crawler (1 dispatcher + 2 workers).
  Add("FileCrawler", "1+2", true, true, buildFileCrawler(2));

  // Suite 6: the Fig. 2 program from [33]; not FCR.
  Add("K-Induction", "1+1", true, false, buildKInduction());

  // Suite 7: recursive producers + consumers; not FCR.
  Add("Proc-2", "2+2", true, false, buildProc2());

  // Suite 8: Stefan-1 with growing thread counts; not FCR.  The paper's
  // 8-thread instance exhausts the 4 GB budget; ours is proved safe at
  // k = 8 (the threads are identical, and the symbolic rounds run on
  // orbits of their permutations).
  Add("Stefan-1", "2", true, false, buildStefan1(2));
  Add("Stefan-1", "4", true, false, buildStefan1(4));
  Add("Stefan-1", "8", true, false, buildStefan1(8));

  // Suite 9: Dekker's mutual exclusion (recursion-free).
  Add("Dekker", "2", true, true, buildDekker());

  return Rows;
}
