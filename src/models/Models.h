//===-- models/Models.h - Benchmark program models ---------------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Programmatic builders for every benchmark of the paper's evaluation
/// (Table 2) plus the running examples of Figs. 1 and 2.  The original
/// artefact site is offline; these models are faithful reconstructions
/// from the paper and its cited sources (see BUILDING.md, "Model
/// reconstructions").  Models given as pushdown programs in the paper
/// (Figs. 1 and 2, Stefan-1) are reproduced action by action; the
/// program-level benchmarks are built as CPDSs from their descriptions.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_MODELS_MODELS_H
#define CUBA_MODELS_MODELS_H

#include <string>
#include <vector>

#include "pds/CpdsIO.h"

namespace cuba::models {

/// The two-thread running example of Fig. 1 (initial state <0 | 1, 4>).
/// No property is attached; the benches compute its reachability table.
CpdsFile buildFig1();

/// The Fig. 2 / Ex. 8 program (two recursive procedures foo and bar with
/// a shared flag x), identical to benchmark 6 "K-Induction" from [33].
/// Safe; the assertion is that both threads never finish with x values
/// that would re-enable foo's spin (encoded as a bad-state pattern that
/// is unreachable).
CpdsFile buildFig2();

/// Named access to every Table 2 benchmark instance.  Instances describe
/// one row, e.g. {"Bluetooth-1", "1+1"}.
struct BenchmarkInstance {
  std::string Suite;  ///< e.g. "Bluetooth-1".
  std::string Config; ///< Thread configuration, e.g. "2+1".
  bool ExpectSafe;    ///< The paper's Safe? column.
  bool ExpectFcr;     ///< The paper's FCR? column.
  CpdsFile File;
};

/// Bluetooth driver model (suites 1-3) with \p Stoppers stopper threads
/// and \p Adders adder threads.  \p Version selects the paper's variants:
/// 1 and 2 are buggy, 3 is the fixed driver.
CpdsFile buildBluetooth(int Version, unsigned Stoppers, unsigned Adders);

/// Concurrent binary-search-tree model (suite 4) with \p Inserters and
/// \p Searchers threads (Kung-Lehman style, recursion on tree descent).
CpdsFile buildBstInsert(unsigned Inserters, unsigned Searchers);

/// Parallel file crawler (suite 5): one non-recursive dispatcher plus
/// \p Workers recursive directory walkers.
CpdsFile buildFileCrawler(unsigned Workers);

/// Suite 6 "K-Induction": the Fig. 2 program.
CpdsFile buildKInduction();

/// Suite 7 "Proc-2" (from Chaki et al.): two recursive producers and two
/// non-recursive consumers over a one-slot channel.
CpdsFile buildProc2();

/// Suite 8 "Stefan-1" (the Schwoon-thesis PDS shape, Fig. 7 of App. C)
/// replicated over \p Threads identical threads.
CpdsFile buildStefan1(unsigned Threads);

/// Suite 9 "Dekker": the classic two-thread mutual-exclusion protocol
/// (the only recursion-free benchmark).
CpdsFile buildDekker();

/// All Table 2 rows in the paper's order.
std::vector<BenchmarkInstance> table2Instances();

} // namespace cuba::models

#endif // CUBA_MODELS_MODELS_H
