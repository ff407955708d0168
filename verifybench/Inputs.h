//===-- verifybench/Inputs.h - Workload inputs and known answers -*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three workloads, each a list of inputs with a known
/// answer attached:
///
///   * bst      -- models::buildBstInsert(3, 3), one finished CPDS;
///   * stefan   -- models::buildStefan1(7), one finished CPDS;
///   * randombp -- the examples/corpus programs plus the generated programs
///                 of the golden table's pool, all as source text.
///
/// The workload seed shuffles the order in which timed passes verify the
/// inputs (main.cpp).  It does not choose which generated programs run:
/// seeded subsets made the end-to-end figures move with the draw (peak
/// RSS by up to half) rather than with the code, so the program set is
/// fixed.
///
/// Known answers come from the corpus `// verdict:` headers, the Safe? /
/// FCR? columns of models::table2Instances(), and the golden table that
/// lives next to this file (confirmed once against runCbaBaseline).
///
/// verifyInput() is the front door the untraced passes time: for source
/// inputs it runs parse -> sema -> translate -> runCuba, for model inputs
/// runCuba alone, and classifies the outcome against the known answer.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFYBENCH_INPUTS_H
#define VERIFYBENCH_INPUTS_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/CubaDriver.h"
#include "pds/CpdsIO.h"

namespace verifybench {

/// The verdict an input must reach: safe, or a bug first visible at
/// context bound BugK.  Fcr, when set, is the expected FCR answer.
struct KnownAnswer {
  bool Safe = true;
  unsigned BugK = 0;
  std::optional<bool> Fcr;

  std::string str() const;
};

/// One benchmark input: either Boolean-program source text or a
/// finished CPDS.
struct Input {
  std::string Name;
  std::string Source;
  std::optional<cuba::CpdsFile> Model;
  KnownAnswer Answer;

  bool isSource() const { return !Model.has_value(); }
};

/// Input sizes; tiny() is the self-check scale.
struct Scale {
  unsigned BstInserters = 3;
  unsigned BstSearchers = 3;
  unsigned StefanThreads = 7;
  /// Cap on randombp's generated programs (0: the whole pool).
  unsigned Generated = 0;
  bool WithCorpus = true;

  static Scale tiny() { return Scale{2, 2, 4, 5, false}; }
};

/// One row of the golden table: generator seed, verdict, and the jobs-1
/// verify time recorded when the table was made (used only to cap the
/// pool, never as an answer).
struct GoldenRow {
  uint64_t Seed = 0;
  KnownAnswer Answer;
  double Ms = 0;
};

/// Reads the golden table at \p Path; exits with a message when the file
/// is missing or malformed.
std::vector<GoldenRow> loadGolden(const std::string &Path);

/// The generated programs of the randombp workload: the golden rows
/// recorded at or below 100 ms, cheapest first; \p Limit > 0 keeps only
/// that many.
std::vector<GoldenRow> poolRows(std::vector<GoldenRow> Rows, unsigned Limit);

/// Builds the inputs of workload \p Name ("bst", "stefan", "randombp";
/// \p Pool supplies randombp's generated programs).  Exits on an unknown
/// name or unreadable corpus.
std::vector<Input> buildInputs(const std::string &Name, const Scale &S,
                               const std::vector<GoldenRow> &Pool,
                               const std::string &CorpusDir);

/// Attaches the known answers to model inputs (table2Instances columns);
/// source inputs carry theirs from buildInputs.  Kept out of
/// buildInputs so the Table 2 registry is not part of timed set-up.
void attachModelAnswers(std::vector<Input> &Inputs);

/// How one verification ended, judged against the known answer.
enum class Status {
  Correct,   ///< Verdict (and bug bound, FCR answer) as expected.
  Mismatch,  ///< A verdict that differs from the known answer.
  Rejected,  ///< The frontend refused the source.
  Exhausted, ///< The budget ran out before a verdict.
};

struct Verification {
  Status St = Status::Correct;
  unsigned KMax = 0;
  std::string Detail; ///< What went wrong, for Mismatch / Rejected.
};

/// Judges a finished runCuba result against \p Answer.
Verification judge(const cuba::DriverResult &R, const KnownAnswer &Answer);

/// Verifies \p In through the front door under \p Opts.
Verification verifyInput(const Input &In, const cuba::DriverOptions &Opts);

/// The budget every verification runs under: state and step bounds, no
/// wall clock, so verdicts do not depend on the machine.
cuba::ResourceLimits benchLimits();

} // namespace verifybench

#endif // VERIFYBENCH_INPUTS_H
