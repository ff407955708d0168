//===-- testing/BpOracle.cpp - Program-level differential oracle ----------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "testing/BpOracle.h"

#include <algorithm>
#include <iterator>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Translate.h"
#include "core/SymbolicEngine.h"
#include "testing/RandomBp.h"

using namespace cuba;
using namespace cuba::testing;

namespace {

/// One round's new visible states, each rendered by shared-state and
/// symbol names so systems that number their symbols differently
/// compare; sorted.
std::vector<std::string> namedRound(const Cpds &C,
                                    const SymbolicEngine &E) {
  std::vector<std::string> Out;
  for (const VisibleState &V : E.newVisibleThisRound())
    Out.push_back(toString(C, V));
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Runs the reachable translation \p Reach and the all-frames
/// translation \p All of one program in lockstep and returns the first
/// round whose visible states differ, rendered, or "" when every round
/// both engines completed agrees.
std::string compareAllFrames(const Cpds &Reach, const Cpds &All,
                             const OracleOptions &Opts) {
  SymbolicEngine R(Reach, Opts.Limits), A(All, Opts.Limits);
  for (unsigned K = 0;; ++K) {
    std::vector<std::string> NewR = namedRound(Reach, R);
    std::vector<std::string> NewA = namedRound(All, A);
    if (NewR != NewA) {
      std::string Out = "k=" + std::to_string(K) + ":";
      auto OnlyIn = [&](const std::vector<std::string> &X,
                        const std::vector<std::string> &Y, const char *Tag) {
        std::vector<std::string> Only;
        std::set_difference(X.begin(), X.end(), Y.begin(), Y.end(),
                            std::back_inserter(Only));
        for (const std::string &V : Only)
          Out += Tag + V;
      };
      OnlyIn(NewR, NewA, " reachable-only ");
      OnlyIn(NewA, NewR, " all-frames-only ");
      return Out;
    }
    // A budget stop truncates the comparison.
    if (K >= Opts.MaxK ||
        R.advance() == SymbolicEngine::RoundStatus::Exhausted ||
        A.advance() == SymbolicEngine::RoundStatus::Exhausted)
      return "";
  }
}

} // namespace

std::string BpOracleReport::str() const {
  std::string S;
  for (const std::string &M : Mismatches)
    S += M + "\n";
  S += Engine.str();
  return S;
}

BpOracleReport cuba::testing::runBpOracle(const bp::Program &P,
                                          const BpOracleOptions &Opts) {
  BpOracleReport Rep;
  Rep.Source = bp::printProgram(P);
  auto Fail = [&](std::string Msg) {
    Rep.Mismatches.push_back(std::move(Msg));
    return Rep;
  };

  // Stage 1: the printed program must re-parse, and printing the
  // re-parse must reproduce the text exactly (print/parse fixpoint).
  auto Reparsed = bp::parseProgram(Rep.Source);
  if (!Reparsed)
    return Fail("printed program does not re-parse: " +
                Reparsed.error().str());
  std::string Source2 = bp::printProgram(*Reparsed);
  if (Source2 != Rep.Source)
    return Fail("print -> parse -> print is not a fixpoint:\n--- first\n" +
                Rep.Source + "--- second\n" + Source2);

  // Stage 2: compiling the same text twice must yield byte-identical
  // .cpds output -- the frontend has no legitimate source of
  // irreproducibility, and this comparison is what the injected
  // translate mutation must trip.
  auto FileA = bp::compileBooleanProgram(Rep.Source);
  if (!FileA)
    return Fail("frontend rejects the generated program: " +
                FileA.error().str());
  if (Opts.InjectTranslateBug)
    bp_testing::InjectDropAssignRule = true;
  auto FileB = bp::compileBooleanProgram(Rep.Source);
  bp_testing::InjectDropAssignRule = false;
  if (!FileB)
    return Fail("frontend rejects the re-parsed program: " +
                FileB.error().str());
  std::string CpdsA = printCpds(*FileA);
  if (std::string CpdsB = printCpds(*FileB); CpdsB != CpdsA)
    return Fail("translating the same program twice differs (" +
                std::to_string(CpdsA.size()) + " vs " +
                std::to_string(CpdsB.size()) + " bytes of .cpds text)");

  // Stage 3: the translated system must round-trip through the .cpds
  // text format (--emit-cpds output is a loadable input).
  auto Reloaded = parseCpds(CpdsA);
  if (!Reloaded)
    return Fail("translated system does not re-parse as .cpds: " +
                Reloaded.error().str());
  if (std::string CpdsC = printCpds(*Reloaded); CpdsC != CpdsA)
    return Fail("translated .cpds text is not a print(parse(.)) fixpoint");

  // Stage 4: emitting every frame instead of only the reachable ones
  // must not change any visible round.  The all-frames system may
  // outgrow the size limits the reachable one meets; that refusal is
  // legitimate and skips the stage.
  bp::TranslateOptions AllFrames;
  AllFrames.AllFrames = true;
  auto FileAll = bp::compileBooleanProgram(Rep.Source, AllFrames);
  if (FileAll) {
    std::string Diff =
        compareAllFrames(FileA->System, FileAll->System, Opts.Engine);
    if (!Diff.empty())
      return Fail("reachable and all-frames translations differ at " + Diff);
  }

  // Stage 5: the full cross-engine battery on the translated system.
  Rep.Engine = runDifferentialOracle(*FileA, Opts.Engine);
  return Rep;
}

BpOracleReport cuba::testing::checkBpSeed(uint64_t Seed,
                                          const BpOracleOptions &Opts) {
  bp::Program P = generateRandomBp(Seed, bpShapeOptions(Seed));
  return runBpOracle(P, Opts);
}
