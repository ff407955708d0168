//===-- verifybench/Inputs.cpp - Workload inputs and known answers --------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "models/Models.h"
#include "testing/RandomBp.h"

using namespace cuba;
using namespace verifybench;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "verifybench: %s\n", Msg.c_str());
  std::exit(2);
}

std::string readText(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path.string());
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Parses a corpus `// verdict: safe` / `// verdict: bug <k>` first line.
KnownAnswer corpusAnswer(const std::string &Path, const std::string &Text) {
  static const std::string Safe = "// verdict: safe";
  static const std::string Bug = "// verdict: bug ";
  KnownAnswer A;
  if (Text.rfind(Safe, 0) == 0)
    return A;
  if (Text.rfind(Bug, 0) == 0) {
    A.Safe = false;
    A.BugK = static_cast<unsigned>(std::stoul(Text.substr(Bug.size())));
    return A;
  }
  die(Path + ": first line is not a '// verdict:' header");
}

} // namespace

std::string KnownAnswer::str() const {
  std::string S = Safe ? "safe" : "bug " + std::to_string(BugK);
  if (Fcr)
    S += *Fcr ? " (fcr)" : " (no fcr)";
  return S;
}

ResourceLimits verifybench::benchLimits() {
  ResourceLimits L;
  L.MaxStates = 1'000'000;
  L.MaxSteps = 100'000'000;
  L.MaxContexts = 24;
  L.MaxMillis = 0;
  return L;
}

std::vector<GoldenRow> verifybench::loadGolden(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read golden table " + Path);
  std::vector<GoldenRow> Rows;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    GoldenRow R;
    std::string Verdict;
    if (!(LS >> R.Seed >> Verdict >> R.Answer.BugK >> R.Ms) ||
        (Verdict != "safe" && Verdict != "bug"))
      die(Path + ": malformed row '" + Line + "'");
    R.Answer.Safe = Verdict == "safe";
    Rows.push_back(R);
  }
  if (Rows.empty())
    die(Path + ": no rows");
  return Rows;
}

std::vector<GoldenRow> verifybench::poolRows(std::vector<GoldenRow> Rows,
                                             unsigned Limit) {
  // The few programs whose Z exploration runs for a sizeable fraction of
  // a second would dominate every pass on their own and leave too few
  // passes per run to time each input reliably; the pool keeps the long
  // tail below that.
  constexpr double PoolCapMs = 100;
  std::erase_if(Rows, [&](const GoldenRow &R) { return R.Ms > PoolCapMs; });
  std::sort(Rows.begin(), Rows.end(),
            [](const GoldenRow &A, const GoldenRow &B) {
              return A.Ms != B.Ms ? A.Ms < B.Ms : A.Seed < B.Seed;
            });
  if (Limit && Limit < Rows.size())
    Rows.resize(Limit);
  return Rows;
}

std::vector<Input> verifybench::buildInputs(const std::string &Name,
                                            const Scale &S,
                                            const std::vector<GoldenRow> &Pool,
                                            const std::string &CorpusDir) {
  std::vector<Input> Inputs;
  if (Name == "bst") {
    Input In;
    In.Name = "BST-Insert " + std::to_string(S.BstInserters) + "+" +
              std::to_string(S.BstSearchers);
    In.Model = models::buildBstInsert(S.BstInserters, S.BstSearchers);
    Inputs.push_back(std::move(In));
  } else if (Name == "stefan") {
    Input In;
    In.Name = "Stefan-1/" + std::to_string(S.StefanThreads);
    In.Model = models::buildStefan1(S.StefanThreads);
    Inputs.push_back(std::move(In));
  } else if (Name == "randombp") {
    if (S.WithCorpus) {
      std::vector<std::filesystem::path> Paths;
      std::error_code EC;
      for (const auto &E :
           std::filesystem::directory_iterator(CorpusDir, EC))
        if (E.path().extension() == ".bp")
          Paths.push_back(E.path());
      if (EC || Paths.empty())
        die("no .bp corpus under " + CorpusDir);
      std::sort(Paths.begin(), Paths.end());
      for (const auto &P : Paths) {
        Input In;
        In.Name = P.filename().string();
        In.Source = readText(P);
        In.Answer = corpusAnswer(In.Name, In.Source);
        Inputs.push_back(std::move(In));
      }
    }
    for (const GoldenRow &R : Pool) {
      Input In;
      In.Name = "gen-" + std::to_string(R.Seed);
      In.Source = bp::printProgram(testing::generateRandomBp(
          R.Seed, testing::bpShapeOptions(R.Seed)));
      In.Answer = R.Answer;
      Inputs.push_back(std::move(In));
    }
  } else {
    die("unknown workload '" + Name + "' (bst, stefan, randombp)");
  }
  return Inputs;
}

void verifybench::attachModelAnswers(std::vector<Input> &Inputs) {
  std::vector<models::BenchmarkInstance> Rows = models::table2Instances();
  for (Input &In : Inputs) {
    if (In.isSource())
      continue;
    std::string Suite = In.Name.substr(0, In.Name.find_first_of(" /"));
    auto It = std::find_if(Rows.begin(), Rows.end(),
                           [&](const models::BenchmarkInstance &R) {
                             return R.Suite == Suite;
                           });
    if (It == Rows.end())
      die("no Table 2 row for " + In.Name);
    In.Answer.Safe = It->ExpectSafe;
    In.Answer.Fcr = It->ExpectFcr;
  }
}

Verification verifybench::judge(const DriverResult &R,
                                const KnownAnswer &Answer) {
  Verification V;
  V.KMax = R.Run.KMax;
  switch (R.Run.outcome()) {
  case Outcome::ResourceLimit:
    V.St = Status::Exhausted;
    V.Detail = std::string("exhausted: ") + exhaustKindName(R.Run.ExhaustedBy);
    return V;
  case Outcome::Proved:
    if (!Answer.Safe) {
      V.St = Status::Mismatch;
      V.Detail = "proved safe, expected " + Answer.str();
    }
    break;
  case Outcome::BugFound:
    if (Answer.Safe || *R.Run.BugBound != Answer.BugK) {
      V.St = Status::Mismatch;
      V.Detail = "bug at " + std::to_string(*R.Run.BugBound) + ", expected " +
                 Answer.str();
    }
    break;
  }
  if (V.St == Status::Correct && Answer.Fcr && *Answer.Fcr != R.Fcr.Holds) {
    V.St = Status::Mismatch;
    V.Detail = std::string("fcr ") + (R.Fcr.Holds ? "holds" : "fails") +
               ", expected " + Answer.str();
  }
  return V;
}

Verification verifybench::verifyInput(const Input &In,
                                      const DriverOptions &Opts) {
  if (!In.isSource())
    return judge(runCuba(In.Model->System, In.Model->Property, Opts),
                 In.Answer);
  auto Reject = [](const Error &E) {
    Verification V;
    V.St = Status::Rejected;
    V.Detail = E.str();
    return V;
  };
  auto Prog = bp::parseProgram(In.Source);
  if (!Prog)
    return Reject(Prog.error());
  auto Info = bp::analyzeProgram(*Prog);
  if (!Info)
    return Reject(Info.error());
  auto File = bp::translateProgram(*Prog, *Info);
  if (!File)
    return Reject(File.error());
  return judge(runCuba(File->System, File->Property, Opts), In.Answer);
}
