//===-- tests/BpCorpusTest.cpp - Golden verdicts for examples/corpus -------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every .bp model under examples/corpus/ carries a golden verdict in
/// its first line:
///
///   // verdict: safe      -- runCuba must prove it
///   // verdict: bug <k>   -- runCuba must find the bug at bound <k>
///
/// The suite compiles each model and checks the driver reproduces the
/// committed verdict exactly (outcome AND bound), so any frontend or
/// engine change that shifts a corpus verdict fails loudly.  The
/// corpus directory is baked in via CUBA_CORPUS_DIR; the cuba binary
/// path via CUBA_TOOL (for the CLI tests).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Translate.h"
#include "core/CubaDriver.h"
#include "pds/CpdsIO.h"
#include "support/Hashing.h"
#include "testing/RandomBp.h"

using namespace cuba;

namespace {

struct CorpusModel {
  std::string Path;
  std::string Source;
  bool ExpectBug = false;
  unsigned BugBound = 0;
};

/// Loads every corpus model and its golden header, in path order so
/// failures are reported deterministically.
std::vector<CorpusModel> loadCorpus() {
  std::vector<CorpusModel> Models;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CUBA_CORPUS_DIR)) {
    if (Entry.path().extension() != ".bp")
      continue;
    CorpusModel M;
    M.Path = Entry.path().string();
    std::ifstream In(M.Path);
    std::stringstream SS;
    SS << In.rdbuf();
    M.Source = SS.str();
    Models.push_back(std::move(M));
  }
  std::sort(Models.begin(), Models.end(),
            [](const CorpusModel &A, const CorpusModel &B) {
              return A.Path < B.Path;
            });
  EXPECT_GE(Models.size(), 10u) << "corpus shrank below 10 models";
  for (CorpusModel &M : Models) {
    constexpr std::string_view Safe = "// verdict: safe";
    constexpr std::string_view Bug = "// verdict: bug ";
    if (M.Source.rfind(Safe, 0) == 0) {
      M.ExpectBug = false;
    } else if (M.Source.rfind(Bug, 0) == 0) {
      M.ExpectBug = true;
      M.BugBound =
          static_cast<unsigned>(std::stoul(M.Source.substr(Bug.size())));
    } else {
      ADD_FAILURE() << M.Path
                    << ": first line must be '// verdict: safe' or "
                       "'// verdict: bug <k>'";
    }
  }
  return Models;
}

DriverResult run(const CorpusModel &M) {
  auto F = bp::compileBooleanProgram(M.Source);
  EXPECT_TRUE(F) << M.Path << ": " << F.error().str();
  DriverOptions O;
  // State/step budgets only: wall-clock cutoffs would make the golden
  // verdicts machine-dependent.
  O.Run.Limits = ResourceLimits{500'000, 50'000'000, 24, 0};
  return runCuba(F->System, F->Property, O);
}

} // namespace

TEST(BpCorpus, GoldenVerdicts) {
  for (const CorpusModel &M : loadCorpus()) {
    DriverResult R = run(M);
    if (M.ExpectBug) {
      EXPECT_EQ(R.Run.outcome(), Outcome::BugFound) << M.Path;
      ASSERT_TRUE(R.Run.BugBound.has_value()) << M.Path;
      EXPECT_EQ(*R.Run.BugBound, M.BugBound) << M.Path;
    } else {
      EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << M.Path;
      EXPECT_FALSE(R.Run.BugBound.has_value()) << M.Path;
    }
  }
}

TEST(BpCorpus, TranslationsMatchGoldenHashes) {
  // A 64-bit FNV-1a fingerprint of every model's printCpds text pins the
  // translation itself: symbol numbering (discovery order from each
  // thread's entry frame), rule order, labels and the property.  A
  // change that renumbers, reorders or drops anything fails here even
  // when every verdict survives; one that does so on purpose must
  // update these values (cuba --emit-cpds prints the same text).
  const std::map<std::string, uint64_t> Golden = {
      {"atomic_handoff.bp", 0x755fffbab0b149ffull},
      {"bluetooth_v1.bp", 0xffefaa8faf513b7eull},
      {"bluetooth_v3.bp", 0x26e19010eb3feef1ull},
      {"constrain_pair.bp", 0x546fa8643ba620b2ull},
      {"goto_retry.bp", 0x49bf0719c9e081b0ull},
      {"helper_result.bp", 0x7b6282f4bf140bf7ull},
      {"lock_protocol.bp", 0x9c9375e36e3e8412ull},
      {"lock_race.bp", 0x1458631aabcbaa3bull},
      {"recursion_race.bp", 0x3f9c1d99f20a7832ull},
      {"recursion_tower.bp", 0x83102b636d40963aull},
      {"three_stations.bp", 0x90e7932de0b8d221ull},
  };
  std::vector<CorpusModel> Models = loadCorpus();
  EXPECT_EQ(Models.size(), Golden.size());
  for (const CorpusModel &M : Models) {
    std::string Name = std::filesystem::path(M.Path).filename().string();
    auto F = bp::compileBooleanProgram(M.Source);
    ASSERT_TRUE(F) << M.Path << ": " << F.error().str();
    auto It = Golden.find(Name);
    ASSERT_NE(It, Golden.end()) << Name << " has no golden hash";
    EXPECT_EQ(hashString(printCpds(*F)), It->second)
        << Name << ": the translation changed";
  }
}

TEST(BpCorpus, GeneratedTranslationsMatchGoldenHashes) {
  // The same fingerprint over generator seeds 1-100, compiled from their
  // printed source as `cuba fuzz --mode bp` and verifybench do.  Seeds
  // 4, 9, 15, 26 and 93 have 128 shared valuations and seeds 53 and 95
  // have 256, so these pin the rule walk past one 64-bit mask word.
  static constexpr uint64_t Golden[100] = {
      0x35d46bed43da12b3ull, 0x1321bce00152f0d4ull, 0x16cec9b16b4ffe93ull,
      0x0c9728d8fd0602d4ull, 0x6c360fa1a5412e89ull, 0xd13f54c6ebf1ce77ull,
      0xd43b62293ea5a896ull, 0x5b2c44084817b2aaull, 0xe24fa1a57545f31dull,
      0x80912ce08f78ab9dull, 0x8bf80fedfa16dcfdull, 0xf5d0b35fb2281f09ull,
      0x63e524ff7c2d42beull, 0x9751e1b7c9e4f755ull, 0x8a188fd943a12de3ull,
      0x84ba84b13fd5842aull, 0xa11866591afa8439ull, 0x25ec4297bb7b5fafull,
      0x8a7bc32cfa9bc65dull, 0x0f2d152d2ac4a15full, 0x37ac93d67b98cd8aull,
      0x0775a5ac120d16c3ull, 0xcbb1bf9bdf58d4a7ull, 0x7aab7ddf0e04f44bull,
      0xed5ab433dce67050ull, 0xff67cf804620ea93ull, 0xf194e8b79aa71d65ull,
      0x157a193ced447cd6ull, 0xc7eb03806a636c2bull, 0x9eca36b5ed2a7f60ull,
      0xa08d1eab9f775b8full, 0xe93b39ef233dc15full, 0x76eab2b45614d379ull,
      0x8b3b31c0dcf01e53ull, 0xe8219b87161bc1e0ull, 0x1ef4dfbb20e7e825ull,
      0x9c704321c656a230ull, 0x878af65f7fb65949ull, 0xca1e6403502b0278ull,
      0xb2577f1852b9401full, 0x7e1f16a0b01790fdull, 0x2f748ab5b8256127ull,
      0xdc18694c9dedf9a1ull, 0xaa6dff644a6d6c1eull, 0x778db128df55b32cull,
      0x9dab062f860b2f96ull, 0xf64549b6a4f697baull, 0x1e7eb3f119b6f6a2ull,
      0x559ec2383e01cf91ull, 0xca4f1ba91b0a6b3full, 0x23e2b036d3d5c041ull,
      0x0a15be9865e13729ull, 0x4bcf33b7e8e89cc5ull, 0xdd54790b877e299dull,
      0x998fe4df873e5182ull, 0x2d805454e187a8d5ull, 0x7bdffdb20fe6174bull,
      0x2fa9d4cc9bc721f7ull, 0xcafad47039dba745ull, 0xa1d8404349ce5919ull,
      0xf93430f18a4a6c08ull, 0x62f013dca2f8230cull, 0x97e2facc30b499dbull,
      0x80155444985c55d2ull, 0x95bba060d2a05387ull, 0xa6e6c17d1e63a88bull,
      0x6cc5cae037141942ull, 0x8f09b3cfb31365c3ull, 0x5df1cffc1c296838ull,
      0x0195198cac9010b4ull, 0x5d8eddcd45c79486ull, 0x34701a203c37ed36ull,
      0xb6fc5bc677063338ull, 0xc09b14a1f1e4b52eull, 0x37ac93d67b98cd8aull,
      0x240dbccc613623d2ull, 0x0fdda5113cba517eull, 0xf63384a9f6d66954ull,
      0x74ce44edbbc2f3fbull, 0xc7edbe19331ca8afull, 0xc096e3c769ba0079ull,
      0xbe986d8dc043b0f2ull, 0xb21fdada7233202cull, 0xe9efb230080d548aull,
      0x1bc139c76f853f1bull, 0x8479339168d47f8bull, 0x8072da76f567bb82ull,
      0x5d142c2c2bb8d631ull, 0x5293cdffc3c6ce93ull, 0x001a0afe6459d361ull,
      0xb8347a75cecebc95ull, 0x45f91814d219e72eull, 0xb1661fb7d1a6763aull,
      0x43f823128511447dull, 0xa6177b1fd9b57115ull, 0xeee8d7a407911fd2ull,
      0xc1d1208b94ebf4cfull, 0x8d8e28842c1d9345ull, 0x27ad74cb389e36e7ull,
      0xbfeb04533e256601ull,
  };
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    std::string Source = bp::printProgram(cuba::testing::generateRandomBp(
        Seed, cuba::testing::bpShapeOptions(Seed)));
    auto F = bp::compileBooleanProgram(Source);
    ASSERT_TRUE(F) << "seed " << Seed << ": " << F.error().str();
    EXPECT_EQ(hashString(printCpds(*F)), Golden[Seed - 1])
        << "seed " << Seed << ": the translation changed";
  }
}

TEST(BpCorpus, WideSharedStateTranslationMatchesGoldenHash) {
  // No generated program reads a global whose bit of Q is 6 or higher:
  // there, bits 6 and up are $ret and $lock.  Here g6
  // and g7 (bits 6 and 7, two $ret bits above them: 1,024 valuations)
  // appear in conditions, a constrained parallel assignment, a call
  // argument and a return value.
  static const char *Source = R"(
decl g0, g1, g2, g3, g4, g5, g6, g7;

bool pick(a) {
  return a ^ g7;
}

void worker() {
  decl x;
  x := g6 & !g7;
  g1, g2, g3 := g7, g6 & g1, g2 | g3;
  if (g7 != g0) { g6 := !g6; } else { g7 := g5 | g6; }
  x, g7 := *, g6 constrain x = g7;
  g5 := call pick(g6);
  assume(g6 | g7 | x);
  assert(!(g6 & g7 & g4));
}

void main() {
  thread_create(worker);
  thread_create(worker);
}
)";
  auto F = bp::compileBooleanProgram(Source);
  ASSERT_TRUE(F) << F.error().str();
  EXPECT_EQ(F->System.numSharedStates(), 1025u);
  EXPECT_EQ(hashString(printCpds(*F)), 0x55a8745cced084e1ull)
      << "the translation changed";
}

TEST(BpCorpus, AllFramesTranslationsMatchGoldenHashes) {
  // Every frame emitted (TranslateOptions::AllFrames, the oracle's
  // reference translation): frames no thread reaches are emitted too.
  const std::map<std::string, uint64_t> Golden = {
      {"atomic_handoff.bp", 0xc5d338f861ec1723ull},
      {"bluetooth_v1.bp", 0x46e5f6f506b42f73ull},
      {"bluetooth_v3.bp", 0x809c8b412e84823bull},
      {"constrain_pair.bp", 0xd30f0f7e474ef66dull},
      {"goto_retry.bp", 0xd13f0ac8ff292ab4ull},
      {"helper_result.bp", 0xff611c344b9e3c43ull},
      {"lock_protocol.bp", 0x7fdee299a6c9ddc3ull},
      {"lock_race.bp", 0xe45e459ccfc551b9ull},
      {"recursion_race.bp", 0x3c32a3626c737f90ull},
      {"recursion_tower.bp", 0x3bf62c148dca803dull},
      {"three_stations.bp", 0xb1f80df5a06f6bbfull},
  };
  bp::TranslateOptions Opts;
  Opts.AllFrames = true;
  std::vector<CorpusModel> Models = loadCorpus();
  EXPECT_EQ(Models.size(), Golden.size());
  for (const CorpusModel &M : Models) {
    std::string Name = std::filesystem::path(M.Path).filename().string();
    auto F = bp::compileBooleanProgram(M.Source, Opts);
    ASSERT_TRUE(F) << M.Path << ": " << F.error().str();
    auto It = Golden.find(Name);
    ASSERT_NE(It, Golden.end()) << Name << " has no golden hash";
    EXPECT_EQ(hashString(printCpds(*F)), It->second)
        << Name << ": the all-frames translation changed";
  }
}

TEST(BpCorpus, TaintFoldTranslationsMatchGoldenHashes) {
  // The taint examples with each fact folded alone (`cuba dataflow`'s
  // folds) and with every fact folded (the dataflow oracle's reference),
  // plus the sink sites the translation records: (thread, frame, fact).
  struct Case {
    const char *File;
    uint32_t Fold;
    uint64_t Hash;
  };
  const Case Golden[] = {
      {"taint_demo.bp", 0x1, 0xcc7aa4294c5aadf0ull},
      {"taint_demo.bp", 0x2, 0x632b984130b7e6a4ull},
      {"taint_demo.bp", 0x3, 0x8b9e6c445790021bull},
      {"taint_recursive.bp", 0x1, 0x81bf6f6f734eb687ull},
      {"taint_recursive.bp", 0x2, 0x02777baecb738597ull},
      {"taint_recursive.bp", 0x3, 0xc24a9fe8517d7daaull},
  };
  const std::map<std::string, std::string> GoldenSinks = {
      {"taint_demo.bp", "{0,4,0} {1,3,1}"},
      {"taint_recursive.bp", "{0,7,1} {1,1,0}"},
  };
  for (const Case &C : Golden) {
    std::ifstream In(std::string(CUBA_EXAMPLES_DIR) + "/" + C.File);
    std::stringstream SS;
    SS << In.rdbuf();
    bp::TaintInfo Taint;
    bp::TranslateOptions Opts;
    Opts.FoldTaint = C.Fold;
    Opts.Taint = &Taint;
    auto F = bp::compileBooleanProgram(SS.str(), Opts);
    ASSERT_TRUE(F) << C.File << ": " << F.error().str();
    EXPECT_EQ(hashString(printCpds(*F)), C.Hash)
        << C.File << " fold " << C.Fold << ": the translation changed";
    std::string Sinks;
    for (const bp::TaintSinkSite &S : Taint.Sinks)
      Sinks += (Sinks.empty() ? "{" : " {") + std::to_string(S.Thread) +
               "," + std::to_string(S.Frame) + "," + std::to_string(S.Fact) +
               "}";
    EXPECT_EQ(Sinks, GoldenSinks.at(C.File)) << C.File << " fold " << C.Fold;
  }
}

TEST(BpCorpus, VerdictsSurviveReprint) {
  // The corpus doubles as a frontend fixture: printing the parsed model
  // and re-verifying must reproduce the golden verdict.
  for (const CorpusModel &M : loadCorpus()) {
    auto P = bp::parseProgram(M.Source);
    ASSERT_TRUE(P) << M.Path << ": " << P.error().str();
    CorpusModel Reprinted = M;
    Reprinted.Source = bp::printProgram(*P);
    DriverResult R = run(Reprinted);
    if (M.ExpectBug) {
      EXPECT_EQ(R.Run.outcome(), Outcome::BugFound) << M.Path;
    } else {
      EXPECT_EQ(R.Run.outcome(), Outcome::Proved) << M.Path;
    }
  }
}

//===----------------------------------------------------------------------===//
// CLI error output (satellite of the fuzz pipeline: errors must name
// the input and its position)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the cuba binary and captures combined stdout+stderr; \p Env is
/// an optional VAR=value prefix for the child environment.
std::pair<int, std::string> runTool(const std::string &Args,
                                    const std::string &Env = {}) {
  std::string Cmd = (Env.empty() ? std::string() : Env + " ") +
                    std::string(CUBA_TOOL) + " " + Args + " 2>&1";
  std::FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  return {WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, Out};
}

} // namespace

TEST(BpCorpus, CliErrorsNameTheInputPath) {
  auto [Rc, Out] = runTool("/nonexistent/model.bp");
  EXPECT_EQ(Rc, 64);
  EXPECT_NE(Out.find("cuba: /nonexistent/model.bp: cannot open file"),
            std::string::npos)
      << Out;
}

TEST(BpCorpus, CliErrorsCarryLineAndColumn) {
  // A syntax error inside a real file must be reported as
  // "cuba: <path>: <line>:<col>: <message>".
  std::string Bad = std::string(::testing::TempDir()) + "corpus_bad.bp";
  {
    std::ofstream Out(Bad);
    Out << "decl a;\nvoid f() { a := ; }\n"
           "void main() { thread_create(f); }\n";
  }
  auto [Rc, Output] = runTool(Bad);
  EXPECT_EQ(Rc, 64);
  EXPECT_NE(Output.find("cuba: " + Bad + ": 2:"), std::string::npos)
      << Output;
  std::remove(Bad.c_str());
}

TEST(BpCorpus, CliRejectsMalformedFlagValues) {
  // Every numeric flag value is validated hard: malformed text,
  // out-of-range magnitudes, and the historical silent-truncation
  // cases (--max-k / --jobs casting through unsigned, --max-mb's
  // << 20 wrapping past 64 bits) all exit 64 with a diagnostic that
  // names the flag and the accepted range.  So do the values the
  // engines would not honour as given: a --max-k of 0, which the
  // verifier reads as no cap, and a --jobs above the pool's cap.  None
  // of these cases starts a pool.
  struct Case {
    const char *Args;
    const char *Flag;
  };
  const Case Cases[] = {
      {"--max-k abc model.bp", "--max-k"},
      {"--max-k 4294967296 model.bp", "--max-k"}, // used to truncate to 0
      {"--jobs 0 model.bp", "--jobs"},
      {"--jobs 1025 model.bp", "--jobs"},
      {"--jobs 4294967297 model.bp", "--jobs"}, // used to truncate to 1
      {"--max-mb 17592186044416 model.bp", "--max-mb"}, // << 20 wrapped
      {"--max-states 12x model.bp", "--max-states"},
      {"--max-k model.bp", "--max-k"}, // value swallowed the input path
      {"--approach wat model.bp", "--approach"},
      {"fuzz --seed xyz", "--seed"},
      {"fuzz --jobs 0", "--jobs"},
      {"fuzz --max-mb 17592186044416", "--max-mb"},
      {"fuzz --mode wat", "--mode"},
      {"dataflow --max-k 4294967296 model.bp", "--max-k"},
      {"dataflow --jobs 1025 model.bp", "--jobs"},
      {"--max-k 0 model.bp", "--max-k"}, // used to mean no cap
      {"dataflow --max-k 0 model.bp", "--max-k"},
      {"fuzz --max-k 0", "--max-k"},
      {"--jobs 257 model.bp", "--jobs"}, // used to run 256
      {"dataflow --jobs 257 model.bp", "--jobs"},
  };
  for (const Case &C : Cases) {
    auto [Rc, Out] = runTool(C.Args);
    EXPECT_EQ(Rc, 64) << C.Args;
    EXPECT_NE(Out.find(std::string("cuba: invalid ") + C.Flag),
              std::string::npos)
        << C.Args << " produced:\n"
        << Out;
    EXPECT_NE(Out.find("usage"), std::string::npos) << C.Args;
    // The named diagnostic replaces the usage wall: the full usage text
    // would bury it.
    EXPECT_EQ(Out.find("usage: cuba [options]"), std::string::npos)
        << C.Args;
  }
}

namespace {

/// One subcommand's section of the usage text: the argv prefix that
/// selects it, the arguments that make an accepted command line cheap,
/// and each flag it lists with the name of its value (empty for a
/// switch).
struct UsageSection {
  std::string Prefix;
  std::string Tail;
  std::map<std::string, std::string> Flags;
};

/// Splits the usage text into the three subcommands' sections.  A flag
/// line starts with "  --name"; a value name follows after one space and
/// is uppercase ("N", "FILE") or lists words ("cpds|bp").
std::vector<UsageSection> usageSections() {
  auto [Rc, Usage] = runTool("");
  EXPECT_EQ(Rc, 64);
  std::vector<UsageSection> Sections = {
      {"", "/nonexistent/model.bp", {}},
      {"dataflow ", "/nonexistent/model.bp", {}},
      {"fuzz ", "--count 0", {}},
  };
  const char *Headers[] = {"usage: cuba [options]", "usage: cuba dataflow",
                           "usage: cuba fuzz"};
  std::istringstream In(Usage);
  int Current = -1;
  for (std::string Line; std::getline(In, Line);) {
    for (int S = 0; S < 3; ++S)
      if (Line.rfind(Headers[S], 0) == 0)
        Current = S;
    if (Current < 0 || Line.rfind("  --", 0) != 0)
      continue;
    size_t End = Line.find(' ', 2);
    std::string Name = Line.substr(2, End - 2), Value;
    if (End != std::string::npos && End + 1 < Line.size() &&
        Line[End + 1] != ' ') {
      std::string Next = Line.substr(End + 1, Line.find(' ', End + 1) -
                                                  End - 1);
      if (Next.find('|') != std::string::npos ||
          std::all_of(Next.begin(), Next.end(), [](char C) {
            return std::isupper(static_cast<unsigned char>(C)) != 0;
          }))
        Value = Next;
    }
    Sections[Current].Flags[Name] = Value;
  }
  return Sections;
}

/// A value the flag accepts, from its usage value name.
std::string sampleValue(const std::string &Value) {
  if (Value == "FILE")
    return std::string(::testing::TempDir()) + "corpus_flag_probe.out";
  if (Value.find('|') != std::string::npos)
    return Value.substr(0, Value.find('|'));
  return "1";
}

} // namespace

TEST(BpCorpus, CliUsageNamesEveryParsedFlag) {
  // From outside the binary: every flag the usage text names anywhere is
  // offered to every subcommand, and a subcommand accepts it exactly when
  // its own usage section lists it.  So no flag a subcommand parses goes
  // undocumented, and none is accepted where the usage does not offer it.
  std::vector<UsageSection> Sections = usageSections();
  std::map<std::string, std::string> AllFlags;
  for (const UsageSection &S : Sections) {
    EXPECT_GE(S.Flags.size(), 10u) << "'" << S.Prefix << "' lists too few";
    AllFlags.insert(S.Flags.begin(), S.Flags.end());
  }
  for (const UsageSection &S : Sections) {
    for (const auto &[Flag, Value] : AllFlags) {
      std::string Args = S.Prefix + Flag +
                         (Value.empty() ? "" : " " + sampleValue(Value)) +
                         " " + S.Tail;
      auto [Rc, Out] = runTool(Args);
      bool Wall = Out.find("usage: cuba [options]") != std::string::npos;
      if (!S.Flags.count(Flag)) {
        EXPECT_EQ(Rc, 64) << Args;
        EXPECT_TRUE(Wall) << Args << " was accepted:\n" << Out;
        continue;
      }
      EXPECT_FALSE(Wall) << Args << " was rejected:\n" << Out;
      // Parsing got through: the run reaches the input (or, for fuzz,
      // checks its zero instances).
      if (S.Prefix == "fuzz ")
        EXPECT_EQ(Rc, 0) << Args << "\n" << Out;
      else
        EXPECT_NE(Out.find("cannot open file"), std::string::npos)
            << Args << "\n" << Out;
    }
  }
  std::remove(sampleValue("FILE").c_str());
}

TEST(BpCorpus, CliReportsMissingFlagValues) {
  // Every flag that takes a value, given last without one, is the same
  // named one-line error, never the usage wall.
  for (const UsageSection &S : usageSections()) {
    unsigned Valued = 0;
    for (const auto &[Flag, Value] : S.Flags) {
      if (Value.empty())
        continue;
      ++Valued;
      std::string Args =
          S.Prefix + (S.Prefix == "fuzz " ? "" : S.Tail + " ") + Flag;
      auto [Rc, Out] = runTool(Args);
      EXPECT_EQ(Rc, 64) << Args;
      EXPECT_NE(Out.find("cuba: " + Flag + " expects a value (run 'cuba'"),
                std::string::npos)
          << Args << " produced:\n"
          << Out;
      EXPECT_EQ(Out.find("usage: cuba [options]"), std::string::npos)
          << Args;
    }
    EXPECT_GE(Valued, 6u) << "'" << S.Prefix << "' lists too few values";
  }
}

TEST(BpCorpus, CliStatsListsCountersSortedByName) {
  // --stats prints the registry's counters, sorted by name; an explicit
  // run also registers the cba.bytes.hwm gauge, which must not appear.
  auto [Rc, Out] = runTool("--approach explicit --stats " +
                           std::string(CUBA_CORPUS_DIR) +
                           "/helper_result.bp");
  EXPECT_EQ(Rc, 0) << Out;
  size_t At = Out.find("--- statistics ---\n");
  ASSERT_NE(At, std::string::npos) << Out;
  std::istringstream In(Out.substr(At + 19));
  std::vector<std::string> Names;
  for (std::string Line; std::getline(In, Line);)
    Names.push_back(Line.substr(Line.find_first_not_of(" 0123456789")));
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end())) << Out;
  EXPECT_NE(std::find(Names.begin(), Names.end(), "cba.rounds"), Names.end())
      << Out;
  EXPECT_EQ(std::find(Names.begin(), Names.end(), "cba.bytes.hwm"),
            Names.end())
      << Out;
}

TEST(BpCorpus, CliStatsShowsSymmetryGaugesOnTheExplicitRoute) {
  // FCR holds on atomic_handoff.bp, so the run takes the explicit route.
  // Its two handoff threads form a class, on whose orbits G cap Z is
  // built; --stats reports the class as the symbolic route does.
  auto [Rc, Out] = runTool("--stats " + std::string(CUBA_CORPUS_DIR) +
                           "/atomic_handoff.bp");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("approach:  explicit"), std::string::npos) << Out;
  EXPECT_NE(Out.find("         1  symmetry.classes\n"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("         2  symmetry.threads\n"), std::string::npos)
      << Out;
}

TEST(BpCorpus, CliTraceShowsEachFrontendLayerOnce) {
  // A .bp run's trace holds one det span per frontend layer: parse
  // (lexing included), sema and translate, in that order.
  std::string TracePath =
      std::string(::testing::TempDir()) + "corpus_frontend_trace.json";
  auto [Rc, Out] = runTool("--trace-out " + TracePath + " " +
                           CUBA_CORPUS_DIR + "/helper_result.bp");
  EXPECT_EQ(Rc, 0) << Out;
  std::ifstream In(TracePath);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Trace = SS.str();
  std::vector<size_t> At;
  for (const char *Layer : {"parse", "sema", "translate"}) {
    std::string Key = std::string("\"name\": \"") + Layer + "\"";
    size_t First = Trace.find(Key);
    ASSERT_NE(First, std::string::npos) << Layer << " span missing";
    EXPECT_EQ(Trace.find(Key, First + 1), std::string::npos)
        << Layer << " span repeated";
    At.push_back(First);
  }
  // Spans render in the order they end, which is the order of the layers.
  EXPECT_TRUE(std::is_sorted(At.begin(), At.end())) << Trace;
  std::remove(TracePath.c_str());
}

TEST(BpCorpus, CliRepeatedWordFlagKeepsItsLastValue) {
  // Like every other flag, a repeated word flag keeps its last value, so
  // --approach auto and --mode cpds undo an earlier choice.
  auto [Rc, Out] = runTool("fuzz --mode bp --mode cpds --count 0");
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_NE(Out.find("fuzz: 0 CPDS instance(s)"), std::string::npos) << Out;
  // FCR holds on this model, so auto picks the explicit engines.
  auto [RcRun, OutRun] = runTool("--approach symbolic --approach auto " +
                                 std::string(CUBA_CORPUS_DIR) +
                                 "/helper_result.bp");
  EXPECT_EQ(RcRun, 0) << OutRun;
  EXPECT_NE(OutRun.find("approach:  explicit"), std::string::npos) << OutRun;
}

TEST(BpCorpus, CliAcceptsBoundaryFlagValues) {
  // The range maxima themselves are legal.  A nonexistent input keeps
  // the run cheap: parsing succeeds, loading fails with the named error.
  auto [Rc, Out] = runTool("--max-k 4294967295 --max-mb 16777216 --jobs 4 "
                           "/nonexistent/model.bp");
  EXPECT_EQ(Rc, 64);
  EXPECT_NE(Out.find("cannot open file"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("invalid"), std::string::npos) << Out;
}

TEST(BpCorpus, ZIsExploredOnlyWhenTheGeneratorTestRuns) {
  // Alg. 3 reads G cap Z only at a new plateau of T(R_k), so runCuba
  // explores Z at the first such plateau -- or, with more than one job
  // (the CLI defaults to the core count), beside the rounds, joined
  // there.  The buggy models hit their bug before any plateau: they never
  // read Z, and a build they cancel emits no span.  The safe ones emit
  // exactly one.
  struct Case {
    const char *Model;
    int ExitCode; // 0 safe, 1 bug.
    size_t ZSpans;
  };
  const Case Cases[] = {
      {"lock_race.bp", 1, 0},        {"recursion_race.bp", 1, 0},
      {"three_stations.bp", 1, 0},   {"bluetooth_v1.bp", 1, 0},
      {"helper_result.bp", 0, 1},    {"atomic_handoff.bp", 0, 1},
      {"recursion_tower.bp", 0, 1},
  };
  std::string TracePath =
      std::string(::testing::TempDir()) + "corpus_z_trace.json";
  for (const Case &C : Cases) {
    auto [Rc, Out] = runTool("--trace-out " + TracePath + " " +
                             CUBA_CORPUS_DIR + "/" + C.Model);
    EXPECT_EQ(Rc, C.ExitCode) << C.Model << ":\n" << Out;
    std::ifstream In(TracePath);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Trace = SS.str();
    size_t Spans = 0;
    for (size_t Pos = 0;
         (Pos = Trace.find("\"name\": \"z-overapprox\"", Pos)) !=
         std::string::npos;
         ++Pos)
      ++Spans;
    EXPECT_EQ(Spans, C.ZSpans) << C.Model;
  }
  std::remove(TracePath.c_str());
}

//===----------------------------------------------------------------------===//
// Golden fuzz MISMATCH repro lines
//===----------------------------------------------------------------------===//

TEST(BpCorpus, FuzzMismatchReproLineCarriesEveryFlag) {
  // CUBA_FUZZ_INJECT=drop-combine simulates a lost mask propagation in
  // the saturation core, forcing the engines to disagree so the MISMATCH
  // report itself can be pinned: for both workloads the repro line must
  // replay the seed and every verdict-relevant flag at the values the
  // failing run used (--count collapses to 1).
  struct Mode {
    const char *ModeArgs;
    const char *WantRepro;
  };
  const Mode Modes[] = {
      {"",
       "reproduce: CUBA_FUZZ_SEED=1 cuba fuzz --count 1"
       " --max-k 3 --max-mb 64 --jobs 2"},
      {"--mode bp ",
       "reproduce: CUBA_FUZZ_SEED=2 cuba fuzz --mode bp --count 1"
       " --max-k 3 --max-mb 64 --jobs 2"},
  };
  for (const Mode &M : Modes) {
    auto [Rc, Out] =
        runTool(std::string("fuzz ") + M.ModeArgs +
                    "--count 40 --seed 1 --max-k 3 --max-mb 64 --jobs 2",
                "CUBA_FUZZ_INJECT=drop-combine");
    EXPECT_EQ(Rc, 1) << M.ModeArgs << Out;
    EXPECT_NE(Out.find("fuzz: MISMATCH at seed "), std::string::npos)
        << M.ModeArgs << Out;
    EXPECT_NE(Out.find(M.WantRepro), std::string::npos)
        << M.ModeArgs << " produced:\n"
        << Out;
  }
}

//===----------------------------------------------------------------------===//
// The dataflow subcommand
//===----------------------------------------------------------------------===//

namespace {

/// Writes a temp .bp file and returns its path.
std::string writeTempBp(const char *Name, const char *Source) {
  std::string Path = std::string(::testing::TempDir()) + Name;
  std::ofstream Out(Path);
  Out << Source;
  return Path;
}

} // namespace

TEST(BpCorpus, CliDataflowLeakVerdict) {
  std::string Path = writeTempBp("corpus_leak.bp",
                                 "decl x;\n\nvoid t() {\n  source(x);\n"
                                 "  sink(x);\n}\n\nvoid main() {\n"
                                 "  thread_create(&t);\n}\n\n");
  auto [Rc, Out] = runTool("dataflow --verify --jobs 2 " + Path);
  EXPECT_EQ(Rc, 1) << Out;
  EXPECT_NE(Out.find("facts:     1 (x)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("leak:      thread 0 at "), std::string::npos) << Out;
  EXPECT_NE(Out.find("verify:    agrees with the folded product reference"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("verdict:   LEAK"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(BpCorpus, CliDataflowVerdictNamesTheLeastLeakRound) {
  // Thread 1 leaks within its first context; thread 0 must first step to
  // its sink, so its hit comes a context later.  Hits are listed by
  // thread, yet the verdict names the least round of any.
  std::string Path = writeTempBp("corpus_least_round.bp",
                                 "decl x;\n\nvoid a() {\n  skip;\n"
                                 "  sink(x);\n}\n\nvoid b() {\n"
                                 "  source(x);\n  sink(x);\n}\n\n"
                                 "void main() {\n  thread_create(&a);\n"
                                 "  thread_create(&b);\n}\n\n");
  auto [Rc, Out] = runTool("dataflow " + Path);
  EXPECT_EQ(Rc, 1) << Out;
  size_t Late = Out.find("leak:      thread 0 at 'a.1' may observe tainted"
                         " 'x' (first at k=2)");
  size_t Early = Out.find("leak:      thread 1 at 'b.1' may observe tainted"
                          " 'x' (first at k=1)");
  EXPECT_NE(Late, std::string::npos) << Out;
  EXPECT_NE(Early, std::string::npos) << Out;
  EXPECT_LT(Late, Early) << Out;
  EXPECT_NE(Out.find("verdict:   LEAK within 1 contexts"), std::string::npos)
      << Out;
  std::remove(Path.c_str());
}

TEST(BpCorpus, CliDataflowSafeVerdict) {
  // The sanitize between source and sink clears the fact on every path,
  // and no other thread can re-taint it.
  std::string Path = writeTempBp("corpus_safe.bp",
                                 "decl x;\n\nvoid t() {\n  source(x);\n"
                                 "  sanitize(x);\n  sink(x);\n}\n\n"
                                 "void main() {\n  thread_create(&t);\n}"
                                 "\n\n");
  auto [Rc, Out] = runTool("dataflow --verify --jobs 2 " + Path);
  EXPECT_EQ(Rc, 0) << Out;
  EXPECT_EQ(Out.find("leak:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("verdict:   SAFE"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(BpCorpus, CliEmitCpdsRoundTripsOnCorpus) {
  // --emit-cpds output on every corpus model must be loadable .cpds
  // text (this is the regression surface for the 'entry#N' thread-name
  // bug, where '#' started a comment and the emitted file was garbage).
  for (const CorpusModel &M : loadCorpus()) {
    auto [Rc, Out] = runTool("--emit-cpds " + M.Path);
    EXPECT_EQ(Rc, 0) << M.Path;
    auto Back = parseCpds(Out);
    EXPECT_TRUE(Back) << M.Path << ": emitted .cpds does not re-parse: "
                      << Back.error().str();
  }
}
