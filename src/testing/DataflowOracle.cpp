//===-- testing/DataflowOracle.cpp - Folds vs the full fold ---------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "testing/DataflowOracle.h"

#include <algorithm>
#include <memory>
#include <set>
#include <variant>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "core/CbaEngine.h"
#include "core/FcrCheck.h"
#include "core/SymbolicEngine.h"
#include "dataflow/TaintFolds.h"
#include "pds/CpdsIO.h"
#include "psa/SaturationEngine.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using namespace cuba::testing;

//===----------------------------------------------------------------------===//
// Annotation injection
//===----------------------------------------------------------------------===//

namespace {

bp::StmtPtr makeTaint(bp::StmtKind K, const std::string &Var) {
  auto S = std::make_unique<bp::Stmt>();
  S->Kind = K;
  S->TaintVar = Var;
  return S;
}

/// Walks function bodies inserting annotations at random statement
/// boundaries, recursing into structured statements.
struct Injector {
  SplitMix64 &Rng;
  const std::vector<std::string> &Vars;
  unsigned Budget;
  /// The (kind, variable) pairs placed so far.
  std::set<std::pair<bp::StmtKind, std::string>> Placed;

  const std::string &pickVar() { return Vars[Rng.below(Vars.size())]; }

  bp::StmtPtr pick() {
    uint64_t R = Rng.below(10);
    bp::StmtKind K = R < 4   ? bp::StmtKind::Source
                     : R < 7 ? bp::StmtKind::Sink
                             : bp::StmtKind::Sanitize;
    const std::string &Var = pickVar();
    Placed.emplace(K, Var);
    return makeTaint(K, Var);
  }

  void walk(std::vector<bp::StmtPtr> &Body) {
    for (size_t I = 0; I <= Body.size(); ++I) {
      if (Budget && Rng.chance(0.18)) {
        Body.insert(Body.begin() + I, pick());
        --Budget;
        ++I; // Never annotate the annotation just inserted.
      }
      if (I < Body.size()) {
        walk(Body[I]->Body);
        walk(Body[I]->ElseBody);
      }
    }
  }
};

/// Appends the thread entries (\p Entries) or the callees (otherwise)
/// named in \p Body, recursing into structured statements.
void collectTargets(const std::vector<bp::StmtPtr> &Body, bool Entries,
                    std::vector<std::string> &Out) {
  for (const bp::StmtPtr &S : Body) {
    if (Entries && S->Kind == bp::StmtKind::ThreadCreate)
      Out.push_back(S->ThreadFunc);
    if (!Entries && S->Kind == bp::StmtKind::Call)
      Out.push_back(S->Callee);
    collectTargets(S->Body, Entries, Out);
    collectTargets(S->ElseBody, Entries, Out);
  }
}

/// The functions some thread can run: main's thread_create targets and
/// everything they call, transitively, in program order.  The
/// translator emits frames for these alone, so only annotations placed
/// here can take part in a fold.
std::vector<bp::Function *> threadReachable(bp::Program &P) {
  std::vector<std::string> Work;
  for (const bp::Function &F : P.Functions)
    if (F.Name == "main")
      collectTargets(F.Body, /*Entries=*/true, Work);
  std::set<std::string> Reached;
  while (!Work.empty()) {
    std::string Name = std::move(Work.back());
    Work.pop_back();
    const bp::Function *F = P.findFunction(Name);
    if (!F || Name == "main" || !Reached.insert(Name).second)
      continue;
    collectTargets(F->Body, /*Entries=*/false, Work);
  }
  std::vector<bp::Function *> Fns;
  for (bp::Function &F : P.Functions)
    if (Reached.count(F.Name))
      Fns.push_back(&F);
  return Fns;
}

} // namespace

void cuba::testing::injectTaintAnnotations(bp::Program &P, uint64_t Seed) {
  if (P.SharedVars.empty())
    return;
  SplitMix64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0xda7af10b);

  // Pick 1-3 distinct shared variables as the fact alphabet (partial
  // Fisher-Yates over a copy).
  std::vector<std::string> Vars = P.SharedVars;
  size_t NumFacts = 1 + Rng.below(std::min<size_t>(Vars.size(), 3));
  for (size_t I = 0; I < NumFacts; ++I)
    std::swap(Vars[I], Vars[I + Rng.below(Vars.size() - I)]);
  Vars.resize(NumFacts);

  std::vector<bp::Function *> Fns = threadReachable(P);
  Injector Inj{Rng, Vars, /*Budget=*/6, {}};
  for (bp::Function *F : Fns)
    Inj.walk(F->Body);

  // Guarantee the instance is meaningful: every fact gets a source, a
  // sanitize and a sink (GEN, KILL and the query), each missing one at a
  // random boundary of a random thread-reachable body.
  if (Fns.empty())
    return;
  for (const std::string &Var : Vars)
    for (bp::StmtKind K : {bp::StmtKind::Source, bp::StmtKind::Sanitize,
                           bp::StmtKind::Sink}) {
      if (Inj.Placed.count({K, Var}))
        continue;
      std::vector<bp::StmtPtr> &Body = Fns[Rng.below(Fns.size())]->Body;
      Body.insert(Body.begin() + Rng.below(Body.size() + 1),
                  makeTaint(K, Var));
    }
}

//===----------------------------------------------------------------------===//
// The lockstep comparison
//===----------------------------------------------------------------------===//

namespace {

/// Renders the symmetric difference of two sorted visible-state vectors
/// (fold coordinates, so \p C is the fold's system).
std::string setDiff(const Cpds &C, const std::vector<VisibleState> &Fold,
                    const std::vector<VisibleState> &Full) {
  std::string Out;
  std::vector<VisibleState> OnlyFold, OnlyFull;
  std::set_difference(Fold.begin(), Fold.end(), Full.begin(), Full.end(),
                      std::back_inserter(OnlyFold));
  std::set_difference(Full.begin(), Full.end(), Fold.begin(), Fold.end(),
                      std::back_inserter(OnlyFull));
  for (const VisibleState &V : OnlyFold)
    Out += " fold-only " + toString(C, V);
  for (const VisibleState &V : OnlyFull)
    Out += " full-only " + toString(C, V);
  return Out;
}

/// One fact's fold under comparison: its system, the engine FCR picks
/// for it, and the projections of the full fold's visible states seen
/// so far.
struct FoldRun {
  int Fact = -1;
  CpdsFile File;
  std::variant<std::unique_ptr<CbaEngine>, std::unique_ptr<SymbolicEngine>>
      Engine;
  std::set<VisibleState> Projected;
};

} // namespace

std::string DataflowOracleReport::str() const {
  std::string Out;
  for (const std::string &M : Mismatches) {
    if (!Out.empty())
      Out += "\n";
    Out += M;
  }
  return Out;
}

ErrorOr<AnnotatedProgram> cuba::testing::reanalyze(const bp::Program &P) {
  auto Reparsed = bp::parseProgram(bp::printProgram(P));
  if (!Reparsed)
    return Error("annotated program does not re-parse: " +
                 Reparsed.error().str());
  AnnotatedProgram Out{Reparsed.take(), {}};
  auto Info = bp::analyzeProgram(Out.Program);
  if (!Info)
    return Error("frontend rejects the annotated program: " +
                 Info.error().str());
  Out.Info = Info.take();
  return Out;
}

DataflowOracleReport
cuba::testing::runDataflowOracle(const bp::Program &P,
                                 const DataflowOracleOptions &Opts) {
  DataflowOracleReport Rep;
  auto Mismatch = [&](std::string S) {
    Rep.Mismatches.push_back(std::move(S));
  };
  auto A = reanalyze(P);
  if (!A) {
    Mismatch(A.error().str());
    return Rep;
  }
  size_t N = A->Info.TaintFacts.size();
  Rep.FactCount = N;

  // The full fold: every fact's bit in the control state.  Too many
  // facts, or a size-guard refusal of the 2^facts blowup, leaves the
  // instance without a reference; that is not a mismatch.
  if (N > MaxFullFacts) {
    Rep.FullRejected = true;
    return Rep;
  }
  uint32_t All = static_cast<uint32_t>((uint64_t(1) << N) - 1);
  bp::TaintInfo Taint;
  bp::TranslateOptions FullOpts;
  FullOpts.FoldTaint = All;
  FullOpts.Taint = &Taint;
  auto Full = bp::translateProgram(A->Program, A->Info, FullOpts);
  if (!Full) {
    Rep.FullRejected = true;
    return Rep;
  }
  const Cpds &FC = Full->System;
  QState FullErr = foldErr(Taint, All);

  // The folds, as `cuba dataflow` builds them.  Every fold set must give
  // the full fold's stack alphabets, symbol for symbol in id order, and
  // widen the unfolded control states by exactly the folded bits.
  std::vector<FoldRun> Folds(N);
  for (size_t F = 0; F < N; ++F) {
    FoldRun &R = Folds[F];
    R.Fact = static_cast<int>(F);
    bp::TranslateOptions TOpts;
    TOpts.FoldTaint = 1u << F;
    auto File = bp::translateProgram(A->Program, A->Info, TOpts);
    if (!File) {
      Mismatch("fact " + std::to_string(F) + "'s fold rejected: " +
               File.error().str());
      return Rep;
    }
    R.File = File.take();
    const Cpds &C = R.File.System;
    bool Same =
        C.numThreads() == FC.numThreads() &&
        C.numSharedStates() == (QState(1) << (Taint.SharedBits + 1)) + 1;
    for (unsigned I = 0; Same && I < C.numThreads(); ++I) {
      Same = C.thread(I).numSymbols() == FC.thread(I).numSymbols();
      for (Sym S = 1; Same && S <= C.thread(I).numSymbols(); ++S)
        Same = C.thread(I).symbolName(S) == FC.thread(I).symbolName(S);
    }
    if (!Same) {
      Mismatch("fact " + std::to_string(F) +
               "'s fold and the full fold disagree on their threads, "
               "alphabets or control bits");
      return Rep;
    }
    LimitTracker FcrLimits(Opts.Limits);
    if (checkFcr(C, &FcrLimits).Holds) {
      R.Engine = std::make_unique<CbaEngine>(C, Opts.Limits);
      std::get<0>(R.Engine)->setParallel(Opts.Pool);
    } else {
      R.Engine = std::make_unique<SymbolicEngine>(C, Opts.Limits);
      ++Rep.SymbolicFolds;
    }
  }
  if (FC.numSharedStates() != (QState(1) << (Taint.SharedBits + N)) + 1) {
    Mismatch("the full fold has " + std::to_string(FC.numSharedStates()) +
             " control states, expected " +
             std::to_string((QState(1) << (Taint.SharedBits + N)) + 1));
    return Rep;
  }

  // Lockstep rounds: each fold's new visible states against the full
  // fold's, projected onto the fold's bit, less earlier projections.
  // The engines saturate only inside advance(), so the mutation is on
  // exactly while they do.
  if (Opts.InjectDropMaskGrowth)
    psa_testing::InjectDropMaskGrowth = true;
  QState BaseMask = (QState(1) << Taint.SharedBits) - 1;
  CbaEngine Ref(FC, Opts.Limits);
  Ref.setParallel(Opts.Pool);
  unsigned K = 0;
  while (true) {
    std::vector<VisibleState> NewFull = Ref.newVisibleThisRound();
    for (FoldRun &R : Folds) {
      QState Err = foldErr(Taint, 1u << R.Fact);
      std::vector<VisibleState> Want;
      for (VisibleState V : NewFull) {
        V.Q = V.Q == FullErr ? Err
                             : (V.Q & BaseMask) |
                                   (((V.Q >> (Taint.SharedBits + R.Fact)) & 1)
                                    << Taint.SharedBits);
        if (R.Projected.insert(V).second)
          Want.push_back(std::move(V));
      }
      std::sort(Want.begin(), Want.end());
      std::vector<VisibleState> Got = std::visit(
          [](const auto &E) { return E->newVisibleThisRound(); }, R.Engine);
      if (Got != Want)
        Mismatch("k=" + std::to_string(K) + ": fact " +
                 Taint.FactNames[R.Fact] +
                 "'s fold and the projected full fold differ:" +
                 setDiff(R.File.System, Got, Want));
    }
    Rep.KCompared = K;
    if (K >= Opts.MaxK)
      break;
    // Advance every engine; a budget stop truncates the comparison (the
    // interrupted round's discoveries are incomplete by construction).
    for (FoldRun &R : Folds)
      Rep.FoldsExhausted |= std::visit(
          [](const auto &E) {
            using EngineT = std::decay_t<decltype(*E)>;
            return E->advance() == EngineT::RoundStatus::Exhausted;
          },
          R.Engine);
    Rep.FullExhausted = Ref.advance() == CbaEngine::RoundStatus::Exhausted;
    if (Rep.FoldsExhausted || Rep.FullExhausted)
      break;
    ++K;
  }
  psa_testing::InjectDropMaskGrowth = false;

  // Verdict agreement: one shared scan over each side's visible set,
  // restricted to the rounds every engine completed.
  std::vector<SinkHit> FoldHits;
  for (const FoldRun &R : Folds) {
    std::vector<SinkHit> H = scanSinkHits(
        std::visit([](const auto &E) { return E->visibleFirstSeen(); },
                   R.Engine),
        Taint, 1u << R.Fact, Rep.KCompared);
    FoldHits.insert(FoldHits.end(), H.begin(), H.end());
  }
  std::sort(FoldHits.begin(), FoldHits.end());
  std::vector<SinkHit> FullHits =
      scanSinkHits(Ref.visibleFirstSeen(), Taint, All, Rep.KCompared);
  if (FoldHits != FullHits)
    Mismatch("sink verdicts differ: the folds report " +
             std::to_string(FoldHits.size()) + " hit(s), the full fold " +
             std::to_string(FullHits.size()));
  Rep.Leak = !FullHits.empty();
  return Rep;
}

bp::Program cuba::testing::annotatedDataflowProgram(uint64_t Seed) {
  bp::Program P = generateRandomBp(Seed, bpShapeOptions(Seed));
  injectTaintAnnotations(P, Seed ^ 0xda7af10bull);
  return P;
}

std::optional<DataflowOracleReport>
cuba::testing::checkDataflowSeed(uint64_t Seed,
                                 const DataflowOracleOptions &Opts) {
  DataflowOracleReport Rep =
      runDataflowOracle(annotatedDataflowProgram(Seed), Opts);
  if (Rep.FullRejected)
    return std::nullopt;
  return Rep;
}
