//===-- testing/DataflowOracle.cpp - Weighted-vs-folded oracle ------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "testing/DataflowOracle.h"

#include <algorithm>

#include "bp/AstPrinter.h"
#include "bp/Parser.h"
#include "bp/Sema.h"
#include "bp/Translate.h"
#include "core/CbaEngine.h"
#include "dataflow/DataflowEngine.h"
#include "pds/CpdsIO.h"
#include "psa/WeightedPostStar.h"
#include "testing/RandomBp.h"
#include "testing/RandomCpds.h"

using namespace cuba;
using namespace cuba::testing;

std::string DataflowOracleReport::str() const {
  std::string Out;
  for (const std::string &M : Mismatches) {
    if (!Out.empty())
      Out += "\n";
    Out += M;
  }
  return Out;
}

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
  unsigned Sources = 0, Sinks = 0;

  const std::string &pickVar() { return Vars[Rng.below(Vars.size())]; }

  bp::StmtPtr pick() {
    uint64_t R = Rng.below(10);
    bp::StmtKind K = R < 4   ? bp::StmtKind::Source
                     : R < 7 ? bp::StmtKind::Sink
                             : bp::StmtKind::Sanitize;
    if (K == bp::StmtKind::Source)
      ++Sources;
    if (K == bp::StmtKind::Sink)
      ++Sinks;
    return makeTaint(K, pickVar());
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

  Injector Inj{Rng, Vars, /*Budget=*/6};
  for (bp::Function &F : P.Functions) {
    if (F.Name == "main")
      continue;
    Inj.walk(F.Body);
  }

  // Guarantee the instance is meaningful: place a missing source or
  // sink at a random boundary of a random non-main function body.
  std::vector<bp::Function *> Fns;
  for (bp::Function &F : P.Functions)
    if (F.Name != "main")
      Fns.push_back(&F);
  if (Fns.empty())
    return;
  auto place = [&](bp::StmtKind K) {
    std::vector<bp::StmtPtr> &Body = Fns[Rng.below(Fns.size())]->Body;
    Body.insert(Body.begin() + Rng.below(Body.size() + 1),
                makeTaint(K, Vars[Rng.below(Vars.size())]));
  };
  if (!Inj.Sources)
    place(bp::StmtKind::Source);
  if (!Inj.Sinks)
    place(bp::StmtKind::Sink);
}

//===----------------------------------------------------------------------===//
// The lockstep comparison
//===----------------------------------------------------------------------===//

namespace {

/// Renders the symmetric difference of two sorted visible-state vectors
/// (folded coordinates, so \p C is the folded system).
std::string setDiff(const Cpds &C, const std::vector<VisibleState> &W,
                    const std::vector<VisibleState> &F) {
  std::string Out;
  std::vector<VisibleState> OnlyW, OnlyF;
  std::set_difference(W.begin(), W.end(), F.begin(), F.end(),
                      std::back_inserter(OnlyW));
  std::set_difference(F.begin(), F.end(), W.begin(), W.end(),
                      std::back_inserter(OnlyF));
  for (const VisibleState &V : OnlyW)
    Out += " weighted-only " + toString(C, V);
  for (const VisibleState &V : OnlyF)
    Out += " folded-only " + toString(C, V);
  return Out;
}

} // namespace

ErrorOr<AnnotatedBase>
cuba::testing::annotatedBaseTranslation(const bp::Program &P) {
  auto Reparsed = bp::parseProgram(bp::printProgram(P));
  if (!Reparsed)
    return Error("annotated program does not re-parse: " +
                 Reparsed.error().str());
  AnnotatedBase Out{Reparsed.take(), {}, {}, {}};
  auto Info = bp::analyzeProgram(Out.Program);
  if (!Info)
    return Error("frontend rejects the annotated program: " +
                 Info.error().str());
  Out.Info = Info.take();
  bp::TranslateOptions Opts;
  Opts.Taint = &Out.Taint;
  auto Base = bp::translateProgram(Out.Program, Out.Info, Opts);
  if (!Base)
    return Error("base translation rejected: " + Base.error().str());
  Out.Base = Base.take();
  return Out;
}

DataflowOracleReport
cuba::testing::runDataflowOracle(const bp::Program &P,
                                 const DataflowOracleOptions &Opts) {
  DataflowOracleReport Rep;
  auto Mismatch = [&](std::string S) {
    Rep.Mismatches.push_back(std::move(S));
  };

  // Pipeline A: the base translation plus the taint side table -- what
  // `cuba dataflow` runs through the weighted engine.
  auto A = annotatedBaseTranslation(P);
  if (!A) {
    Mismatch(A.error().str());
    return Rep;
  }
  Rep.FactCount = A->Info.TaintFacts.size();
  const bp::TaintInfo &Taint = A->Taint;

  // Pipeline B: the naive product construction.  A size-guard
  // rejection here is legitimate (the 2^facts blowup the weighted
  // engine exists to avoid), not a mismatch.
  bp::TranslateOptions FoldOpts;
  FoldOpts.FoldTaint = true;
  auto Folded = bp::translateProgram(A->Program, A->Info, FoldOpts);
  if (!Folded) {
    Rep.FoldedRejected = true;
    return Rep;
  }

  // The fold-bit isomorphism the comparison rides on: identical thread
  // structure and per-thread stack alphabets, symbol for symbol in id
  // order, control states widened by exactly the fact bits.
  const Cpds &BC = A->Base.System;
  const Cpds &FC = Folded->System;
  if (BC.numThreads() != FC.numThreads()) {
    Mismatch("translation modes disagree on thread count");
    return Rep;
  }
  for (unsigned I = 0; I < BC.numThreads(); ++I) {
    const Pds &BT = BC.thread(I), &FT = FC.thread(I);
    bool Same = BT.numSymbols() == FT.numSymbols();
    for (Sym S = 1; Same && S <= BT.numSymbols(); ++S)
      Same = BT.symbolName(S) == FT.symbolName(S);
    if (!Same) {
      Mismatch("translation modes disagree on thread " + std::to_string(I) +
               "'s stack alphabet");
      return Rep;
    }
  }
  uint64_t WantShared =
      (static_cast<uint64_t>(1) << (Taint.SharedBits + Rep.FactCount)) + 1;
  if (FC.numSharedStates() != WantShared) {
    Mismatch("folded system has " + std::to_string(FC.numSharedStates()) +
             " control states, expected " + std::to_string(WantShared));
    return Rep;
  }

  if (Opts.InjectDropCombine)
    psa_testing::InjectDropMaskGrowth = true;

  // Lockstep rounds: the weighted engine's projected visible states
  // against the folded system's T(R_k).
  DataflowEngine W(BC, Taint, Opts.Limits);
  CbaEngine Ref(FC, Opts.Limits);
  Ref.setParallel(Opts.Pool);
  unsigned K = 0;
  while (true) {
    std::vector<VisibleState> NewW = W.newVisibleThisRound();
    std::vector<VisibleState> NewF = Ref.newVisibleThisRound();
    std::sort(NewW.begin(), NewW.end());
    std::sort(NewF.begin(), NewF.end());
    if (NewW != NewF)
      Mismatch("k=" + std::to_string(K) +
               ": weighted and folded visible rounds differ:" +
               setDiff(FC, NewW, NewF));
    Rep.KCompared = K;
    if (K >= Opts.MaxK)
      break;
    // Advance both engines; a budget stop truncates the comparison (the
    // interrupted round's discoveries are incomplete by construction).
    Rep.WeightedExhausted =
        W.advance() == DataflowEngine::RoundStatus::Exhausted;
    Rep.FoldedExhausted = Ref.advance() == CbaEngine::RoundStatus::Exhausted;
    if (Rep.WeightedExhausted || Rep.FoldedExhausted)
      break;
    ++K;
  }
  psa_testing::InjectDropMaskGrowth = false;

  // Verdict agreement: one shared scan over each side's visible set,
  // restricted to the rounds both engines completed.
  std::vector<SinkHit> WHits =
      scanSinkHits(W.visibleFirstSeen(), Taint, Rep.KCompared);
  std::vector<SinkHit> FHits =
      scanSinkHits(Ref.visibleFirstSeen(), Taint, Rep.KCompared);
  if (WHits != FHits)
    Mismatch("sink verdicts differ: weighted reports " +
             std::to_string(WHits.size()) + " hit(s), folded reports " +
             std::to_string(FHits.size()));
  Rep.Leak = !FHits.empty();
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
  if (Rep.FoldedRejected)
    return std::nullopt;
  return Rep;
}
