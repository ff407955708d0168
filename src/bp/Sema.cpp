//===-- bp/Sema.cpp - Boolean-program semantic analysis -------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "bp/Sema.h"

#include <set>
#include <unordered_map>

#include "obs/Trace.h"

using namespace cuba;
using namespace cuba::bp;

namespace {

/// Limits keeping the CPDS translation tractable: shared states are
/// 2^bits and stack alphabets are pcs * 2^locals.
constexpr size_t MaxSharedBits = 12;
constexpr size_t MaxLocalBits = 10;

class Analyzer {
public:
  explicit Analyzer(Program &P) : P(P) {}

  ErrorOr<SemaInfo> run() {
    if (auto R = checkShared(); !R)
      return R.error();
    for (Function &F : P.Functions) {
      if (auto R = checkSignature(F); !R)
        return R.error();
    }
    for (Function &F : P.Functions) {
      if (auto R = analyzeFunction(F); !R)
        return R.error();
    }
    numberTaintFacts();
    if (auto R = collectThreads(); !R)
      return R.error();
    return Info;
  }

private:
  Error err(unsigned Line, unsigned Col, const std::string &Msg) {
    return Error(Msg, Line, Col);
  }

  /// Source position of shared declaration \p I (parsers always fill
  /// SharedVarLocs, but a hand-built AST may not).
  std::pair<unsigned, unsigned> sharedLoc(size_t I) const {
    if (I < P.SharedVarLocs.size())
      return P.SharedVarLocs[I];
    return {0, 0};
  }

  ErrorOr<void> checkShared() {
    std::set<std::string> Seen;
    for (size_t I = 0; I < P.SharedVars.size(); ++I)
      if (!Seen.insert(P.SharedVars[I]).second) {
        auto [Line, Col] = sharedLoc(I);
        return err(Line, Col,
                   "duplicate shared variable '" + P.SharedVars[I] + "'");
      }
    if (P.SharedVars.size() > MaxSharedBits) {
      auto [Line, Col] = sharedLoc(MaxSharedBits);
      return err(Line, Col, "too many shared variables (limit " +
                                std::to_string(MaxSharedBits) + ")");
    }
    return {};
  }

  ErrorOr<void> checkSignature(Function &F) {
    if (Functions.count(F.Name))
      return err(F.Line, F.Column,
                 "duplicate function '" + F.Name + "'");
    Functions.emplace(F.Name, &F);
    F.AllLocals = F.Params;
    std::set<std::string> Seen(F.Params.begin(), F.Params.end());
    if (Seen.size() != F.Params.size())
      return err(F.Line, F.Column, "duplicate parameter in " + F.Name);
    for (const std::string &L : F.Locals) {
      if (!Seen.insert(L).second)
        return err(F.Line, F.Column,
                   "duplicate local '" + L + "' in " + F.Name);
      F.AllLocals.push_back(L);
    }
    if (F.AllLocals.size() > MaxLocalBits)
      return err(F.Line, F.Column, "too many locals in " + F.Name +
                                       " (limit " +
                                       std::to_string(MaxLocalBits) + ")");
    if (F.ReturnsBool)
      Info.UsesReturnValue = true;
    return {};
  }

  /// Resolves a variable name in \p F: local slot first, shared second.
  ErrorOr<std::pair<int, bool>> resolveVar(const Function &F,
                                           const std::string &Name,
                                           unsigned Line, unsigned Col) {
    for (size_t I = 0; I < F.AllLocals.size(); ++I)
      if (F.AllLocals[I] == Name)
        return std::pair<int, bool>(static_cast<int>(I), false);
    for (size_t I = 0; I < P.SharedVars.size(); ++I)
      if (P.SharedVars[I] == Name)
        return std::pair<int, bool>(static_cast<int>(I), true);
    return err(Line, Col, "unknown variable '" + Name + "'");
  }

  ErrorOr<void> resolveExpr(const Function &F, Expr &E) {
    switch (E.Kind) {
    case ExprKind::Const:
    case ExprKind::Nondet:
      return {};
    case ExprKind::Var: {
      auto R = resolveVar(F, E.Name, E.Line, E.Column);
      if (!R)
        return R.error();
      E.VarSlot = R->first;
      E.VarIsShared = R->second;
      return {};
    }
    case ExprKind::Not:
      return resolveExpr(F, *E.Lhs);
    case ExprKind::And:
    case ExprKind::Or:
    case ExprKind::Xor:
    case ExprKind::Eq:
    case ExprKind::Neq:
      if (auto R = resolveExpr(F, *E.Lhs); !R)
        return R.error();
      return resolveExpr(F, *E.Rhs);
    }
    return {};
  }

  /// Collects every label in a statement tree.
  ErrorOr<void> collectLabels(const std::vector<StmtPtr> &Body,
                              std::set<std::string> &Labels) {
    for (const StmtPtr &S : Body) {
      if (!S->Label.empty() && !Labels.insert(S->Label).second)
        return err(S->Line, S->Column, "duplicate label '" + S->Label + "'");
      if (auto R = collectLabels(S->Body, Labels); !R)
        return R.error();
      if (auto R = collectLabels(S->ElseBody, Labels); !R)
        return R.error();
    }
    return {};
  }

  ErrorOr<void> analyzeFunction(Function &F) {
    std::set<std::string> Labels;
    if (auto R = collectLabels(F.Body, Labels); !R)
      return R.error();
    return analyzeBody(F, F.Body, Labels);
  }

  ErrorOr<void> analyzeBody(Function &F, std::vector<StmtPtr> &Body,
                            const std::set<std::string> &Labels) {
    for (StmtPtr &SP : Body) {
      Stmt &S = *SP;
      switch (S.Kind) {
      case StmtKind::Skip:
      case StmtKind::Lock:
      case StmtKind::Unlock:
        if (S.Kind != StmtKind::Skip)
          Info.UsesLock = true;
        break;
      case StmtKind::Goto:
        for (const std::string &L : S.GotoTargets)
          if (!Labels.count(L))
            return err(S.Line, S.Column, "unknown label '" + L + "'");
        break;
      case StmtKind::Assume:
      case StmtKind::Assert:
        if (auto R = resolveExpr(F, *S.Cond); !R)
          return R.error();
        break;
      case StmtKind::Assign: {
        for (size_t I = 0; I < S.AssignTargets.size(); ++I) {
          auto R = resolveVar(F, S.AssignTargets[I], S.Line, S.Column);
          if (!R)
            return R.error();
          S.TargetSlots.push_back(R->first);
          S.TargetIsShared.push_back(R->second);
        }
        std::set<std::pair<int, bool>> Distinct;
        for (size_t I = 0; I < S.TargetSlots.size(); ++I)
          if (!Distinct.insert({S.TargetSlots[I], S.TargetIsShared[I]})
                   .second)
            return err(S.Line, S.Column,
                       "assignment writes a variable twice");
        for (ExprPtr &E : S.AssignValues)
          if (auto R = resolveExpr(F, *E); !R)
            return R.error();
        if (S.Constrain)
          if (auto R = resolveExpr(F, *S.Constrain); !R)
            return R.error();
        break;
      }
      case StmtKind::Call: {
        if (S.Callee == "main")
          return err(S.Line, S.Column, "main cannot be called");
        auto It = Functions.find(S.Callee);
        if (It == Functions.end())
          return err(S.Line, S.Column,
                     "call to unknown function '" + S.Callee + "'");
        const Function *Callee = It->second;
        if (S.CallArgs.size() != Callee->Params.size())
          return err(S.Line, S.Column,
                     "call to '" + S.Callee + "' passes " +
                         std::to_string(S.CallArgs.size()) +
                         " arguments, expected " +
                         std::to_string(Callee->Params.size()));
        for (ExprPtr &E : S.CallArgs)
          if (auto R = resolveExpr(F, *E); !R)
            return R.error();
        if (!S.CallResult.empty()) {
          if (!Callee->ReturnsBool)
            return err(S.Line, S.Column,
                       "'" + S.Callee + "' returns void; nothing to bind");
          auto R = resolveVar(F, S.CallResult, S.Line, S.Column);
          if (!R)
            return R.error();
          S.TargetSlots = {R->first};
          S.TargetIsShared = {R->second};
        }
        break;
      }
      case StmtKind::Return:
        if (S.RetValue && !F.ReturnsBool)
          return err(S.Line, S.Column,
                     "void function '" + F.Name + "' returns a value");
        if (!S.RetValue && F.ReturnsBool)
          return err(S.Line, S.Column,
                     "bool function '" + F.Name + "' must return a value");
        if (S.RetValue)
          if (auto R = resolveExpr(F, *S.RetValue); !R)
            return R.error();
        break;
      case StmtKind::ThreadCreate:
        if (F.Name != "main")
          return err(S.Line, S.Column,
                     "thread_create is only allowed in main");
        break;
      case StmtKind::Atomic:
        Info.UsesLock = true;
        if (auto R = analyzeBody(F, S.Body, Labels); !R)
          return R.error();
        break;
      case StmtKind::While:
      case StmtKind::If:
        if (auto R = resolveExpr(F, *S.Cond); !R)
          return R.error();
        if (auto R = analyzeBody(F, S.Body, Labels); !R)
          return R.error();
        if (auto R = analyzeBody(F, S.ElseBody, Labels); !R)
          return R.error();
        break;
      case StmtKind::Source:
      case StmtKind::Sanitize:
      case StmtKind::Sink: {
        auto R = resolveVar(F, S.TaintVar, S.Line, S.Column);
        if (!R)
          return R.error();
        if (!R->second)
          return err(S.Line, S.Column,
                     "taint annotations require a shared variable; '" +
                         S.TaintVar + "' is local to " + F.Name);
        // Fact indices are assigned after all functions are analyzed
        // (numberTaintFacts), so annotation order in the source never
        // changes the numbering -- only shared declaration order does.
        TaintStmts.emplace_back(&S, R->first);
        break;
      }
      }
    }
    return {};
  }

  /// Numbers the annotated shared variables as taint facts, in shared
  /// declaration order, and back-patches every annotation's TaintSlot.
  void numberTaintFacts() {
    constexpr int Annotated = -2;
    Info.FactOfShared.assign(P.SharedVars.size(), -1);
    for (const auto &[S, Slot] : TaintStmts)
      Info.FactOfShared[Slot] = Annotated;
    for (size_t I = 0; I < P.SharedVars.size(); ++I)
      if (Info.FactOfShared[I] == Annotated) {
        Info.FactOfShared[I] = static_cast<int>(Info.TaintFacts.size());
        Info.TaintFacts.push_back(P.SharedVars[I]);
      }
    for (const auto &[S, Slot] : TaintStmts)
      S->TaintSlot = Info.FactOfShared[Slot];
  }

  ErrorOr<void> collectThreads() {
    const Function *Main = P.findFunction("main");
    if (!Main)
      return Error("a concurrent Boolean program needs a main function "
                   "with thread_create statements");
    for (const StmtPtr &S : Main->Body) {
      if (S->Kind == StmtKind::ThreadCreate) {
        if (S->ThreadFunc == "main")
          return err(S->Line, S->Column, "main cannot be a thread entry");
        auto It = Functions.find(S->ThreadFunc);
        if (It == Functions.end())
          return err(S->Line, S->Column,
                     "thread_create of unknown function '" + S->ThreadFunc +
                         "'");
        if (!It->second->Params.empty())
          return err(S->Line, S->Column,
                     "thread entry '" + S->ThreadFunc +
                         "' must not take parameters");
        P.ThreadEntries.push_back(S->ThreadFunc);
        continue;
      }
      if (S->Kind == StmtKind::Skip || S->Kind == StmtKind::Return)
        continue;
      return err(S->Line, S->Column,
                 "main may only contain thread_create, skip and return");
    }
    if (P.ThreadEntries.empty())
      return err(Main->Line, Main->Column, "main creates no threads");
    return {};
  }

  Program &P;
  SemaInfo Info;
  std::unordered_map<std::string, const Function *> Functions;
  /// Every taint annotation with its resolved shared slot, for fact
  /// numbering after analysis.
  std::vector<std::pair<Stmt *, int>> TaintStmts;
};

} // namespace

ErrorOr<SemaInfo> cuba::bp::analyzeProgram(Program &P) {
  obs::ScopedSpan Span("sema", obs::Trace::CatDet);
  Analyzer A(P);
  return A.run();
}
