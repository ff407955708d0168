//===-- bp/Parser.cpp - Boolean-program parser -----------------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "bp/Parser.h"

#include "bp/Lexer.h"
#include "obs/Trace.h"

using namespace cuba;
using namespace cuba::bp;

namespace {

/// Keywords that cannot be used as identifiers.
static bool isKeyword(std::string_view S) {
  return S == "decl" || S == "void" || S == "bool" || S == "skip" ||
         S == "goto" || S == "assume" || S == "assert" || S == "return" ||
         S == "call" || S == "constrain" || S == "thread_create" ||
         S == "atomic" || S == "lock" || S == "unlock" || S == "while" ||
         S == "if" || S == "else";
}

class Parser {
public:
  explicit Parser(std::vector<Token> Toks) : Toks(std::move(Toks)) {}

  ErrorOr<Program> run() {
    Program P;
    while (peek().isIdent("decl")) {
      if (auto R = parseDeclNames(P.SharedVars, &P.SharedVarLocs); !R)
        return R.error();
    }
    while (!at(TokKind::End)) {
      auto F = parseFunction();
      if (!F)
        return F.error();
      P.Functions.push_back(std::move(*F));
    }
    if (P.Functions.empty())
      return err("a Boolean program needs at least one function");
    return P;
  }

private:
  const Token &peek(unsigned Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind K) const { return peek().Kind == K; }
  Token take() { return Toks[Pos++]; }

  Error err(const std::string &Msg) const {
    return Error(Msg, peek().Line, peek().Column);
  }

  ErrorOr<Token> expect(TokKind K, const char *What) {
    if (!at(K))
      return err(std::string("expected ") + What);
    return take();
  }

  ErrorOr<std::string> ident(const char *What) {
    if (!at(TokKind::Ident) || isKeyword(peek().Text))
      return err(std::string("expected ") + What);
    return std::string(take().Text);
  }

  /// decl id (',' id)* ';'   \p Locs, when given, records each name's
  /// source position (used for the shared declarations, whose
  /// diagnostics would otherwise have no location to point at).
  ErrorOr<void>
  parseDeclNames(std::vector<std::string> &Out,
                 std::vector<std::pair<unsigned, unsigned>> *Locs = nullptr) {
    take(); // 'decl'
    while (true) {
      unsigned Line = peek().Line, Column = peek().Column;
      auto Name = ident("a variable name");
      if (!Name)
        return Name.error();
      Out.push_back(std::move(*Name));
      if (Locs)
        Locs->emplace_back(Line, Column);
      if (!at(TokKind::Comma))
        break;
      take();
    }
    if (auto R = expect(TokKind::Semi, "';' after the declaration"); !R)
      return R.error();
    return {};
  }

  ErrorOr<Function> parseFunction() {
    Function F;
    F.Line = peek().Line;
    F.Column = peek().Column;
    if (peek().isIdent("void"))
      F.ReturnsBool = false;
    else if (peek().isIdent("bool"))
      F.ReturnsBool = true;
    else
      return err("expected 'void' or 'bool' at the start of a function");
    take();
    auto Name = ident("a function name");
    if (!Name)
      return Name.error();
    F.Name = std::move(*Name);
    if (auto R = expect(TokKind::LParen, "'('"); !R)
      return R.error();
    if (!at(TokKind::RParen)) {
      while (true) {
        auto PName = ident("a parameter name");
        if (!PName)
          return PName.error();
        F.Params.push_back(std::move(*PName));
        if (!at(TokKind::Comma))
          break;
        take();
      }
    }
    if (auto R = expect(TokKind::RParen, "')'"); !R)
      return R.error();
    if (auto R = expect(TokKind::LBrace, "'{'"); !R)
      return R.error();
    while (peek().isIdent("decl")) {
      if (auto R = parseDeclNames(F.Locals); !R)
        return R.error();
    }
    auto Body = parseStmtList();
    if (!Body)
      return Body.error();
    F.Body = std::move(*Body);
    if (auto R = expect(TokKind::RBrace, "'}'"); !R)
      return R.error();
    return F;
  }

  /// Statements until the closing '}' (not consumed).
  ErrorOr<std::vector<StmtPtr>> parseStmtList() {
    std::vector<StmtPtr> List;
    while (!at(TokKind::RBrace) && !at(TokKind::End)) {
      auto S = parseLabeledStmt();
      if (!S)
        return S.error();
      List.push_back(std::move(*S));
    }
    return List;
  }

  ErrorOr<StmtPtr> parseLabeledStmt() {
    std::string Label;
    // `ident :` not followed by '=' is a label (':=' lexes as one token).
    if (at(TokKind::Ident) && !isKeyword(peek().Text) &&
        peek(1).is(TokKind::Colon)) {
      Label = std::string(take().Text);
      take(); // ':'
    }
    auto S = parseStmt();
    if (!S)
      return S.error();
    (*S)->Label = std::move(Label);
    return std::move(*S);
  }

  ErrorOr<StmtPtr> parseStmt() {
    auto S = std::make_unique<Stmt>();
    S->Line = peek().Line;
    S->Column = peek().Column;
    const Token &T = peek();

    if (T.isIdent("skip")) {
      take();
      S->Kind = StmtKind::Skip;
      return finishSimple(std::move(S));
    }
    if (T.isIdent("goto")) {
      take();
      S->Kind = StmtKind::Goto;
      while (true) {
        auto L = ident("a label");
        if (!L)
          return L.error();
        S->GotoTargets.push_back(std::move(*L));
        if (!at(TokKind::Comma))
          break;
        take();
      }
      return finishSimple(std::move(S));
    }
    if (T.isIdent("assume") || T.isIdent("assert")) {
      S->Kind = T.isIdent("assume") ? StmtKind::Assume : StmtKind::Assert;
      take();
      auto E = parenExpr();
      if (!E)
        return E.error();
      S->Cond = std::move(*E);
      return finishSimple(std::move(S));
    }
    if (T.isIdent("return")) {
      take();
      S->Kind = StmtKind::Return;
      if (!at(TokKind::Semi)) {
        auto E = parseExpr();
        if (!E)
          return E.error();
        S->RetValue = std::move(*E);
      }
      return finishSimple(std::move(S));
    }
    if (T.isIdent("thread_create")) {
      take();
      S->Kind = StmtKind::ThreadCreate;
      if (auto R = expect(TokKind::LParen, "'('"); !R)
        return R.error();
      if (at(TokKind::Amp))
        take(); // optional '&'
      auto F = ident("a function name");
      if (!F)
        return F.error();
      S->ThreadFunc = std::move(*F);
      if (auto R = expect(TokKind::RParen, "')'"); !R)
        return R.error();
      return finishSimple(std::move(S));
    }
    if (T.isIdent("lock") || T.isIdent("unlock")) {
      S->Kind = T.isIdent("lock") ? StmtKind::Lock : StmtKind::Unlock;
      take();
      return finishSimple(std::move(S));
    }
    if (T.isIdent("atomic")) {
      take();
      S->Kind = StmtKind::Atomic;
      if (auto R = expect(TokKind::LBrace, "'{'"); !R)
        return R.error();
      auto Body = parseStmtList();
      if (!Body)
        return Body.error();
      S->Body = std::move(*Body);
      if (auto R = expect(TokKind::RBrace, "'}'"); !R)
        return R.error();
      return S;
    }
    if (T.isIdent("while")) {
      take();
      S->Kind = StmtKind::While;
      auto E = parenExpr();
      if (!E)
        return E.error();
      S->Cond = std::move(*E);
      if (auto R = expect(TokKind::LBrace, "'{'"); !R)
        return R.error();
      auto Body = parseStmtList();
      if (!Body)
        return Body.error();
      S->Body = std::move(*Body);
      if (auto R = expect(TokKind::RBrace, "'}'"); !R)
        return R.error();
      return S;
    }
    if (T.isIdent("if")) {
      take();
      S->Kind = StmtKind::If;
      auto E = parenExpr();
      if (!E)
        return E.error();
      S->Cond = std::move(*E);
      if (auto R = expect(TokKind::LBrace, "'{'"); !R)
        return R.error();
      auto Body = parseStmtList();
      if (!Body)
        return Body.error();
      S->Body = std::move(*Body);
      if (auto R = expect(TokKind::RBrace, "'}'"); !R)
        return R.error();
      if (peek().isIdent("else")) {
        take();
        if (auto R = expect(TokKind::LBrace, "'{'"); !R)
          return R.error();
        auto Else = parseStmtList();
        if (!Else)
          return Else.error();
        S->ElseBody = std::move(*Else);
        if (auto R = expect(TokKind::RBrace, "'}'"); !R)
          return R.error();
      }
      return S;
    }
    if (T.isIdent("call")) {
      take();
      S->Kind = StmtKind::Call;
      if (auto R = parseCallTail(*S); !R)
        return R.error();
      return finishSimple(std::move(S));
    }

    // Taint annotations: `source(x);`, `sanitize(x);`, `sink(x);`.
    // Contextual keywords -- only with a following '(' -- so variables
    // named `source` etc. still assign through the fallback below.
    if ((T.isIdent("source") || T.isIdent("sanitize") || T.isIdent("sink")) &&
        peek(1).is(TokKind::LParen)) {
      S->Kind = T.isIdent("source")     ? StmtKind::Source
                : T.isIdent("sanitize") ? StmtKind::Sanitize
                                        : StmtKind::Sink;
      take();
      if (auto R = expect(TokKind::LParen, "'('"); !R)
        return R.error();
      auto V = ident("a shared variable name");
      if (!V)
        return V.error();
      S->TaintVar = std::move(*V);
      if (auto R = expect(TokKind::RParen, "')'"); !R)
        return R.error();
      return finishSimple(std::move(S));
    }

    // Assignment: `x := call f(...)`, or `x1, ..., xn := e1, ..., en`.
    if (at(TokKind::Ident) && !isKeyword(T.Text)) {
      std::vector<std::string> Targets;
      while (true) {
        auto Name = ident("a variable name");
        if (!Name)
          return Name.error();
        Targets.push_back(std::move(*Name));
        if (!at(TokKind::Comma))
          break;
        take();
      }
      if (auto R = expect(TokKind::Assign, "':='"); !R)
        return R.error();
      if (peek().isIdent("call")) {
        take();
        if (Targets.size() != 1)
          return err("a call can bind only one result variable");
        S->Kind = StmtKind::Call;
        S->CallResult = Targets[0];
        if (auto R = parseCallTail(*S); !R)
          return R.error();
        return finishSimple(std::move(S));
      }
      S->Kind = StmtKind::Assign;
      S->AssignTargets = std::move(Targets);
      while (true) {
        auto E = parseExpr();
        if (!E)
          return E.error();
        S->AssignValues.push_back(std::move(*E));
        if (!at(TokKind::Comma))
          break;
        take();
      }
      if (S->AssignValues.size() != S->AssignTargets.size())
        return err("assignment target/value counts differ");
      if (peek().isIdent("constrain")) {
        take();
        auto E = parseExpr();
        if (!E)
          return E.error();
        S->Constrain = std::move(*E);
      }
      return finishSimple(std::move(S));
    }
    return err("expected a statement");
  }

  /// After `call`: callee '(' args ')'.
  ErrorOr<void> parseCallTail(Stmt &S) {
    auto F = ident("a function name");
    if (!F)
      return F.error();
    S.Callee = std::move(*F);
    if (auto R = expect(TokKind::LParen, "'('"); !R)
      return R.error();
    if (!at(TokKind::RParen)) {
      while (true) {
        auto E = parseExpr();
        if (!E)
          return E.error();
        S.CallArgs.push_back(std::move(*E));
        if (!at(TokKind::Comma))
          break;
        take();
      }
    }
    if (auto R = expect(TokKind::RParen, "')'"); !R)
      return R.error();
    return {};
  }

  ErrorOr<StmtPtr> finishSimple(StmtPtr S) {
    if (auto R = expect(TokKind::Semi, "';' after the statement"); !R)
      return R.error();
    return S;
  }

  //===--------------------------------------------------------------------===//
  // Expressions; precedence: | < ^ < & < (=, !=) < !.
  //===--------------------------------------------------------------------===//

  ErrorOr<ExprPtr> parenExpr() {
    if (auto R = expect(TokKind::LParen, "'('"); !R)
      return R.error();
    auto E = parseExpr();
    if (!E)
      return E.error();
    if (auto R = expect(TokKind::RParen, "')'"); !R)
      return R.error();
    return std::move(*E);
  }

  ExprPtr makeBinary(ExprKind K, ExprPtr L, ExprPtr R) {
    auto E = std::make_unique<Expr>();
    E->Kind = K;
    E->Line = L->Line;
    E->Column = L->Column;
    E->Lhs = std::move(L);
    E->Rhs = std::move(R);
    return E;
  }

  ErrorOr<ExprPtr> parseExpr() { return parseOr(); }

  ErrorOr<ExprPtr> parseOr() {
    auto L = parseXor();
    if (!L)
      return L.error();
    while (at(TokKind::Pipe) || at(TokKind::PipePipe)) {
      take();
      auto R = parseXor();
      if (!R)
        return R.error();
      L = makeBinary(ExprKind::Or, std::move(*L), std::move(*R));
    }
    return std::move(*L);
  }

  ErrorOr<ExprPtr> parseXor() {
    auto L = parseAnd();
    if (!L)
      return L.error();
    while (at(TokKind::Caret)) {
      take();
      auto R = parseAnd();
      if (!R)
        return R.error();
      L = makeBinary(ExprKind::Xor, std::move(*L), std::move(*R));
    }
    return std::move(*L);
  }

  ErrorOr<ExprPtr> parseAnd() {
    auto L = parseEquality();
    if (!L)
      return L.error();
    while (at(TokKind::Amp) || at(TokKind::Ampersand)) {
      take();
      auto R = parseEquality();
      if (!R)
        return R.error();
      L = makeBinary(ExprKind::And, std::move(*L), std::move(*R));
    }
    return std::move(*L);
  }

  ErrorOr<ExprPtr> parseEquality() {
    auto L = parseUnary();
    if (!L)
      return L.error();
    while (at(TokKind::Eq) || at(TokKind::Neq)) {
      ExprKind K = at(TokKind::Eq) ? ExprKind::Eq : ExprKind::Neq;
      take();
      auto R = parseUnary();
      if (!R)
        return R.error();
      L = makeBinary(K, std::move(*L), std::move(*R));
    }
    return std::move(*L);
  }

  ErrorOr<ExprPtr> parseUnary() {
    if (at(TokKind::Not)) {
      Token T = take();
      auto E = parseUnary();
      if (!E)
        return E.error();
      auto N = std::make_unique<Expr>();
      N->Kind = ExprKind::Not;
      N->Line = T.Line;
      N->Column = T.Column;
      N->Lhs = std::move(*E);
      return N;
    }
    return parsePrimary();
  }

  ErrorOr<ExprPtr> parsePrimary() {
    auto E = std::make_unique<Expr>();
    E->Line = peek().Line;
    E->Column = peek().Column;
    if (at(TokKind::Star)) {
      take();
      E->Kind = ExprKind::Nondet;
      return E;
    }
    if (at(TokKind::Number)) {
      Token T = take();
      if (T.Text != "0" && T.Text != "1")
        return Error("Boolean constants are 0 or 1", T.Line, T.Column);
      E->Kind = ExprKind::Const;
      E->ConstValue = T.Text == "1";
      return E;
    }
    if (at(TokKind::LParen))
      return parenExpr();
    if (at(TokKind::Ident) && !isKeyword(peek().Text)) {
      E->Kind = ExprKind::Var;
      E->Name = std::string(take().Text);
      return E;
    }
    return err("expected an expression");
  }

  std::vector<Token> Toks;
  size_t Pos = 0;
};

} // namespace

ErrorOr<Program> cuba::bp::parseProgram(std::string_view Source) {
  obs::ScopedSpan Span("parse", obs::Trace::CatDet);
  auto Toks = lex(Source);
  if (!Toks)
    return Toks.error();
  Span.arg("tokens", Toks->size());
  Parser P(Toks.take());
  return P.run();
}
