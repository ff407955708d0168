//===-- pds/CpdsIO.cpp - Textual CPDS format ------------------------------===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "pds/CpdsIO.h"

#include <cctype>
#include <cstdio>
#include <vector>

#include "support/FaultInject.h"
#include "support/StringUtils.h"

using namespace cuba;

namespace {

/// Token kinds of the .cpds surface syntax.
enum class TokKind : uint8_t {
  Ident,  // names, keywords, integers-as-names
  LParen, // (
  RParen, // )
  LBrace, // {
  RBrace, // }
  Comma,  // ,
  Colon,  // :
  Bar,    // |
  Star,   // *
  Arrow,  // ->
  End,    // end of input
};

struct Token {
  TokKind Kind;
  std::string_view Text;
  unsigned Line;
  unsigned Column;
};

/// A whitespace/comment-skipping tokenizer over the whole input.  `#`
/// starts a comment running to the end of the line.
class Lexer {
public:
  explicit Lexer(std::string_view Text) : Text(Text) {}

  ErrorOr<std::vector<Token>> run() {
    std::vector<Token> Toks;
    while (true) {
      skipTrivia();
      if (Pos >= Text.size())
        break;
      unsigned TokLine = Line, TokCol = Col;
      char C = Text[Pos];
      TokKind Kind;
      size_t Len = 1;
      switch (C) {
      case '(': Kind = TokKind::LParen; break;
      case ')': Kind = TokKind::RParen; break;
      case '{': Kind = TokKind::LBrace; break;
      case '}': Kind = TokKind::RBrace; break;
      case ',': Kind = TokKind::Comma; break;
      case ':': Kind = TokKind::Colon; break;
      case '|': Kind = TokKind::Bar; break;
      case '*': Kind = TokKind::Star; break;
      case '-':
        if (Pos + 1 >= Text.size() || Text[Pos + 1] != '>')
          return Error("expected '->'", TokLine, TokCol);
        Kind = TokKind::Arrow;
        Len = 2;
        break;
      default: {
        if (!isWordChar(C))
          return Error(std::string("unexpected character '") + C + "'",
                       TokLine, TokCol);
        size_t Start = Pos;
        while (Pos < Text.size() && isWordChar(Text[Pos]))
          advance();
        Toks.push_back({TokKind::Ident, Text.substr(Start, Pos - Start),
                        TokLine, TokCol});
        continue;
      }
      }
      Toks.push_back({Kind, Text.substr(Pos, Len), TokLine, TokCol});
      for (size_t I = 0; I < Len; ++I)
        advance();
    }
    Toks.push_back({TokKind::End, "", Line, Col});
    return Toks;
  }

private:
  static bool isWordChar(char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.' || C == '$';
  }

  void skipTrivia() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '#') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          advance();
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        advance();
      } else {
        break;
      }
    }
  }

  void advance() {
    if (Text[Pos] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  }

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

/// Recursive-descent parser over the token stream.  Accumulates the
/// system into a CpdsFile; the first error aborts the parse.
class Parser {
public:
  explicit Parser(std::vector<Token> Toks) : Toks(std::move(Toks)) {}

  ErrorOr<CpdsFile> run() {
    if (auto R = parseSharedDecl(); !R)
      return R.error();
    while (!at(TokKind::End)) {
      const Token &T = peek();
      if (T.Kind != TokKind::Ident)
        return err("expected 'init', 'thread' or 'bad'");
      if (T.Text == "init") {
        if (auto R = parseInit(); !R)
          return R.error();
      } else if (T.Text == "thread") {
        if (auto R = parseThread(); !R)
          return R.error();
      } else if (T.Text == "bad") {
        if (auto R = parseBad(); !R)
          return R.error();
      } else {
        return err("unknown directive '" + std::string(T.Text) + "'");
      }
    }
    // `bad` clauses were collected as raw pattern rows because the thread
    // count is only known at the end; materialise them now.
    for (const auto &Row : BadRows) {
      if (Row.Tops.size() != File.System.numThreads())
        return Error("bad pattern has " + std::to_string(Row.Tops.size()) +
                     " stack entries but the system has " +
                     std::to_string(File.System.numThreads()) + " threads");
      VisiblePattern P;
      P.Q = Row.Q;
      for (size_t I = 0; I < Row.Tops.size(); ++I) {
        const std::string &Txt = Row.Tops[I];
        if (Txt == "*") {
          P.Tops.emplace_back(std::nullopt);
        } else if (Txt == "eps") {
          P.Tops.emplace_back(EpsSym);
        } else {
          Sym S =
              File.System.thread(static_cast<unsigned>(I)).symbolByName(Txt);
          if (S == EpsSym)
            return Error("bad pattern: unknown symbol '" + Txt +
                         "' in thread " + std::to_string(I));
          P.Tops.emplace_back(S);
        }
      }
      File.Property.addBadPattern(std::move(P));
    }
    if (auto R = File.System.freeze(); !R)
      return R.error();
    return std::move(File);
  }

private:
  struct BadRow {
    std::optional<QState> Q;
    std::vector<std::string> Tops;
  };

  const Token &peek() const { return Toks[Pos]; }
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

  ErrorOr<std::string_view> expectIdent(const char *What) {
    auto T = expect(TokKind::Ident, What);
    if (!T)
      return T.error();
    return T->Text;
  }

  ErrorOr<QState> sharedRef() {
    auto Name = expectIdent("a shared state");
    if (!Name)
      return Name.error();
    QState Q = File.System.sharedStateByName(*Name);
    if (Q == UINT32_MAX)
      return err("unknown shared state '" + std::string(*Name) + "'");
    return Q;
  }

  ErrorOr<void> parseSharedDecl() {
    auto Kw = expectIdent("'shared'");
    if (!Kw)
      return Kw.error();
    if (*Kw != "shared")
      return err("a .cpds file must start with a 'shared' declaration");
    std::vector<std::string_view> Names;
    while (at(TokKind::Ident) && peek().Text != "init" &&
           peek().Text != "thread" && peek().Text != "bad")
      Names.push_back(take().Text);
    if (Names.empty())
      return err("'shared' needs at least one state");
    // Shorthand: a single positive integer N declares states "0".."N-1".
    if (Names.size() == 1) {
      if (auto N = parseUnsigned(Names[0]); N && *N > 0 && *N <= 1u << 24) {
        for (uint64_t I = 0; I < *N; ++I)
          File.System.addSharedState(std::to_string(I));
        return {};
      }
    }
    for (std::string_view Name : Names)
      File.System.addSharedState(Name);
    return {};
  }

  ErrorOr<void> parseInit() {
    take(); // 'init'
    auto Q = sharedRef();
    if (!Q)
      return Q.error();
    File.System.setInitialShared(*Q);
    return {};
  }

  ErrorOr<void> parseThread() {
    take(); // 'thread'
    auto Name = expectIdent("a thread name");
    if (!Name)
      return Name.error();
    unsigned TI = File.System.addThread(std::string(*Name));
    Pds &P = File.System.thread(TI);
    if (auto R = expect(TokKind::LBrace, "'{'"); !R)
      return R.error();

    while (!at(TokKind::RBrace)) {
      if (at(TokKind::End))
        return err("unterminated thread block");
      // Rules start with '(' or with 'label :'; directives are idents.
      if (at(TokKind::LParen)) {
        if (auto R = parseRule(P, TI, ""); !R)
          return R.error();
        continue;
      }
      auto Word = expectIdent("'alphabet', 'stack' or a rule");
      if (!Word)
        return Word.error();
      if (*Word == "alphabet") {
        while (atListItem()) {
          std::string_view SymName = take().Text;
          if (SymName == "eps")
            return err("'eps' is reserved and cannot be an alphabet symbol");
          if (P.symbolByName(SymName) != EpsSym)
            return err("duplicate symbol '" + std::string(SymName) + "'");
          P.addSymbol(std::string(SymName));
        }
      } else if (*Word == "stack") {
        std::vector<Sym> TopFirst;
        while (atListItem()) {
          auto S = symRef(P, take());
          if (!S)
            return S.error();
          TopFirst.push_back(*S);
        }
        File.System.setInitialStack(TI, std::move(TopFirst));
      } else {
        // A rule label: `label : ( ... ) -> ( ... )`.
        if (auto R = expect(TokKind::Colon, "':' after the rule label"); !R)
          return R.error();
        if (auto R = parseRule(P, TI, *Word); !R)
          return R.error();
      }
    }
    take(); // '}'
    return {};
  }

  static bool isDirective(std::string_view S) {
    return S == "alphabet" || S == "stack";
  }

  /// True when the current token continues an alphabet/stack name list:
  /// an identifier that is neither a directive nor a rule label (an
  /// identifier immediately followed by ':').
  bool atListItem() const {
    if (!at(TokKind::Ident) || isDirective(peek().Text))
      return false;
    return Toks[Pos + 1].Kind != TokKind::Colon;
  }

  /// Resolves \p T as a stack symbol of \p P; "eps" yields EpsSym.
  ErrorOr<Sym> symRef(const Pds &P, const Token &T) {
    if (T.Text == "eps")
      return EpsSym;
    Sym S = P.symbolByName(T.Text);
    if (S == EpsSym)
      return Error("unknown stack symbol '" + std::string(T.Text) + "'",
                   T.Line, T.Column);
    return S;
  }

  ErrorOr<void> parseRule(Pds &P, unsigned /*ThreadIdx*/,
                          std::string_view Label) {
    Action A;
    A.Label = P.internLabel(Label);
    if (auto R = expect(TokKind::LParen, "'('"); !R)
      return R.error();
    auto Q = sharedRef();
    if (!Q)
      return Q.error();
    A.SrcQ = *Q;
    if (auto R = expect(TokKind::Comma, "','"); !R)
      return R.error();
    auto SrcTok = expect(TokKind::Ident, "a stack symbol or 'eps'");
    if (!SrcTok)
      return SrcTok.error();
    auto Src = symRef(P, *SrcTok);
    if (!Src)
      return Src.error();
    A.SrcSym = *Src;
    if (auto R = expect(TokKind::RParen, "')'"); !R)
      return R.error();
    if (auto R = expect(TokKind::Arrow, "'->'"); !R)
      return R.error();
    if (auto R = expect(TokKind::LParen, "'('"); !R)
      return R.error();
    auto DstQ = sharedRef();
    if (!DstQ)
      return DstQ.error();
    A.DstQ = *DstQ;
    if (auto R = expect(TokKind::Comma, "','"); !R)
      return R.error();
    // Target word: eps | sym | sym sym.
    auto First = expect(TokKind::Ident, "a target word");
    if (!First)
      return First.error();
    auto S0 = symRef(P, *First);
    if (!S0)
      return S0.error();
    A.Dst0 = *S0;
    if (at(TokKind::Ident)) {
      auto S1 = symRef(P, take());
      if (!S1)
        return S1.error();
      A.Dst1 = *S1;
      if (A.Dst0 == EpsSym || A.Dst1 == EpsSym)
        return err("'eps' cannot appear inside a two-symbol target");
    }
    if (auto R = expect(TokKind::RParen, "')'"); !R)
      return R.error();
    P.addAction(A);
    return {};
  }

  ErrorOr<void> parseBad() {
    take(); // 'bad'
    if (auto R = expect(TokKind::LParen, "'('"); !R)
      return R.error();
    BadRow Row;
    if (at(TokKind::Star)) {
      take();
    } else {
      auto Q = sharedRef();
      if (!Q)
        return Q.error();
      Row.Q = *Q;
    }
    if (auto R = expect(TokKind::Bar, "'|'"); !R)
      return R.error();
    while (true) {
      if (at(TokKind::Star)) {
        take();
        Row.Tops.push_back("*");
      } else {
        auto T = expectIdent("a symbol, 'eps' or '*'");
        if (!T)
          return T.error();
        Row.Tops.emplace_back(*T);
      }
      if (!at(TokKind::Comma))
        break;
      take();
    }
    if (auto R = expect(TokKind::RParen, "')'"); !R)
      return R.error();
    BadRows.push_back(std::move(Row));
    return {};
  }

  std::vector<Token> Toks;
  size_t Pos = 0;
  CpdsFile File;
  std::vector<BadRow> BadRows;
};

} // namespace

ErrorOr<CpdsFile> cuba::parseCpds(std::string_view Text) {
  Lexer Lex(Text);
  auto Toks = Lex.run();
  if (!Toks)
    return Toks.error();
  Parser P(Toks.take());
  return P.run();
}

ErrorOr<CpdsFile> cuba::parseCpdsFile(const std::string &Path) {
  // No path in the message: callers (the CLI) prefix the input path.
  // The Io fault point models an unreadable file; it takes the ordinary
  // ErrorOr path, so injected I/O failures exercise exactly the
  // diagnostics a real one would.
  if (fault::fire(fault::Point::Io))
    return Error("injected I/O fault");
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error("cannot open file");
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);
  return parseCpds(Text);
}

/// Renders the word written by \p A ("eps", one symbol, or two).
static std::string targetWord(const Pds &P, const Action &A) {
  if (A.Dst0 == EpsSym)
    return "eps";
  std::string S = P.symbolName(A.Dst0);
  if (A.Dst1 != EpsSym)
    S += " " + P.symbolName(A.Dst1);
  return S;
}

std::string cuba::printCpds(const CpdsFile &File) {
  const Cpds &C = File.System;
  std::string Out = "shared";
  for (QState Q = 0; Q < C.numSharedStates(); ++Q)
    Out += " " + C.sharedStateName(Q);
  Out += "\ninit " + C.sharedStateName(C.initialShared()) + "\n";
  GlobalState Init = C.frozen() ? C.initialState() : GlobalState{};
  for (unsigned I = 0; I < C.numThreads(); ++I) {
    const Pds &P = C.thread(I);
    Out += "\nthread " + C.threadName(I) + " {\n  alphabet";
    for (Sym S = 1; S <= P.numSymbols(); ++S)
      Out += " " + P.symbolName(S);
    Out += "\n";
    if (C.frozen() && !Init.Stacks[I].empty()) {
      Out += "  stack";
      const Stack &W = Init.Stacks[I];
      for (auto It = W.rbegin(); It != W.rend(); ++It)
        Out += " " + P.symbolName(*It);
      Out += "\n";
    }
    for (uint32_t AI = 0; AI < P.actions().size(); ++AI) {
      const Action &A = P.actions()[AI];
      const std::string &Label = P.label(AI);
      Out += "  ";
      // Labels are diagnostic only; drop any that would not re-lex.
      if (!Label.empty() && isIdentifier(Label))
        Out += Label + ": ";
      Out += "(" + C.sharedStateName(A.SrcQ) + ", " +
             (A.SrcSym == EpsSym ? "eps" : P.symbolName(A.SrcSym)) + ") -> (" +
             C.sharedStateName(A.DstQ) + ", " + targetWord(P, A) + ")\n";
    }
    Out += "}\n";
  }
  for (const VisiblePattern &Pat : File.Property.badPatterns()) {
    Out += "\nbad (" + (Pat.Q ? C.sharedStateName(*Pat.Q) : "*") + " |";
    for (size_t I = 0; I < Pat.Tops.size(); ++I) {
      Out += I ? ", " : " ";
      if (!Pat.Tops[I])
        Out += "*";
      else if (*Pat.Tops[I] == EpsSym)
        Out += "eps";
      else
        Out += C.thread(static_cast<unsigned>(I)).symbolName(*Pat.Tops[I]);
    }
    Out += ")";
  }
  if (!File.Property.trivial())
    Out += "\n";
  return Out;
}

std::string cuba::toString(const Cpds &C, const GlobalState &S) {
  std::string Out = "<" + C.sharedStateName(S.Q) + " |";
  for (unsigned I = 0; I < S.Stacks.size(); ++I) {
    Out += I ? ", " : " ";
    const Stack &W = S.Stacks[I];
    if (W.empty()) {
      Out += "eps";
      continue;
    }
    for (auto It = W.rbegin(); It != W.rend(); ++It) {
      if (It != W.rbegin())
        Out += " ";
      Out += C.thread(I).symbolName(*It);
    }
  }
  return Out + ">";
}

std::string cuba::toString(const Cpds &C, const VisibleState &V) {
  std::string Out = "<" + C.sharedStateName(V.Q) + " |";
  for (unsigned I = 0; I < V.Tops.size(); ++I) {
    Out += I ? ", " : " ";
    Out += V.Tops[I] == EpsSym ? "eps" : C.thread(I).symbolName(V.Tops[I]);
  }
  return Out + ">";
}
