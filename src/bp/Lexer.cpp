//===-- bp/Lexer.cpp - Boolean-program lexer -------------------------------=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//

#include "bp/Lexer.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

using namespace cuba;
using namespace cuba::bp;

namespace {

/// Byte classes: Space, Digit and the letters of IdentStart are exactly
/// what the C locale's isspace, isdigit and isalpha accept (no byte >=
/// 0x80 is in any); '_' is an identifier byte too.
enum ByteClass : uint8_t {
  Space = 1,
  Digit = 2,
  IdentStart = 4, ///< A-Z, a-z, '_'.
  IdentChar = 8,  ///< IdentStart or Digit.
  Punct = 16,     ///< Starts an operator or delimiter token.
};

/// A byte's class and, for Punct, its token: Kind alone, or Kind2 when
/// the next byte is Second (`:=`, `!=`, `&&`, `||`).
struct ByteInfo {
  uint8_t Class = 0;
  TokKind Kind = TokKind::End;
  char Second = 0;
  TokKind Kind2 = TokKind::End;
};

constexpr std::array<ByteInfo, 256> Bytes = [] {
  std::array<ByteInfo, 256> B{};
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    B[C].Class = Space;
  for (unsigned C = '0'; C <= '9'; ++C)
    B[C].Class = Digit | IdentChar;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    B[C].Class = B[C - 'a' + 'A'].Class = IdentStart | IdentChar;
  B['_'].Class = IdentStart | IdentChar;
  const std::pair<unsigned char, TokKind> Singles[] = {
      {'(', TokKind::LParen}, {')', TokKind::RParen}, {'{', TokKind::LBrace},
      {'}', TokKind::RBrace}, {',', TokKind::Comma},  {';', TokKind::Semi},
      {'^', TokKind::Caret},  {'*', TokKind::Star},   {'=', TokKind::Eq}};
  for (auto [C, K] : Singles)
    B[C] = {Punct, K};
  B[':'] = {Punct, TokKind::Colon, '=', TokKind::Assign};
  B['!'] = {Punct, TokKind::Not, '=', TokKind::Neq};
  B['&'] = {Punct, TokKind::Amp, '&', TokKind::Ampersand};
  B['|'] = {Punct, TokKind::Pipe, '|', TokKind::PipePipe};
  return B;
}();

const ByteInfo &infoOf(char C) { return Bytes[static_cast<unsigned char>(C)]; }

} // namespace

ErrorOr<std::vector<Token>> cuba::bp::lex(std::string_view Source) {
  std::vector<Token> Toks;
  const size_t N = Source.size();
  // About one token per three bytes of source.
  Toks.reserve(N / 3 + 1);
  size_t Pos = 0;
  // Line and column come from the offset of the current line's start:
  // no token spans a newline, so one pass keeps both.
  unsigned Line = 1;
  size_t LineStart = 0;
  auto Column = [&] { return static_cast<unsigned>(Pos - LineStart + 1); };
  auto Emit = [&](TokKind K, size_t Len) {
    Toks.push_back(
        {K, std::string_view(Source.data() + Pos, Len), Line, Column()});
    Pos += Len;
  };

  while (Pos < N) {
    char C = Source[Pos];
    const ByteInfo &Info = infoOf(C);
    if (Info.Class & Space) {
      do {
        if (Source[Pos] == '\n') {
          ++Line;
          LineStart = Pos + 1;
        }
        ++Pos;
      } while (Pos < N && (infoOf(Source[Pos]).Class & Space));
      continue;
    }
    if (Info.Class & IdentChar) {
      uint8_t Rest = Info.Class & IdentStart ? IdentChar : Digit;
      size_t End = Pos + 1;
      while (End < N && (infoOf(Source[End]).Class & Rest))
        ++End;
      Emit(Info.Class & IdentStart ? TokKind::Ident : TokKind::Number,
           End - Pos);
      continue;
    }
    if (Info.Class & Punct) {
      bool Two = Info.Second && Pos + 1 < N && Source[Pos + 1] == Info.Second;
      Emit(Two ? Info.Kind2 : Info.Kind, Two ? 2 : 1);
      continue;
    }
    if (C == '/' && Pos + 1 < N && Source[Pos + 1] == '/') {
      // The comment runs up to the newline, which the loop then reads.
      Pos = std::min(Source.find('\n', Pos), N);
      continue;
    }
    return Error(std::string("illegal character '") + C + "'", Line,
                 Column());
  }
  Toks.push_back({TokKind::End, "", Line, Column()});
  return Toks;
}
