//===-- bp/Parser.h - Boolean-program parser ----------------------*- C++ -*-=//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the App. B language.  Operator
/// precedence, lowest to highest: `|`, `^`, `&`, `=`/`!=`, `!`; `&&` and
/// `||` are accepted as synonyms of `&` and `|`.  `thread_create(&f)`
/// and `thread_create(f)` are both accepted.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_BP_PARSER_H
#define CUBA_BP_PARSER_H

#include <string_view>

#include "bp/Ast.h"
#include "support/ErrorOr.h"

namespace cuba::bp {

/// Parses a whole Boolean program.  Name resolution and well-formedness
/// checks happen in analyzeProgram (Sema.h).  Records a det `parse`
/// span (lexing included) whose `tokens` argument counts the tokens.
ErrorOr<Program> parseProgram(std::string_view Source);

} // namespace cuba::bp

#endif // CUBA_BP_PARSER_H
