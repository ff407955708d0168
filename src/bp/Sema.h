//===-- bp/Sema.h - Boolean-program semantic analysis -----------*- C++ -*-===//
//
// Part of the CUBA project, an implementation of the PLDI 2018 paper
// "CUBA: Interprocedural Context-UnBounded Analysis of Concurrent Programs".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name resolution and well-formedness checks for parsed Boolean
/// programs: duplicate declarations, unknown variables and labels, call
/// arities and result bindings, return-value discipline, thread_create
/// placement (only in main), and translation-size guard rails.
/// Variable references are annotated with their slots in place.
///
//===----------------------------------------------------------------------===//

#ifndef CUBA_BP_SEMA_H
#define CUBA_BP_SEMA_H

#include "bp/Ast.h"
#include "support/ErrorOr.h"

namespace cuba::bp {

/// Facts the translator needs beyond the annotated AST.
struct SemaInfo {
  /// Any lock / unlock / atomic in the program (adds the hidden $lock
  /// shared bit).
  bool UsesLock = false;
  /// Any bool-returning function (adds the hidden $ret shared bit).
  bool UsesReturnValue = false;

  /// Taint facts: the shared variables named by source / sanitize /
  /// sink annotations, in shared declaration order.  Fact i is bit i of
  /// TranslateOptions::FoldTaint (bp/Translate.h).
  std::vector<std::string> TaintFacts;
  /// Shared slot -> fact index, -1 when the shared variable is never
  /// annotated.  Parallel to Program::SharedVars.
  std::vector<int> FactOfShared;
};

/// Analyzes \p P in place; on success P.ThreadEntries is populated from
/// main's thread_create statements and every Expr/Stmt is resolved.
/// Records a det `sema` span.
ErrorOr<SemaInfo> analyzeProgram(Program &P);

} // namespace cuba::bp

#endif // CUBA_BP_SEMA_H
