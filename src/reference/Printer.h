//===- reference/Printer.h - ASL and HIR printers -----------------*- C++ -*-===//
///
/// \file
/// Renders ASL abstract syntax back to concrete syntax. The output
/// round-trips: parsing the printed text yields a module that prints
/// identically (tested), which makes the printer usable for program
/// transformations that rewrite the AST and emit ASL again. Also renders
/// lowered HIR in a stable textual form, which the tests use to check the
/// optimizer's idempotence. Part of isq_reference, which only tests,
/// benches and examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_PRINTER_H
#define ISQ_REFERENCE_PRINTER_H

#include "lang/Ast.h"
#include "lang/Hir.h"

#include <string>

namespace isq {
namespace asl {

/// Renders a whole module.
std::string printModule(const Module &M);

/// Renders one expression (minimal parentheses, per operator precedence).
std::string printExpr(const Expr &E);

/// Renders one statement at the given indentation depth (two spaces per
/// level), including the trailing newline.
std::string printStmt(const Stmt &S, unsigned Indent = 0);

namespace hir {

/// Renders a lowered module, one expression, or one statement at the given
/// indentation depth.
std::string print(const Module &M);
std::string print(const Expr &E);
std::string print(const Stmt &S, unsigned Indent = 0);

} // namespace hir
} // namespace asl
} // namespace isq

#endif // ISQ_REFERENCE_PRINTER_H
