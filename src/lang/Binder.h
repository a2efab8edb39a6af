//===- lang/Binder.h - ASL symbol binding -------------------------*- C++ -*-===//
///
/// \file
/// The v2 frontend's symbol-resolution stage. Builds the module-level
/// symbol table (constants in declaration order, symmetric sorts, global
/// variables, action arities) and diagnoses declaration-level problems
/// with richer messages than the later stages produce: duplicate
/// declarations carry a "first declared at ..." note, and a variable
/// initializer that reads a global declared after it is rejected here,
/// before the initial store is evaluated.
///
/// The pipeline stops after a failing bind, so the type checker's
/// overlapping duplicate checks never double-report.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_BINDER_H
#define ISQ_LANG_BINDER_H

#include "lang/Ast.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace isq {
namespace asl {

/// The module-level symbol table produced by binding; consumed by the
/// HIR builder to classify name references without re-walking the
/// declarations.
struct SymbolTable {
  /// Constant names in declaration order (the resolution/evaluation
  /// order of param defaults and derived initializers).
  std::vector<std::string> ConstOrder;
  std::set<std::string> Consts;
  std::set<std::string> Sorts;
  std::map<std::string, TypeRef> Globals;
  std::map<std::string, size_t> ActionArity;
};

/// Binds \p M: fills \p Syms and appends diagnostics. Returns false when
/// any error was diagnosed.
bool bindModule(const Module &M, SymbolTable &Syms,
                std::vector<Diagnostic> &Diags);

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_BINDER_H
