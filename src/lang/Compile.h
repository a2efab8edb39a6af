//===- lang/Compile.h - ASL compile results -----------------------*- C++ -*-===//
///
/// \file
/// What the frontend (lang/Frontend.h) produces from an ASL module, and
/// the constant-resolution stage it runs before building HIR: integer
/// constants (e.g. the instance size n) are bound by the host at compile
/// time, parameters may fall back to their defaults, and derived
/// constants are folded.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_COMPILE_H
#define ISQ_LANG_COMPILE_H

#include "lang/Hir.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "semantics/Program.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

namespace isq {
namespace asl {

/// A compiled module: the program, its initial store and its HIR.
struct CompiledModule {
  Program P;
  Store InitialStore;
  /// The lowered HIR, shared with the compiled actions (which evaluate
  /// it); null for modules not built by the frontend.
  std::shared_ptr<const hir::Module> Hir;
};

/// Resolves every constant of \p M to a concrete value, in declaration
/// order: an external binding wins for host-bound consts and params, a
/// param default or derived-const initializer is folded otherwise (it may
/// reference constants declared before it). Diagnoses missing bindings,
/// bindings for undeclared or derived constants, and non-constant or
/// division-by-zero initializers. Returns false when diagnostics were
/// appended.
bool resolveConstBindings(const Module &M,
                          const std::map<std::string, int64_t> &Bindings,
                          std::map<std::string, int64_t> &Resolved,
                          std::vector<Diagnostic> &Diags);

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_COMPILE_H
