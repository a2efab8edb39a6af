//===- lang/Frontend.cpp - staged ASL frontend ---------------------------------===//

#include "lang/Frontend.h"

#include "lang/Binder.h"
#include "lang/HirBuilder.h"
#include "lang/HirOptimizer.h"
#include "lang/Lowering.h"
#include "lang/ModuleResolver.h"
#include "lang/TypeCheck.h"

using namespace isq;
using namespace isq::asl;

std::optional<CompiledModule> frontend::compileSource(
    const std::string &Source, const std::string &SourcePath,
    const std::map<std::string, int64_t> &ConstBindings,
    FrontendVersion, std::vector<Diagnostic> &Diags) {
  SourceManager SM;
  // Resolve display names on every exit path — diagnostics leave the
  // frontend boundary with FileName filled.
  struct NameResolver {
    const SourceManager &SM;
    std::vector<Diagnostic> &Diags;
    ~NameResolver() { SM.resolveFileNames(Diags); }
  } Resolve{SM, Diags};

  // Sources without a path (wire submissions) have no directory to
  // resolve imports against; an empty loader rejects them with a
  // diagnostic.
  ModuleLoader Loader = SourcePath.empty() ? ModuleLoader() : diskLoader();
  std::optional<Module> Merged =
      resolveModules(Source, SourcePath, Loader, SM, Diags);
  if (!Merged)
    return std::nullopt;

  // Bind first: duplicate declarations and initializer-order errors are
  // reported here with notes; the pipeline stops so the type checker's
  // overlapping checks never double-report.
  SymbolTable Syms;
  if (!bindModule(*Merged, Syms, Diags))
    return std::nullopt;
  if (!typeCheck(*Merged, Diags))
    return std::nullopt;
  std::map<std::string, int64_t> Resolved;
  if (!resolveConstBindings(*Merged, ConstBindings, Resolved, Diags))
    return std::nullopt;
  hir::Module Hir = buildHir(*Merged, Syms);
  instantiate(Hir, Resolved);
  optimizeHir(Hir);
  return lowerHir(std::move(Hir), Diags);
}
