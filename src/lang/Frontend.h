//===- lang/Frontend.h - staged ASL frontend ----------------------*- C++ -*-===//
///
/// \file
/// The top-level frontend entry point. One staged pipeline compiles the
/// surface language to a CompiledModule:
///
///     parse+imports -> bind -> typecheck -> resolve consts ->
///     build HIR -> instantiate -> optimize -> lower
///
/// The native C++ protocols in src/protocols/ are its independent
/// oracle: their ASL ports must match them execution for execution
/// (tests/frontend_v2_test.cpp). The pipeline stops at the first failing
/// stage; diagnostics leave this entry with their file names resolved
/// (FrontendDiagnostic::FileName).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_FRONTEND_H
#define ISQ_LANG_FRONTEND_H

#include "lang/Compile.h"

namespace isq {
namespace asl {
namespace frontend {

/// The frontend pipeline. V2 is the only one; the enum and the
/// compileSource parameter remain for source compatibility with callers
/// that name it, and nothing branches on the value.
enum class FrontendVersion { V2 };

/// Compiles \p Source, binding constants and parameters from
/// \p ConstBindings. \p SourcePath is the display name of the main input
/// and the base for resolving its imports; when empty (e.g. a source
/// submitted over the wire), imports are unavailable and diagnostics name
/// the file "<input>". Returns std::nullopt on any error. \p Version is
/// ignored.
std::optional<CompiledModule>
compileSource(const std::string &Source, const std::string &SourcePath,
              const std::map<std::string, int64_t> &ConstBindings,
              FrontendVersion Version, std::vector<Diagnostic> &Diags);

} // namespace frontend
} // namespace asl
} // namespace isq

#endif // ISQ_LANG_FRONTEND_H
