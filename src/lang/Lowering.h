//===- lang/Lowering.h - HIR to semantic objects ------------------*- C++ -*-===//
///
/// \file
/// Lowers an instantiated (and usually optimized) HIR module into the
/// semantic framework: one gated atomic Action per action declaration
/// (gate = no path reaches a violated assert; transitions = all complete
/// paths), the initial store from the global initializers, and the
/// symmetry specification from the symmetric sort declaration.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_LOWERING_H
#define ISQ_LANG_LOWERING_H

#include "lang/Compile.h"
#include "lang/Hir.h"

namespace isq {
namespace asl {

/// Lowers \p M (which must be instantiated: no ConstRef nodes remain)
/// into a compiled module. Takes ownership; the compiled actions share
/// the HIR. Returns std::nullopt when a symmetric sort declaration is
/// rejected (empty or oversized domain, or non-invariant initial store).
std::optional<CompiledModule> lowerHir(hir::Module &&M,
                                       std::vector<Diagnostic> &Diags);

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_LOWERING_H
