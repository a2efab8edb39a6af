//===- reference/Reduction.h - Lipton reduction ------------------*- C++ -*-===//
///
/// \file
/// The classic reduction step used *before* IS (§2 "Atomic actions, mover
/// types, and reduction", and the P1 ≼ P2 step of §5.2): a sequence of
/// primitive operations whose mover types match Lipton's pattern
///
///     right-movers*  (non-mover)?  left-movers*
///
/// can be fused into a single atomic action. Fusion composes the
/// operations' transition relations sequentially; the fused action fails
/// whenever some path through the sequence reaches an operation whose gate
/// is false, which preserves failures (Definition 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_REDUCTION_H
#define ISQ_REFERENCE_REDUCTION_H

#include "reference/MoverCheck.h"
#include "semantics/Action.h"

#include <string>
#include <vector>

namespace isq {

/// One primitive operation of an atomic block. All operations of a block
/// share the enclosing procedure's parameters.
struct PrimitiveOp {
  Action Act;
  MoverType Mover;
};

/// Checks Lipton's atomicity pattern over the annotated mover types.
CheckResult checkAtomicPattern(const std::vector<MoverType> &Movers);

/// Verifies the mover annotations of \p Ops against \p P over \p Universe
/// (each op must already be registered in \p P under its own name so that
/// commutativity against the environment can be checked).
CheckResult verifyMoverAnnotations(const std::vector<PrimitiveOp> &Ops,
                                   const Program &P,
                                   const std::vector<Configuration> &Universe);

/// Fuses \p Ops into one atomic action named \p Name with \p Arity
/// parameters. The fused transition relation enumerates every maximal
/// sequential path through the operations; the fused gate is false iff
/// some path can reach an operation with a false gate.
Action fuseSequence(const std::string &Name, size_t Arity,
                    const std::vector<PrimitiveOp> &Ops);

} // namespace isq

#endif // ISQ_REFERENCE_REDUCTION_H
