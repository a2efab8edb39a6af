//===- reference/MoverCheck.h - Serial mover checks --------------*- C++ -*-===//
///
/// \file
/// The serial mover checks (§3 "Left movers" and Lipton's reduction
/// theory): one plain loop per check over the configuration universe. The
/// left-mover loop is the oracle of scheduleLeftMover
/// (movers/MoverCheck.h) and the (LM) check of reference::checkIS. Right
/// movers satisfy the mirrored commutation and gate conditions (without
/// non-blocking); the Lipton reduction (reference/Reduction.h) uses them
/// to classify primitive operations. Part of isq_reference, which only
/// tests, benches and examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_MOVERCHECK_H
#define ISQ_REFERENCE_MOVERCHECK_H

#include "movers/MoverCheck.h"

#include <vector>

namespace isq {

/// Lipton mover types for annotated primitive operations.
enum class MoverType : uint8_t { Both, Left, Right, None };

const char *moverTypeName(MoverType M);

/// Checks that PAs named \p Subject, when executed with behavior
/// \p LAction (the identity or an abstraction α(A)), are left movers with
/// respect to every co-pending PA in \p Universe executed with \p P's
/// original actions. This is LeftMover(α(A), P) of §3 evaluated over the
/// universe.
CheckResult checkLeftMover(Symbol Subject, const Action &LAction,
                           const Program &P,
                           const std::vector<Configuration> &Universe);

/// Interned form: evaluates the same obligations over a universe of
/// ConfigIds in a shared arena. Dedup keys and transition-set membership
/// are integer compares; value-level configurations are only materialized
/// for failure messages.
CheckResult checkLeftMover(Symbol Subject, const Action &LAction,
                           const Program &P,
                           const engine::StateSpace &Universe);

/// Mirrored check: PAs named \p Subject are right movers w.r.t. every
/// co-pending PA (commute to the right; gates preserved in the mirrored
/// directions). Non-blocking is not required of right movers.
CheckResult checkRightMover(Symbol Subject, const Action &RAction,
                            const Program &P,
                            const std::vector<Configuration> &Universe);

/// Interned form of checkRightMover (see checkLeftMover above).
CheckResult checkRightMover(Symbol Subject, const Action &RAction,
                            const Program &P,
                            const engine::StateSpace &Universe);

/// Classifies \p Subject (executed with its own program action) over
/// \p Universe as Both/Left/Right/None by running both directed checks.
MoverType classifyMover(Symbol Subject, const Program &P,
                        const std::vector<Configuration> &Universe);

/// Interned form of classifyMover.
MoverType classifyMover(Symbol Subject, const Program &P,
                        const engine::StateSpace &Universe);

} // namespace isq

#endif // ISQ_REFERENCE_MOVERCHECK_H
