//===- movers/MoverCheck.h - Mover-type engine -------------------*- C++ -*-===//
///
/// \file
/// The mover-type engine (§3 "Left movers" and Lipton's reduction theory).
/// An action l is a *left mover* w.r.t. an action x if
///   (1) the gate of l is forward-preserved by x,
///   (2) the gate of x is backward-preserved by l,
///   (3) l commutes to the left of x (preserving created-PA multisets), and
///   (4) l is non-blocking.
/// Right movers satisfy the mirrored commutation/gate conditions (without
/// non-blocking); they are used by the reduction module.
///
/// All conditions are universally quantified over stores; we evaluate them
/// over pairs of co-pending PAs in a finite configuration universe,
/// which covers exactly the commuting steps performed by the soundness
/// construction of §4.1 for the explored instances (see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_MOVERS_MOVERCHECK_H
#define ISQ_MOVERS_MOVERCHECK_H

#include "engine/StateArena.h"
#include "refine/Refinement.h"
#include "semantics/Program.h"

#include <string>
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

/// Obligation-scheduler form of checkLeftMover: submits the same
/// obligations as sliced jobs under \p Cond and returns the group handle;
/// after Sched.run(), Sched.result(group) is bit-identical to the serial
/// check for any thread count. The jobs iterate the universe grouped by
/// store and slice only at store boundaries, so each Ω-independent
/// (store, subject, other) obligation is decided once, in one job (see
/// engine/ObligationScheduler.h). \p LAction, \p P, \p Universe and the
/// caches must outlive the run. The caches may be shared across groups —
/// gates and transition relations are pure, so sharing only changes who
/// computes an entry, never any obligation outcome.
///
/// \p Order, when given, must be moverSliceOrder(Universe).
///
/// When \p Fps is non-null the slices become verdict-cacheable: each job
/// gets a content-fingerprint KeyFn. A slice's key covers the subject
/// behavior, every configuration in the slice, and —
/// for configurations actually holding a subject PA — the concrete
/// behavior of every co-pending partner action, so editing one action
/// only invalidates the slices whose pair enumeration executes it.
engine::ObligationScheduler::Group *
scheduleLeftMover(engine::ObligationScheduler &Sched, engine::ObCondition Cond,
                  Symbol Subject, const Action &LAction, const Program &P,
                  const engine::StateSpace &Universe,
                  engine::InternedTransitionCache &Cache,
                  engine::GateCache &Gates, engine::OmegaGateCache &OmegaGates,
                  engine::SuccessorOmegaCache &SuccOmega,
                  engine::ArenaFingerprints *Fps = nullptr,
                  std::shared_ptr<const engine::StoreGroupedOrder> Order =
                      nullptr);

/// Obligation-scheduler form of checkRightMover (see scheduleLeftMover).
engine::ObligationScheduler::Group *
scheduleRightMover(engine::ObligationScheduler &Sched, engine::ObCondition Cond,
                   Symbol Subject, const Action &RAction, const Program &P,
                   const engine::StateSpace &Universe,
                   engine::InternedTransitionCache &Cache,
                   engine::GateCache &Gates,
                   engine::OmegaGateCache &OmegaGates,
                   engine::SuccessorOmegaCache &SuccOmega,
                   engine::ArenaFingerprints *Fps = nullptr,
                   std::shared_ptr<const engine::StoreGroupedOrder> Order =
                       nullptr);

/// The iteration order of the scheduled mover checks over \p Universe:
/// configurations grouped by store, slices of about 2048 configurations
/// cut at store boundaries. The schedule calls above compute it when
/// passed none; a caller running several passes over one universe
/// computes it once and passes it to each.
std::shared_ptr<const engine::StoreGroupedOrder>
moverSliceOrder(const engine::StateSpace &Universe);

/// Classifies \p Subject (executed with its own program action) over
/// \p Universe as Both/Left/Right/None by running both directed checks.
MoverType classifyMover(Symbol Subject, const Program &P,
                        const std::vector<Configuration> &Universe);

/// Interned form of classifyMover.
MoverType classifyMover(Symbol Subject, const Program &P,
                        const engine::StateSpace &Universe);

} // namespace isq

#endif // ISQ_MOVERS_MOVERCHECK_H
