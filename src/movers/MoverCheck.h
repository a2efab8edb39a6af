//===- movers/MoverCheck.h - Scheduled left-mover check ----------*- C++ -*-===//
///
/// \file
/// The left-mover condition (LM) of the IS rule (§3 "Left movers"). An
/// action l is a *left mover* w.r.t. an action x if
///   (1) the gate of l is forward-preserved by x,
///   (2) the gate of x is backward-preserved by l,
///   (3) l commutes to the left of x (preserving created-PA multisets), and
///   (4) l is non-blocking.
///
/// All conditions are universally quantified over stores; we evaluate them
/// over pairs of co-pending PAs in a finite configuration universe,
/// which covers exactly the commuting steps performed by the soundness
/// construction of §4.1 for the explored instances (see DESIGN.md). The
/// serial loops, right movers and Lipton mover types live in isq_reference
/// (reference/MoverCheck.h).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_MOVERS_MOVERCHECK_H
#define ISQ_MOVERS_MOVERCHECK_H

#include "engine/StateArena.h"
#include "refine/Refinement.h"
#include "semantics/Program.h"

#include <memory>

namespace isq {

/// Checks that PAs named \p Subject, when executed with behavior
/// \p LAction (the identity or an abstraction α(A)), are left movers with
/// respect to every co-pending PA in \p Universe executed with \p P's
/// original actions: LeftMover(α(A), P) of §3 evaluated over the universe.
/// Submits the obligations as sliced jobs under \p Cond and returns the
/// group handle; after Sched.run(), Sched.result(group) is bit-identical
/// to the serial checkLeftMover (reference/MoverCheck.h) for any thread
/// count. The jobs iterate the universe grouped by
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

/// The iteration order of the scheduled mover check over \p Universe:
/// configurations grouped by store, slices of about 2048 configurations
/// cut at store boundaries. scheduleLeftMover computes it when
/// passed none; a caller running several passes over one universe
/// computes it once and passes it to each.
std::shared_ptr<const engine::StoreGroupedOrder>
moverSliceOrder(const engine::StateSpace &Universe);

} // namespace isq

#endif // ISQ_MOVERS_MOVERCHECK_H
