//===- lang/HirEval.h - HIR evaluator -----------------------------*- C++ -*-===//
///
/// \file
/// Concrete evaluation of HIR expressions and action bodies over the
/// semantic framework's values and stores. Running a body enumerates all
/// control paths (choose/if branching, await blocking) in source order
/// and yields
///
///  - CanFail: some path reaches a violated assert — the gate ρ of the
///    compiled action is the negation;
///  - Transitions: the (store, created PAs) endpoint of every complete
///    path, one per path — the transition relation τ.
///
/// Locals live in a flat slot vector, and the pending-async mirror is a
/// dedicated environment field.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_HIREVAL_H
#define ISQ_LANG_HIREVAL_H

#include "lang/Hir.h"
#include "semantics/Action.h"
#include "semantics/Store.h"

namespace isq {
namespace asl {

/// The evaluation environment of one HIR slot space. Plain pointers plus
/// a value vector: environments are copied per control path, and
/// evaluation itself holds no shared mutable state, so compiled actions
/// stay safe to run from concurrent checker jobs.
struct HirEnv {
  std::vector<Value> Slots;
  /// Type table of the owning module (EmptyLit materialization).
  const hir::TypeTable *Types = nullptr;
  /// The pending-async mirror: a bag of (action-symbol index, args...)
  /// tuples, or nullptr outside gate evaluation (all counts read 0).
  const Value *Pending = nullptr;
};

/// The result of running an action body from one (store, locals) point.
struct BodyOutcome {
  /// Some path violated an assert: the action's gate is false here.
  bool CanFail = false;
  /// Endpoints of all complete paths.
  std::vector<Transition> Transitions;
};

/// Evaluates \p E under global store \p G and environment \p Env. The
/// environment is taken mutably for map-comprehension binders (written
/// and restored); it is otherwise unchanged on return.
Value evalHirExpr(const hir::Expr &E, const Store &G, HirEnv &Env);

/// Runs an action body from (\p G, \p Env), enumerating all control
/// paths.
BodyOutcome runHirBody(const std::vector<hir::StmtPtr> &Body,
                       const Store &G, const HirEnv &Env);

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_HIREVAL_H
