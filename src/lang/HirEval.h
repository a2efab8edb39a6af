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
/// Locals live in a flat slot vector; the pending builtins read Ω in
/// place through a dedicated environment field.
///
/// Gates are decided by a separate gate-only evaluator, runHirGate: the
/// same paths in the same order, but it only answers "can some path
/// violate an assert?". It returns at the first violated assert, never
/// materializes transitions or created PAs, and ends a path as soon as no
/// assert is reachable from it — neither in the rest of its block nor in
/// any enclosing continuation (outer blocks, remaining loop iterations).
/// That reachability is a per-statement bit (hir::Stmt::RestMayAssert)
/// computed once by annotateForEvaluation, never rescanned per step.
/// runHirBody's CanFail stays the reference the gate evaluator is tested
/// against. Expressions cannot fault an action today, so skipping an
/// assert-free suffix cannot change a verdict; once runtime faults fail
/// an action, the bit must also cover fallible expressions.
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
  /// Ω as seen by the pending builtins, read in place; nullptr outside
  /// gate evaluation (all counts read 0).
  const PaMultiset *Pending = nullptr;
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

/// Decides the gate of an action body at (\p G, \p Env): equal to
/// !runHirBody(Body, G, Env).CanFail, computed without building any
/// transition (see the file comment).
bool runHirGate(const std::vector<hir::StmtPtr> &Body, const Store &G,
                const HirEnv &Env);

/// Prepares \p M for evaluation: sets every statement's RestMayAssert bit
/// and resolves the pending builtins' target actions to symbols. Called
/// once by the lowering; evaluation of unannotated HIR stays correct,
/// only slower.
void annotateForEvaluation(hir::Module &M);

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_HIREVAL_H
