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
/// computed once by annotateGates, never rescanned per step.
/// runHirBody's CanFail stays the reference the gate evaluator is tested
/// against. Expressions cannot fault an action today, so skipping an
/// assert-free suffix cannot change a verdict; once runtime faults fail
/// an action, the bit must also cover fallible expressions.
///
/// The same pass gives each action its gate's store footprint
/// (hir::Action::GateReadsStore): whether the gate-only evaluator can
/// read the global store on a path that may still reach an assert, by
/// the same rule it prunes paths with. An expression read after the last
/// reachable assert never decides the gate, so a gate whose store reads
/// all lie there (or that has none) gives one verdict at every store for
/// fixed args and Ω. The read set is sound, not exact: a GlobalRef counts
/// even when it reads a value the gate itself wrote, and an indexed
/// assignment counts as a read of its target (it will fault on a missing
/// key once evaluation faults fail an action). A gate with no reachable
/// assert at all (hir::Action::GateMayFail false) always holds.
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

/// Sets every statement's RestMayAssert bit and every action's gate
/// footprint (GateMayFail, GateReadsStore) in one walk of \p M. Interns
/// nothing, so the lowering runs it before building the actions that
/// carry the footprint. Evaluation of unannotated HIR stays correct,
/// only slower.
void annotateGates(hir::Module &M);

/// Resolves the pending builtins' target actions to symbols. Interns a
/// symbol for any callee not interned yet, so the lowering calls it
/// after interning every action name.
void resolvePendingCallees(hir::Module &M);

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_HIREVAL_H
