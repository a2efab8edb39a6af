//===- refine/Refinement.h - Refinement checking -----------------*- C++ -*-===//
///
/// \file
/// Refinement between actions (Definition 3.1) and between programs
/// (Definition 3.2). Action refinement is a universally quantified
/// condition over stores; we evaluate it over an explicit *context
/// universe* — the finite-instance analogue of the paper's SMT discharge
/// (see DESIGN.md). Program refinement compares Good/Trans summaries
/// computed by the explorer.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFINE_REFINEMENT_H
#define ISQ_REFINE_REFINEMENT_H

#include "engine/ActionCaches.h"
#include "engine/ObligationScheduler.h"
#include "explorer/Explorer.h"
#include "semantics/Action.h"
#include "semantics/Program.h"

#include <string>
#include <vector>

namespace isq {

namespace engine {
class ArenaFingerprints; // engine/ArenaFingerprints.h
}

/// Outcome of a universally quantified check. Collects up to MaxIssues
/// human-readable counterexamples and counts the obligations evaluated
/// (the analogue of the number of SMT queries).
class CheckResult {
public:
  bool ok() const { return NumFailures == 0; }
  size_t obligations() const { return NumObligations; }
  size_t failures() const { return NumFailures; }
  const std::vector<std::string> &issues() const { return Issues; }

  /// Records one evaluated obligation.
  void countObligation() { ++NumObligations; }
  /// Records \p N evaluated obligations at once (scheduler fold).
  void addObligations(size_t N) { NumObligations += N; }
  /// Records \p N failed obligations whose diagnostics were not retained
  /// (scheduler fold).
  void addFailures(size_t N) { NumFailures += N; }
  /// Records a failed obligation with a diagnostic.
  void fail(const std::string &Message);
  /// Merges \p Other into this result.
  void merge(const CheckResult &Other);

  /// Renders "OK (n obligations)" or the list of issues.
  std::string str() const;

  /// Cap on retained diagnostics.
  static constexpr size_t MaxIssues = 8;

private:
  size_t NumObligations = 0;
  size_t NumFailures = 0;
  std::vector<std::string> Issues;
};

/// One point of the quantifier domain for action-level checks: a global
/// store, parameter values for the action under check, and the ambient
/// pending-async multiset visible to Ω-observing gates.
struct ActionContext {
  Store Global;
  std::vector<Value> Args;
  PaMultiset Omega;
};

/// A finite quantifier domain.
using ContextUniverse = std::vector<ActionContext>;

/// The interned form of one quantifier point: handles into a shared
/// arena. ArgsPa carries the argument tuple (its action symbol is
/// irrelevant to the check and only fixes the args' interning identity).
struct InternedActionContext {
  engine::StoreId Global;
  engine::PaId ArgsPa;
  engine::PaSetId Omega;
};

/// An interned quantifier domain over a shared arena.
struct InternedContextUniverse {
  std::shared_ptr<engine::StateArena> Arena;
  std::vector<InternedActionContext> Items;
};

/// Extracts contexts for action \p Name from explored configurations: one
/// context per PA to \p Name per configuration.
ContextUniverse collectContexts(const std::vector<Configuration> &Configs,
                                Symbol Name);

/// Interned form: extracts contexts for \p Name directly from an explored
/// state space, without materializing configurations.
InternedContextUniverse collectContexts(const engine::StateSpace &Space,
                                        Symbol Name);

/// Checks Definition 3.1, a1 ≼ a2, over \p Universe:
///  (1) ρ2 ⊆ ρ1 and (2) ρ2 ∘ τ1 ⊆ τ2.
CheckResult checkActionRefinement(const Action &A1, const Action &A2,
                                  const ContextUniverse &Universe);

/// Interned form: same obligations with (store, args) dedup and
/// transition-set membership as integer compares.
CheckResult checkActionRefinement(const Action &A1, const Action &A2,
                                  const InternedContextUniverse &Universe);

/// Obligation-scheduler form: submits the same obligations as sliced jobs
/// into \p Sched under \p Cond and returns the group handle; after
/// Sched.run(), Sched.result(group) is bit-identical to the serial
/// checkActionRefinement above for any thread count. The jobs iterate
/// the contexts grouped by store and slice only at store boundaries, so
/// each job decides every (store, args) point of condition (2) it meets
/// exactly once, where the serial loop does (see
/// engine/ObligationScheduler.h). \p A1, \p A2, \p Universe and the
/// caches must outlive the run. The caches may be shared across groups —
/// gates and transition relations are pure, so sharing only changes who
/// computes an entry, never any outcome.
///
/// When \p Fps is non-null the slices become verdict-cacheable: each job
/// gets a content-fingerprint KeyFn over both action behaviors and every
/// context in the slice, in iteration order. Requires A1.fp() and A2.fp()
/// to be stamped; with a null \p Fps nothing is cacheable.
engine::ObligationScheduler::Group *
scheduleActionRefinement(engine::ObligationScheduler &Sched,
                         engine::ObCondition Cond, const Action &A1,
                         const Action &A2,
                         const InternedContextUniverse &Universe,
                         engine::InternedTransitionCache &Cache,
                         engine::GateCache &Gates,
                         engine::OmegaGateCache &OmegaGates,
                         engine::ArenaFingerprints *Fps = nullptr);

/// An initial condition for program-level checks: a global store plus
/// arguments for Main.
struct InitialCondition {
  Store Global;
  std::vector<Value> MainArgs;
};

/// Checks Definition 3.2, P1 ≼ P2, from the initial store \p Init given
/// the summaries \p S1 of P1 and \p S2 of P2 from that store:
///  (1) Good(P2) ⊆ Good(P1) and (2) Good(P2) ∘ Trans(P1) ⊆ Trans(P2).
/// Both Trans sets are orbit-closed (see ProgramSummary), so stores compare
/// directly: one obligation for the initial store, one per store of
/// Trans(P1). When P2 can fail both conditions are vacuous and \p S1 is
/// not read, so a caller may leave it default-constructed.
CheckResult checkProgramRefinement(const ProgramSummary &S1,
                                   const ProgramSummary &S2,
                                   const Store &Init);

/// Checks Definition 3.2, P1 ≼ P2, over the given initial conditions:
/// explores each program once per initial condition (P1 only where P2
/// cannot fail) and compares the summaries.
CheckResult checkProgramRefinement(const Program &P1, const Program &P2,
                                   const std::vector<InitialCondition> &Inits,
                                   const ExploreOptions &Opts =
                                       ExploreOptions());

} // namespace isq

#endif // ISQ_REFINE_REFINEMENT_H
