//===- reference/Refinement.h - Serial refinement checks --------*- C++ -*-===//
///
/// \file
/// The serial form of Definition 3.1's action refinement, a1 ≼ a2: one
/// plain loop over the context universe, the oracle of the scheduled
/// scheduleActionRefinement (refine/Refinement.h) and the refinement check
/// of reference::checkIS. Also the value-level context universe and the
/// one-call form of Definition 3.2's program refinement. Part of
/// isq_reference, which only tests, benches and examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_REFINEMENT_H
#define ISQ_REFERENCE_REFINEMENT_H

#include "refine/Refinement.h"

#include <vector>

namespace isq {

/// One value-level point of the quantifier domain for action-level
/// checks: a global store, parameter values for the action under check,
/// and the ambient pending-async multiset visible to Ω-observing gates.
struct ActionContext {
  Store Global;
  std::vector<Value> Args;
  PaMultiset Omega;
};

/// A finite value-level quantifier domain.
using ContextUniverse = std::vector<ActionContext>;

/// Extracts contexts for action \p Name from explored configurations: one
/// context per PA to \p Name per configuration.
ContextUniverse collectContexts(const std::vector<Configuration> &Configs,
                                Symbol Name);

/// Checks Definition 3.1, a1 ≼ a2, over \p Universe:
///  (1) ρ2 ⊆ ρ1 and (2) ρ2 ∘ τ1 ⊆ τ2,
/// with (store, args) dedup and transition-set membership as integer
/// compares.
CheckResult checkActionRefinement(const Action &A1, const Action &A2,
                                  const InternedContextUniverse &Universe);

/// Value-level form: interns \p Universe into a fresh arena and checks it.
CheckResult checkActionRefinement(const Action &A1, const Action &A2,
                                  const ContextUniverse &Universe);

/// Checks Definition 3.2, P1 ≼ P2, over the given initial conditions:
/// explores each program once per initial condition (P1 only where P2
/// cannot fail) and compares the summaries.
CheckResult checkProgramRefinement(const Program &P1, const Program &P2,
                                   const std::vector<InitialCondition> &Inits,
                                   const engine::EngineOptions &Opts =
                                       engine::EngineOptions());

} // namespace isq

#endif // ISQ_REFERENCE_REFINEMENT_H
