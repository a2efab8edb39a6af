//===- is/ISCheck.h - IS verification conditions ------------------*- C++ -*-===//
///
/// \file
/// The verification conditions of the Inductive Sequentialization rule
/// (Fig. 3): the side conditions on f and α, the abstraction refinements
/// P(A) ≼ α(A), the base case (I1), the conclusion (I2), the inductive
/// step (I3), the left-mover condition (LM), and the cooperation condition
/// (CO). Mirroring CIVL's fine-grained decomposition (§5.1), every
/// condition is checked separately and reports targeted diagnostics.
///
/// Quantifier domains: conditions are universally quantified over stores;
/// we evaluate them over the *IS universe* — the configurations reachable
/// in P and in P[M ↦ I] (the partial sequentializations), which covers
/// every configuration manipulated by the soundness construction of §4.1
/// for the explored instances (see DESIGN.md "State universes" and
/// "Symmetry reduction").
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_IS_ISCHECK_H
#define ISQ_IS_ISCHECK_H

#include "engine/EngineConfig.h"
#include "is/ISApplication.h"
#include "refine/Refinement.h"

#include <string>

namespace isq {

namespace engine {
class ObligationCache; // engine/ObligationCache.h
}

/// The quantifier domain for the IS conditions.
struct ISUniverse {
  /// Every context in which an M pending async executes (inputs to I),
  /// each distinct point once, interned into Space's arena. Under
  /// symmetry reduction the contexts at P's representatives are expanded
  /// to their whole orbits: (I1)–(I3) are not equivariant, so they must
  /// see every call point, not one per orbit.
  InternedContextUniverse MCalls;
  /// Configurations of P ∪ configurations of P[M ↦ I]: P's nodes (orbit
  /// representatives when reduced), followed by the unreduced P[M ↦ I]
  /// leg's new nodes when that leg had to be explored.
  engine::StateSpace Space;
  /// Orbit size per configuration, index-aligned with Space.Configs (1
  /// for every unreduced node). Observational only: the checks themselves
  /// quantify over the representatives, which is sound for LM, CO and
  /// P(A) ≼ α(A) because each is an equivariant predicate of one
  /// configuration.
  std::vector<uint64_t> OrbitSizes;
  /// Accumulated engine statistics of the universe explorations.
  engine::EngineStats Stats;
  /// The summary of P's exploration from each initial condition,
  /// index-aligned with build()'s Inits: Good, the orbit-closed Trans and
  /// the explored-node count, so the P ≼ P' cross-check never explores P
  /// again.
  std::vector<ProgramSummary> PSummaries;

  /// Builds the universe from \p Inits. P is explored first; P[M ↦ I]
  /// is explored only when the closure test fails — when P's exploration
  /// was truncated or some step of I from a call point of Reach(P) leaves
  /// Reach(P). Otherwise Reach(P[M ↦ I]) ⊆ Reach(P) and the universe is
  /// P's alone (DESIGN.md "State universes").
  static ISUniverse build(const ISApplication &App,
                          const std::vector<InitialCondition> &Inits,
                          const ExploreOptions &Opts = ExploreOptions());
};

/// Options for checkIS.
struct ISCheckOptions {
  /// The unified engine configuration. Config.NumThreads drives the
  /// obligation scheduler (0 treated as 1).
  engine::EngineConfig Config;
  /// Content-addressed obligation verdict cache consulted by the
  /// scheduler; null checks everything.
  /// Caching requires every behavior the obligations depend on to carry a
  /// content fingerprint (actions, invariant, choice function, measure,
  /// abstractions); applications with any unknown fingerprint silently
  /// run uncached — correctness never depends on the fingerprints'
  /// availability, only hit rates do. Verdicts, counts and diagnostics
  /// are bit-identical with and without a cache.
  engine::ObligationCache *Cache = nullptr;
};

/// Per-condition results of one IS application.
struct ISCheckReport {
  CheckResult SideConditions;
  CheckResult AbstractionRefinement; ///< P(A) ≼ α(A) for A ∈ E
  CheckResult BaseCase;              ///< (I1)
  CheckResult Conclusion;            ///< (I2)
  CheckResult InductiveStep;         ///< (I3)
  CheckResult LeftMovers;            ///< (LM)
  CheckResult Cooperation;           ///< (CO)

  /// Obligation-scheduler observability of the run (zeroed when the
  /// static side conditions fail and no obligation is scheduled).
  engine::ObligationStats Scheduler;

  bool ok() const {
    return SideConditions.ok() && AbstractionRefinement.ok() &&
           BaseCase.ok() && Conclusion.ok() && InductiveStep.ok() &&
           LeftMovers.ok() && Cooperation.ok();
  }

  size_t totalObligations() const {
    return SideConditions.obligations() +
           AbstractionRefinement.obligations() + BaseCase.obligations() +
           Conclusion.obligations() + InductiveStep.obligations() +
           LeftMovers.obligations() + Cooperation.obligations();
  }

  /// Renders a per-condition summary.
  std::string str() const;
};

/// Checks every condition of the IS rule for \p App over \p Universe.
/// Obligations run on the obligation scheduler across
/// Opts.Config.NumThreads workers; verdicts, counts and diagnostics are
/// bit-identical for any thread count and to the serial Fig. 3 loops of
/// reference::checkIS (reference/ISCheck.h). Requires the application's
/// choice function and measure to be pure (they are invoked
/// concurrently), which every protocol in this repo satisfies.
ISCheckReport checkIS(const ISApplication &App, const ISUniverse &Universe,
                      const ISCheckOptions &Opts = ISCheckOptions());

/// Convenience: builds the universe from \p Inits and checks it on the
/// scheduler under Opts.Config (no obligation cache).
ISCheckReport checkIS(const ISApplication &App,
                      const std::vector<InitialCondition> &Inits,
                      const ExploreOptions &Opts = ExploreOptions());

} // namespace isq

#endif // ISQ_IS_ISCHECK_H
