//===- semantics/Action.h - Gated atomic actions ----------------*- C++ -*-===//
///
/// \file
/// A gated atomic action (ρ, τ) from §3 of the paper. The gate ρ is a
/// predicate over the combined store (global store + action parameters);
/// the transition relation τ is a *finitely branching* enumerator producing
/// all possible (g', Ω') successors. Executing an action whose gate does
/// not hold drives the program to the failure configuration; an action
/// whose gate holds but which has no transitions from the current state is
/// *blocked* (e.g. a receive on an empty channel).
///
/// Following CIVL's `pendingAsyncs` mirror variable (Fig. 4(b) of the
/// paper), gates may additionally observe the configuration's pending-async
/// multiset Ω (including the executing PA). Transition relations never
/// read Ω, so the formal model is unchanged up to this encoding.
///
/// The gate contract: ρ is a pure function of (g, args, Ω), evaluable from
/// several threads at once; it reads Ω only if gateReadsOmega(), and the
/// global store g only if gateReadsStore(). The store footprint defaults
/// to "reads g"; a builder that proves a gate store-free (the ASL
/// frontend does, from the HIR) declares it so the checkers' gate memos
/// can share one verdict across every store (engine/ActionCaches.h).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SEMANTICS_ACTION_H
#define ISQ_SEMANTICS_ACTION_H

#include "semantics/Fingerprint.h"
#include "semantics/PendingAsync.h"
#include "semantics/Store.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace isq {

/// One element of a transition relation: the successor global store and the
/// pending asyncs created by the step.
struct Transition {
  Store Global;
  std::vector<PendingAsync> Created;

  Transition() = default;
  Transition(Store Global, std::vector<PendingAsync> Created = {})
      : Global(std::move(Global)), Created(std::move(Created)) {}

  /// The created PAs as a canonical multiset Ω'.
  PaMultiset createdMultiset() const {
    return PaMultiset::fromSequence(Created);
  }

  friend bool operator==(const Transition &A, const Transition &B) {
    return A.Global == B.Global &&
           A.createdMultiset() == B.createdMultiset();
  }

  std::string str() const;
};

/// Everything a gate may observe: the global store, the action's parameter
/// values, and the pending-async multiset of the current configuration
/// (CIVL mirror convention: Omega includes the executing PA itself).
struct GateContext {
  const Store &Global;
  const std::vector<Value> &Args;
  const PaMultiset &Omega;
};

/// A gate's static store footprint: what of its context, besides the
/// arguments and (when gateReadsOmega()) Ω, its verdict may depend on.
/// Declaring less than the gate reads is unsound — the checkers' gate
/// memos reuse a store-free gate's verdict across stores.
enum class GateFootprint : uint8_t {
  /// The gate may read the global store. The default, and the only
  /// footprint native and derived actions declare.
  Store,
  /// The gate gives one verdict at every global store for fixed args
  /// and Ω.
  NoStore,
  /// The gate cannot fail: it holds in every context.
  AlwaysHolds,
};

/// A gated atomic action.
class Action {
public:
  /// ρ: returns true iff the action does not fail from this context.
  using GateFn = std::function<bool(const GateContext &)>;
  /// τ: enumerates every possible transition from (g, args). An empty
  /// result means the action is blocked in this state.
  using TransitionsFn = std::function<std::vector<Transition>(
      const Store &, const std::vector<Value> &)>;

  Action() = default;
  /// \p GateReadsOmega declares whether the gate observes the pending-async
  /// multiset; Ω-independent gates (the default) allow the checkers to
  /// deduplicate obligations across configurations sharing a store.
  /// Gates that DO read Ctx.Omega must pass true — the checkers would
  /// otherwise be unsound.
  /// \p TransitionsThreadSafe declares that the transition enumerator may
  /// be invoked from several threads concurrently (it is pure, or its
  /// internal memoization is synchronized). Gates are always required to
  /// be concurrently evaluable — the parallel engine evaluates them from
  /// worker threads — but enumerators default to not-thread-safe and are
  /// serialized behind the interned transition cache's compute mutex
  /// unless this flag is set (see engine/ActionCaches.h).
  Action(const std::string &Name, size_t Arity, GateFn Gate,
         TransitionsFn Transitions, bool GateReadsOmega = false,
         bool TransitionsThreadSafe = false)
      : Name(Symbol::get(Name)), Arity(Arity), Gate(std::move(Gate)),
        Transitions(std::move(Transitions)), GateReadsOmega(GateReadsOmega),
        TransitionsThreadSafe(TransitionsThreadSafe) {}

  /// Whether the gate may observe Ω.
  bool gateReadsOmega() const { return GateReadsOmega; }

  /// The gate's declared store footprint (GateFootprint::Store unless
  /// the builder proved less, as the ASL frontend does).
  GateFootprint gateFootprint() const { return Footprint; }
  void setGateFootprint(GateFootprint F) { Footprint = F; }
  /// Whether the gate's verdict may depend on the global store.
  bool gateReadsStore() const { return Footprint == GateFootprint::Store; }
  /// Whether the gate holds in every context.
  bool gateAlwaysHolds() const {
    return Footprint == GateFootprint::AlwaysHolds;
  }

  /// Whether the transition enumerator may run concurrently.
  bool transitionsThreadSafe() const { return TransitionsThreadSafe; }

  Symbol name() const { return Name; }
  size_t arity() const { return Arity; }
  bool isValid() const { return Name.isValid(); }

  /// Evaluates the gate ρ.
  bool evalGate(const Store &Global, const std::vector<Value> &Args,
                const PaMultiset &Omega) const {
    assert(Args.size() == Arity && "gate arity mismatch");
    GateContext Ctx{Global, Args, Omega};
    return Gate(Ctx);
  }

  /// Enumerates the transition relation τ from (g, args).
  std::vector<Transition> transitions(const Store &Global,
                                      const std::vector<Value> &Args) const {
    assert(Args.size() == Arity && "transition arity mismatch");
    return Transitions(Global, Args);
  }

  /// The trivially true gate (total actions).
  static GateFn alwaysEnabled() {
    return [](const GateContext &) { return true; };
  }

  /// Returns a copy of this action registered under \p NewName. Used to
  /// substitute an invariant or sequentialized action for M in P[M ↦ a].
  /// The behavior fingerprint and the gate footprint carry over: renaming
  /// does not change what the gate/transition closures compute.
  Action withName(const std::string &NewName) const {
    Action Renamed(NewName, Arity, Gate, Transitions, GateReadsOmega,
                   TransitionsThreadSafe);
    Renamed.Fp = Fp;
    Renamed.Footprint = Footprint;
    return Renamed;
  }

  /// Content fingerprint of the action's *behavior* (gate + transition
  /// relation), when known. The frontend stamps it from the optimized HIR
  /// it lowered the closures from; natively constructed actions leave it
  /// zero ("unknown"), which makes any obligation depending on them
  /// ineligible for the verdict cache. Deliberately excludes the name:
  /// obligations depend on what an action does, and the name is hashed
  /// separately where identity matters (e.g. PA fingerprints).
  const Fingerprint &fp() const { return Fp; }
  void setFp(const Fingerprint &F) { Fp = F; }

private:
  Symbol Name;
  size_t Arity = 0;
  GateFn Gate;
  TransitionsFn Transitions;
  bool GateReadsOmega = false;
  bool TransitionsThreadSafe = false;
  GateFootprint Footprint = GateFootprint::Store;
  Fingerprint Fp;
};

} // namespace isq

#endif // ISQ_SEMANTICS_ACTION_H
