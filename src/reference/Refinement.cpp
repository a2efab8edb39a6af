//===- reference/Refinement.cpp - Serial refinement checks -----------------===//

#include "reference/Refinement.h"

#include "reference/Explorer.h"

#include <unordered_set>

using namespace isq;
using namespace isq::engine;

ContextUniverse
isq::collectContexts(const std::vector<Configuration> &Configs, Symbol Name) {
  // Configurations are already distinct, so only PAs repeated within one
  // configuration need deduplication — handled by iterating the canonical
  // multiset entries (one context per distinct PA).
  ContextUniverse Universe;
  for (const Configuration &C : Configs) {
    if (C.isFailure())
      continue;
    for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
      (void)Count;
      if (PA.Action != Name)
        continue;
      Universe.push_back({C.global(), PA.Args, C.pendingAsyncs()});
    }
  }
  return Universe;
}

CheckResult isq::checkActionRefinement(const Action &A1, const Action &A2,
                                       const InternedContextUniverse &Universe) {
  CheckResult Result;
  assert(A1.arity() == A2.arity() && "refinement requires equal arity");
  StateArena &Arena = *Universe.Arena;
  InternedTransitionCache Cache(Arena);
  // Condition (2) does not read Ω: check each (store, args) point once.
  // The interned pair (StoreId, ArgsPa) identifies the point exactly.
  std::unordered_set<uint64_t> SimulationDone;
  auto describe = [&](const InternedActionContext &Ctx) {
    return describeCall(Arena.store(Ctx.Global), Arena.pa(Ctx.ArgsPa).Args);
  };
  for (const InternedActionContext &Ctx : Universe.Items) {
    const Store &G = Arena.store(Ctx.Global);
    const std::vector<Value> &Args = Arena.pa(Ctx.ArgsPa).Args;
    const PaMultiset &Omega = Arena.paSet(Ctx.Omega);
    bool Gate2 = A2.evalGate(G, Args, Omega);
    // (1) ρ2 ⊆ ρ1: whenever the abstract gate holds, the concrete gate
    // holds (the abstraction preserves failures of the concrete action).
    Result.countObligation();
    bool Gate1 = A1.evalGate(G, Args, Omega);
    if (Gate2 && !Gate1)
      Result.fail("gate inclusion violated (ρ2 ⊄ ρ1) at " + describe(Ctx));
    if (!Gate2)
      continue; // (2) only constrains stores in ρ2
    uint64_t Point = (static_cast<uint64_t>(Ctx.Global) << 32) | Ctx.ArgsPa;
    if (!SimulationDone.insert(Point).second)
      continue;
    // (2) ρ2 ∘ τ1 ⊆ τ2: every concrete transition is an abstract one.
    const std::vector<InternedTransition> &Abstract =
        Cache.get(A2, Ctx.Global, Ctx.ArgsPa);
    for (const InternedTransition &T : Cache.get(A1, Ctx.Global, Ctx.ArgsPa)) {
      Result.countObligation();
      bool Found = false;
      for (const InternedTransition &Candidate : Abstract)
        if (Candidate.Global == T.Global &&
            Candidate.CreatedSet == T.CreatedSet) {
          Found = true;
          break;
        }
      if (!Found)
        Result.fail("transition not simulated (ρ2 ∘ τ1 ⊄ τ2) at " +
                    describe(Ctx) + " transition " +
                    Transition(Arena.store(T.Global),
                               Arena.paSet(T.CreatedSet).flatten())
                        .str());
    }
  }
  return Result;
}

CheckResult isq::checkActionRefinement(const Action &A1, const Action &A2,
                                       const ContextUniverse &Universe) {
  // Intern the value-level contexts into a fresh arena. The carrier symbol
  // fixes the interning identity of each argument tuple; dedup classes are
  // unchanged, so obligation counts match the value-level evaluation.
  InternedContextUniverse Interned;
  Interned.Arena = std::make_shared<StateArena>();
  Interned.Items.reserve(Universe.size());
  Symbol Carrier = Symbol::get("<refine-args>");
  for (const ActionContext &Ctx : Universe)
    Interned.Items.push_back(
        {Interned.Arena->internStore(Ctx.Global),
         Interned.Arena->internPa(PendingAsync(Carrier, Ctx.Args)),
         Interned.Arena->internPaSet(Ctx.Omega)});
  return checkActionRefinement(A1, A2, Interned);
}

CheckResult
isq::checkProgramRefinement(const Program &P1, const Program &P2,
                            const std::vector<InitialCondition> &Inits,
                            const EngineOptions &Opts) {
  CheckResult Result;
  for (const InitialCondition &Init : Inits) {
    ProgramSummary S2 = summarize(P2, Init.Global, Init.MainArgs, Opts);
    ProgramSummary S1;
    if (S2.Good)
      S1 = summarize(P1, Init.Global, Init.MainArgs, Opts);
    Result.merge(checkProgramRefinement(S1, S2, Init.Global));
  }
  return Result;
}
