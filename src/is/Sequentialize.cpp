//===- is/Sequentialize.cpp - Deriving and applying M' -------------------------===//

#include "is/Sequentialize.h"

#include <algorithm>

using namespace isq;

bool isq::keptByRestriction(const std::vector<Symbol> &E,
                            const Transition &T) {
  for (const PendingAsync &PA : T.Created)
    if (std::find(E.begin(), E.end(), PA.Action) != E.end())
      return false;
  return true;
}

Action isq::restrictInvariant(const ISApplication &App) {
  // Capture only what is needed: the invariant and the set E.
  Action Invariant = App.Invariant;
  std::vector<Symbol> E = App.E;
  Action::GateFn Gate = [Invariant](const GateContext &Ctx) {
    return Invariant.evalGate(Ctx.Global, Ctx.Args, Ctx.Omega);
  };
  Action::TransitionsFn Transitions =
      [Invariant, E](const Store &G, const std::vector<Value> &Args) {
        std::vector<Transition> Out;
        for (Transition &T : Invariant.transitions(G, Args))
          if (keptByRestriction(E, T))
            Out.push_back(std::move(T));
        return Out;
      };
  // Filtering is pure, so the restriction is concurrently enumerable
  // exactly when the invariant is.
  return Action(App.M.str(), App.Invariant.arity(), std::move(Gate),
                std::move(Transitions), App.Invariant.gateReadsOmega(),
                App.Invariant.transitionsThreadSafe());
}

bool isq::derivesSequentializedAction(const ISApplication &App) {
  return !App.SeqAction;
}

Action isq::sequentializedAction(const ISApplication &App) {
  if (!derivesSequentializedAction(App))
    return App.SeqAction->withName(App.M.str());
  return restrictInvariant(App);
}

Program isq::applyIS(const ISApplication &App) {
  return App.P.withAction(sequentializedAction(App));
}
