//===- reference/Reduction.cpp - Lipton reduction --------------------------===//

#include "reference/Reduction.h"

using namespace isq;

CheckResult isq::checkAtomicPattern(const std::vector<MoverType> &Movers) {
  CheckResult Result;
  // Phase 0: right movers (Right/Both); phase 1: after the single
  // non-mover; left movers (Left/Both) only.
  int Phase = 0;
  for (size_t I = 0; I < Movers.size(); ++I) {
    Result.countObligation();
    MoverType M = Movers[I];
    if (Phase == 0) {
      if (M == MoverType::Right || M == MoverType::Both)
        continue;
      // A non-mover or a pure left mover ends the right-mover phase.
      Phase = 1;
      if (M == MoverType::None)
        continue; // the (single) non-mover itself
      // Left movers fall through to phase-1 checking below.
    }
    if (M != MoverType::Left && M != MoverType::Both)
      Result.fail("operation " + std::to_string(I) +
                  " has mover type '" + moverTypeName(M) +
                  "' after the non-mover position");
  }
  return Result;
}

CheckResult
isq::verifyMoverAnnotations(const std::vector<PrimitiveOp> &Ops,
                            const Program &P,
                            const std::vector<Configuration> &Universe) {
  CheckResult Result;
  for (const PrimitiveOp &Op : Ops) {
    Symbol Name = Op.Act.name();
    if (Op.Mover == MoverType::Left || Op.Mover == MoverType::Both) {
      CheckResult R = checkLeftMover(Name, Op.Act, P, Universe);
      if (!R.ok())
        Result.fail(Name.str() + " annotated left mover but is not");
      Result.merge(R);
    }
    if (Op.Mover == MoverType::Right || Op.Mover == MoverType::Both) {
      CheckResult R = checkRightMover(Name, Op.Act, P, Universe);
      if (!R.ok())
        Result.fail(Name.str() + " annotated right mover but is not");
      Result.merge(R);
    }
  }
  return Result;
}

namespace {

/// A partially executed path through the operation sequence.
struct PathState {
  Store Global;
  std::vector<PendingAsync> Created;
};

} // namespace

Action isq::fuseSequence(const std::string &Name, size_t Arity,
                         const std::vector<PrimitiveOp> &Ops) {
  std::vector<Action> Acts;
  Acts.reserve(Ops.size());
  for (const PrimitiveOp &Op : Ops)
    Acts.push_back(Op.Act);

  // Simulates all paths; returns false via CanFail if some path reaches a
  // false gate. Out collects terminal path states when non-null.
  auto Simulate = [Acts](const Store &G, const std::vector<Value> &Args,
                         const PaMultiset &AmbientOmega, bool &CanFail,
                         std::vector<PathState> *Out) {
    CanFail = false;
    std::vector<PathState> Frontier{{G, {}}};
    for (const Action &A : Acts) {
      std::vector<PathState> Next;
      for (PathState &S : Frontier) {
        PaMultiset Omega = AmbientOmega;
        for (const PendingAsync &PA : S.Created)
          Omega.insert(PA);
        if (!A.evalGate(S.Global, Args, Omega)) {
          CanFail = true;
          continue;
        }
        for (const Transition &T : A.transitions(S.Global, Args)) {
          PathState NS{T.Global, S.Created};
          NS.Created.insert(NS.Created.end(), T.Created.begin(),
                            T.Created.end());
          Next.push_back(std::move(NS));
        }
      }
      Frontier = std::move(Next);
    }
    if (Out)
      *Out = std::move(Frontier);
  };

  Action::GateFn Gate = [Simulate](const GateContext &Ctx) {
    bool CanFail = false;
    Simulate(Ctx.Global, Ctx.Args, Ctx.Omega, CanFail, nullptr);
    return !CanFail;
  };
  Action::TransitionsFn Transitions =
      [Simulate](const Store &G, const std::vector<Value> &Args) {
        bool CanFail = false;
        std::vector<PathState> Paths;
        // Transition enumeration does not observe Ω; intermediate gates are
        // evaluated with only the block's own created PAs visible.
        Simulate(G, Args, PaMultiset(), CanFail, &Paths);
        std::vector<Transition> Out;
        Out.reserve(Paths.size());
        for (PathState &S : Paths)
          Out.emplace_back(std::move(S.Global), std::move(S.Created));
        return Out;
      };
  return Action(Name, Arity, std::move(Gate), std::move(Transitions));
}
