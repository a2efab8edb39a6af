//===- reference/Rewriter.cpp - Executable soundness construction -----------===//

#include "reference/Rewriter.h"

#include "is/Sequentialize.h"

using namespace isq;

namespace {

/// The PA multiset created by the step Pre --[PA]--> Post.
PaMultiset createdOf(const Configuration &Pre, const PendingAsync &PA,
                     const Configuration &Post) {
  PaMultiset Rest = Pre.pendingAsyncs();
  Rest.erase(PA);
  return Post.pendingAsyncs().differenceWith(Rest);
}

/// Renders the schedule "I; X(1); B*(2); ..." of the working state.
std::string renderStage(const char *Tag, const PendingAsync &First,
                        const std::vector<ExecStep> &Tail,
                        const ISApplication &App) {
  std::string Out = std::string(Tag) + ": " + First.str();
  for (const ExecStep &Step : Tail) {
    Out += "; " + Step.Executed.str();
    if (App.eliminates(Step.Executed.Action))
      Out += "*";
  }
  return Out;
}

} // namespace

RewriteResult isq::rewriteExecution(const ISApplication &App,
                                    const Execution &Pi, bool LogStages) {
  RewriteResult Result;
  if (Pi.Steps.empty() || Pi.Steps.front().Executed.Action != App.M) {
    Result.Error = "execution does not start with a transition of M";
    return Result;
  }
  if (!Pi.isTerminating()) {
    Result.Error = "rewriter expects a terminating execution (Lemma 4.3)";
    return Result;
  }

  const Configuration &C0 = Pi.Initial;
  PendingAsync MPa = Pi.Steps.front().Executed;

  // The invariant transition accumulated so far (starts as M's transition,
  // which is a transition of I by (I1)).
  Configuration AfterInv = Pi.Steps.front().Successor;
  Transition InvTrans(AfterInv.global());
  InvTrans.Created = createdOf(C0, MPa, AfterInv).flatten();

  // The remainder of the execution after the invariant transition.
  std::vector<ExecStep> Tail(Pi.Steps.begin() + 1, Pi.Steps.end());

  if (LogStages)
    Result.Stages.push_back(renderStage("start", MPa, Tail, App));

  // Eliminate PAs to E one at a time, following the choice function.
  while (true) {
    PaMultiset ToE = App.pasToE(InvTrans);
    if (ToE.empty())
      break;
    PendingAsync Chosen = App.Choice(C0.global(), MPa.Args, InvTrans);
    if (!ToE.contains(Chosen)) {
      Result.Error = "choice function selected a PA outside PAE(t)";
      return Result;
    }
    const Action &Abs = App.abstraction(Chosen.Action);

    // Locate the (first) step of the tail executing the chosen PA. In a
    // terminating execution every created PA eventually executes.
    size_t Index = SIZE_MAX;
    for (size_t I = 0; I < Tail.size(); ++I)
      if (Tail[I].Executed == Chosen) {
        Index = I;
        break;
      }
    if (Index == SIZE_MAX) {
      Result.Error = "chosen PA " + Chosen.str() +
                     " never executes in the terminating execution";
      return Result;
    }

    // Commute the chosen step to the front of the tail. Each swap replays
    // the two adjacent steps in the other order, which must be possible
    // because α(Chosen) is a left mover.
    for (size_t K = Index; K > 0; --K) {
      const Configuration &Prev =
          K >= 2 ? Tail[K - 2].Successor : AfterInv;
      ExecStep &OtherStep = Tail[K - 1];
      ExecStep &ChosenStep = Tail[K];
      PaMultiset OtherCreated =
          createdOf(Prev, OtherStep.Executed, OtherStep.Successor);
      PaMultiset ChosenCreated = createdOf(
          OtherStep.Successor, ChosenStep.Executed, ChosenStep.Successor);

      // Find a transition of the abstraction from Prev matching the
      // chosen step's created PAs, from which the other step can replay to
      // the known post-pair configuration.
      bool Swapped = false;
      const Action &Other = App.P.action(OtherStep.Executed.Action);
      for (const Transition &TS :
           Abs.transitions(Prev.global(), Chosen.Args)) {
        if (TS.createdMultiset() != ChosenCreated)
          continue;
        for (const Transition &TO :
             Other.transitions(TS.Global, OtherStep.Executed.Args)) {
          if (TO.Global != ChosenStep.Successor.global() ||
              TO.createdMultiset() != OtherCreated)
            continue;
          // Build the new intermediate configuration.
          PaMultiset Mid = Prev.pendingAsyncs();
          Mid.erase(Chosen);
          Mid = Mid.unionWith(ChosenCreated);
          ExecStep NewChosen{Chosen, Configuration(TS.Global, Mid)};
          ExecStep NewOther{OtherStep.Executed, ChosenStep.Successor};
          Tail[K - 1] = NewChosen;
          Tail[K] = NewOther;
          Swapped = true;
          break;
        }
        if (Swapped)
          break;
      }
      if (!Swapped) {
        Result.Error = "cannot commute " + Chosen.str() + " left of " +
                       OtherStep.Executed.str() +
                       " (left-mover condition violated?)";
        return Result;
      }
      Result.NumCommutes++;
    }
    if (LogStages)
      Result.Stages.push_back(renderStage("commuted", MPa, Tail, App));

    // Absorb the front step into the invariant transition (the (I3)
    // composition).
    const ExecStep &Front = Tail.front();
    PaMultiset FrontCreated = createdOf(AfterInv, Chosen, Front.Successor);
    PaMultiset NewCreated = PaMultiset::fromSequence(InvTrans.Created);
    NewCreated.erase(Chosen);
    NewCreated = NewCreated.unionWith(FrontCreated);
    InvTrans.Global = Front.Successor.global();
    InvTrans.Created = NewCreated.flatten();
    AfterInv = Front.Successor;
    Tail.erase(Tail.begin());
    Result.NumAbsorptions++;
    if (LogStages)
      Result.Stages.push_back(renderStage("absorbed", MPa, Tail, App));
  }

  // The accumulated transition has no PAs to E, hence is a transition of
  // M'. Assemble the P'-execution and validate it.
  Result.Rewritten.Initial = C0;
  Result.Rewritten.Steps.push_back({MPa, AfterInv});
  for (ExecStep &Step : Tail)
    Result.Rewritten.Steps.push_back(std::move(Step));

  Program PPrime = applyIS(App);
  if (!Result.Rewritten.isValid(PPrime)) {
    Result.Error = "rewritten execution is not a valid P' execution";
    return Result;
  }
  if (Result.Rewritten.finalConfiguration() != Pi.finalConfiguration()) {
    Result.Error = "rewritten execution changed the final configuration";
    return Result;
  }
  Result.Ok = true;
  return Result;
}
