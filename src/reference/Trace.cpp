//===- reference/Trace.cpp - Executions and traces --------------------------===//

#include "reference/Trace.h"

#include <functional>

using namespace isq;

std::vector<Configuration> isq::stepPendingAsync(const Program &P,
                                                 const Configuration &C,
                                                 const PendingAsync &PA) {
  assert(!C.isFailure() && "cannot step the failure configuration");
  assert(C.pendingAsyncs().contains(PA) && "PA not schedulable here");
  const Action &A = P.action(PA.Action);

  if (!A.evalGate(C.global(), PA.Args, C.pendingAsyncs()))
    return {Configuration::failure()};

  std::vector<Configuration> Result;
  PaMultiset Rest = C.pendingAsyncs();
  Rest.erase(PA);
  for (const Transition &T : A.transitions(C.global(), PA.Args)) {
    PaMultiset Omega = Rest;
    for (const PendingAsync &New : T.Created)
      Omega.insert(New);
    Result.emplace_back(T.Global, std::move(Omega));
  }
  return Result;
}

std::vector<Configuration> isq::successors(const Program &P,
                                           const Configuration &C) {
  std::vector<Configuration> Result;
  if (C.isFailure())
    return Result;
  for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
    (void)Count; // scheduling one of several identical PAs is symmetric
    std::vector<Configuration> Succs = stepPendingAsync(P, C, PA);
    Result.insert(Result.end(), Succs.begin(), Succs.end());
  }
  return Result;
}

bool isq::hasBlockedPendingAsync(const Program &P, const Configuration &C) {
  if (C.isFailure())
    return false;
  for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
    (void)Count;
    const Action &A = P.action(PA.Action);
    if (A.evalGate(C.global(), PA.Args, C.pendingAsyncs()) &&
        A.transitions(C.global(), PA.Args).empty())
      return true;
  }
  return false;
}

bool Execution::isValid(const Program &P) const {
  Configuration Current = Initial;
  for (const ExecStep &Step : Steps) {
    if (Current.isFailure())
      return false; // nothing executes after failure
    if (!Current.pendingAsyncs().contains(Step.Executed))
      return false;
    std::vector<Configuration> Succs =
        stepPendingAsync(P, Current, Step.Executed);
    bool Found = false;
    for (const Configuration &S : Succs)
      if (S == Step.Successor) {
        Found = true;
        break;
      }
    if (!Found)
      return false;
    Current = Step.Successor;
  }
  return true;
}

std::string Execution::scheduleStr() const {
  std::string Out;
  for (size_t I = 0; I < Steps.size(); ++I) {
    if (I)
      Out += "; ";
    Out += Steps[I].Executed.str();
  }
  return Out;
}

std::string Execution::str() const {
  std::string Out = Initial.str() + "\n";
  for (const ExecStep &Step : Steps)
    Out += "  --[" + Step.Executed.str() + "]--> " + Step.Successor.str() +
           "\n";
  return Out;
}

std::vector<Execution> isq::enumerateExecutions(const Program &P,
                                                const Configuration &Init,
                                                size_t MaxExecutions,
                                                size_t MaxDepth) {
  std::vector<Execution> Result;
  Execution Current;
  Current.Initial = Init;

  // Explicit DFS over schedules.
  std::function<void(const Configuration &)> Go =
      [&](const Configuration &C) {
        if (Result.size() >= MaxExecutions)
          return;
        if (C.isFailure() || C.isTerminating() ||
            Current.Steps.size() >= MaxDepth) {
          Result.push_back(Current);
          return;
        }
        bool AnyStep = false;
        for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
          (void)Count;
          std::vector<Configuration> Succs = stepPendingAsync(P, C, PA);
          for (const Configuration &S : Succs) {
            AnyStep = true;
            Current.Steps.push_back({PA, S});
            Go(S);
            Current.Steps.pop_back();
            if (Result.size() >= MaxExecutions)
              return;
          }
        }
        // Deadlock: every PA blocked. Record as a maximal execution.
        if (!AnyStep)
          Result.push_back(Current);
      };
  Go(Init);
  return Result;
}

std::optional<Execution> isq::sampleExecution(const Program &P,
                                              const Configuration &Init,
                                              Rng &R, size_t MaxDepth) {
  Execution E;
  E.Initial = Init;
  Configuration Current = Init;
  while (!Current.isFailure() && !Current.isTerminating()) {
    if (E.Steps.size() >= MaxDepth)
      return std::nullopt;
    // Collect all (PA, successor) moves.
    std::vector<std::pair<PendingAsync, Configuration>> Moves;
    for (const auto &[PA, Count] : Current.pendingAsyncs().entries()) {
      (void)Count;
      for (Configuration &S : stepPendingAsync(P, Current, PA))
        Moves.emplace_back(PA, std::move(S));
    }
    if (Moves.empty())
      return std::nullopt; // deadlock: not a terminating execution
    auto &[PA, Next] = Moves[R.below(Moves.size())];
    E.Steps.push_back({PA, Next});
    Current = Next;
  }
  return E;
}
