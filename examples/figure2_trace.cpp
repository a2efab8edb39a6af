//===- examples/figure2_trace.cpp - The Fig. 2 induction argument, live -------------===//
///
/// \file
/// Replays the paper's Fig. 2 mechanically. We build a five-action program
/// shaped like the figure — M creates PAs to A and B while X and Y are
/// also pending — run a concurrent execution M; X; B; Y; A, and ask the
/// execution rewriter (the Lemma 4.2/4.3 soundness construction) to turn
/// it into a sequential M'-execution, printing every intermediate stage:
/// the commutes of the chosen PA to the front and its absorption into the
/// invariant.
///
/// Run: ./figure2_trace
///
//===----------------------------------------------------------------------===//

#include "is/ScheduleInvariant.h"
#include "is/Sequentialize.h"
#include "protocols/Measures.h"
#include "reference/ISCheck.h"
#include "reference/Rewriter.h"
#include "reference/Trace.h"

#include <cstdio>

using namespace isq;

namespace {

Value iv(int64_t N) { return Value::integer(N); }

/// A counter-increment action named \p Name that bumps variable \p Var and
/// creates \p Created.
Action bump(const std::string &Name, const std::string &Var,
            std::vector<PendingAsync> Created = {}) {
  return Action(Name, 0, Action::alwaysEnabled(),
                [Var, Created](const Store &G, const std::vector<Value> &) {
                  Store NG =
                      G.set(Var, iv(G.get(Var).getInt() + 1));
                  return std::vector<Transition>{
                      Transition(std::move(NG), Created)};
                });
}

} // namespace

int main() {
  // The Fig. 2 cast: M creates A and B; X and Y are independent bystander
  // tasks spawned by Main alongside M. Every action bumps its own counter
  // so each schedule's effect is visible in the store.
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       Transition T(G);
                       T.Created.emplace_back("M", std::vector<Value>{});
                       T.Created.emplace_back("X", std::vector<Value>{});
                       T.Created.emplace_back("Y", std::vector<Value>{});
                       return std::vector<Transition>{std::move(T)};
                     }));
  P.addAction(bump("M", "m",
                   {PendingAsync("A", {}), PendingAsync("B", {})}));
  P.addAction(bump("A", "a"));
  P.addAction(bump("B", "b"));
  P.addAction(bump("X", "x"));
  P.addAction(bump("Y", "y"));

  Store Init = Store::make({{Symbol::get("m"), iv(0)},
                            {Symbol::get("a"), iv(0)},
                            {Symbol::get("b"), iv(0)},
                            {Symbol::get("x"), iv(0)},
                            {Symbol::get("y"), iv(0)}});

  // IS context: rewrite M, eliminating E = {A, B} with A before B — the
  // order Fig. 2 uses.
  RankFn Rank =
      [](const PendingAsync &PA) -> std::optional<std::vector<int64_t>> {
    if (PA.Action == Symbol::get("A"))
      return std::vector<int64_t>{0};
    if (PA.Action == Symbol::get("B"))
      return std::vector<int64_t>{1};
    return std::nullopt;
  };
  ISApplication App;
  App.P = P;
  App.M = Symbol::get("M");
  App.E = {Symbol::get("A"), Symbol::get("B")};
  App.Invariant =
      makeScheduleInvariant("Fig2Inv", P, App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  App.WfMeasure = protocols::pendingAsyncCount();

  ISCheckReport Report = checkIS(App, {{Init, {}}});
  std::printf("IS conditions for M with E = {A, B}:\n%s\n",
              Report.str().c_str());
  if (!Report.ok())
    return 1;

  // The concurrent execution of Fig. 2-①: M; X; B; Y; A, starting from
  // the configuration Main left behind (M, X, Y pending).
  Configuration C = initialConfiguration(Init);
  C = stepPendingAsync(P, C, PendingAsync("Main", {})).at(0);
  Execution Pi;
  Pi.Initial = C;
  for (const char *Name : {"M", "X", "B", "Y", "A"}) {
    PendingAsync PA(Name, {});
    Configuration Next = stepPendingAsync(P, C, PA).at(0);
    Pi.Steps.push_back({PA, Next});
    C = Next;
  }

  std::printf("concurrent execution (Fig. 2-①):  %s\n",
              Pi.scheduleStr().c_str());

  RewriteResult R = rewriteExecution(App, Pi, /*LogStages=*/true);
  if (!R.Ok) {
    std::printf("rewrite failed: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("\nrewriting stages (② through ⑤ of Fig. 2):\n");
  for (const std::string &Stage : R.Stages)
    std::printf("  %s\n", Stage.c_str());
  std::printf("\nsequential execution (Fig. 2-⑥): %s\n",
              R.Rewritten.scheduleStr().c_str());
  std::printf("commutes: %zu, absorptions: %zu\n", R.NumCommutes,
              R.NumAbsorptions);
  std::printf("final configuration preserved: %s\n",
              R.Rewritten.finalConfiguration() == Pi.finalConfiguration()
                  ? "yes"
                  : "NO");
  return 0;
}
