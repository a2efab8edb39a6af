//===- tests/coverage_gaps_test.cpp - Assorted API edge cases ------------------------===//

#include "TestPrograms.h"
#include "is/Sequentialize.h"
#include "reference/Explorer.h"
#include "reference/MoverCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

TEST(CoverageTest, ParentTrackingCanBeDisabled) {
  Program P = makeConditionalFailProgram();
  engine::EngineOptions Opts;
  Opts.RecordParents = false;
  ExploreResult R = explore(P, initialConfiguration(xStore(1)), Opts);
  EXPECT_TRUE(R.FailureReachable);
  EXPECT_FALSE(R.FailureTrace.has_value())
      << "no trace without parent tracking";
}

TEST(CoverageTest, ExecutionValidationRejectsForeignPa) {
  Program P = makeIncrementProgram(1);
  Execution E;
  E.Initial = initialConfiguration(xStore(0));
  // Claims to execute a PA that is not pending.
  E.Steps.push_back(
      {PendingAsync("Inc", {}), Configuration(xStore(1), PaMultiset())});
  EXPECT_FALSE(E.isValid(P));
}

TEST(CoverageTest, ExecutionValidationRejectsStepsAfterFailure) {
  Program P = makeConditionalFailProgram();
  Configuration C0 = initialConfiguration(xStore(1));
  Configuration C1 = stepPendingAsync(P, C0, PendingAsync("Main", {}))[0];
  Execution E;
  E.Initial = C0;
  E.Steps.push_back({PendingAsync("Main", {}), C1});
  E.Steps.push_back({PendingAsync("Check", {}), Configuration::failure()});
  EXPECT_TRUE(E.isValid(P));
  // Nothing may execute after the failure configuration.
  E.Steps.push_back({PendingAsync("Check", {}), Configuration::failure()});
  EXPECT_FALSE(E.isValid(P));
}

TEST(CoverageTest, RestrictInvariantDropsOnlyETransitions) {
  // An invariant with transitions creating E-PAs, non-E-PAs, and nothing.
  ISApplication App;
  App.P = makeIncrementProgram(1);
  App.P.addAction(updateX("Other", [](int64_t X) { return X; }));
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Inc")};
  App.Invariant = Action(
      "Inv", 0, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &) {
        Transition WithE(G);
        WithE.Created.emplace_back("Inc", std::vector<Value>{});
        Transition WithOther(G.set("x", iv(1)));
        WithOther.Created.emplace_back("Other", std::vector<Value>{});
        Transition Plain(G.set("x", iv(2)));
        return std::vector<Transition>{WithE, WithOther, Plain};
      });
  Action Restricted = restrictInvariant(App);
  auto Ts = Restricted.transitions(xStore(0), {});
  ASSERT_EQ(Ts.size(), 2u) << "only the Inc-creating transition is erased";
  EXPECT_EQ(Ts[0].Created.size(), 1u);
  EXPECT_EQ(Ts[0].Created[0].Action.str(), "Other");
  EXPECT_TRUE(Ts[1].Created.empty());
}

TEST(CoverageTest, ClassifyMoverBothForPureCreator) {
  // An action that only creates PAs commutes in both directions.
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  P.addAction(Action("Spawner", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       Transition T(G);
                       T.Created.emplace_back("Noop",
                                              std::vector<Value>{});
                       return std::vector<Transition>{std::move(T)};
                     }));
  P.addAction(Action("Noop", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  PaMultiset Omega;
  Omega.insert(PendingAsync("Spawner", {}));
  Omega.insert(PendingAsync("Noop", {}));
  std::vector<Configuration> U{Configuration(xStore(0), Omega)};
  EXPECT_EQ(classifyMover(Symbol::get("Spawner"), P, U), MoverType::Both);
}

TEST(CoverageTest, ActionContextUniverseFromMultiplePas) {
  std::vector<Configuration> Configs;
  PaMultiset O;
  O.insert(PendingAsync("A", {iv(1)}), 3); // multiplicity 3, same args
  O.insert(PendingAsync("A", {iv(2)}));
  Configs.emplace_back(xStore(0), O);
  ContextUniverse U = collectContexts(Configs, Symbol::get("A"));
  // One context per *distinct* PA, not per copy.
  EXPECT_EQ(U.size(), 2u);
}

TEST(CoverageTest, SampleExecutionRespectsDepthLimit) {
  Program P = makeIncrementProgram(5);
  Rng R(3);
  EXPECT_FALSE(
      sampleExecution(P, initialConfiguration(xStore(0)), R, 2).has_value())
      << "6 steps needed, limit 2";
}
