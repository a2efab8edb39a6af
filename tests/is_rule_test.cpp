//===- tests/is_rule_test.cpp - IS proof rule unit tests -------------------------===//

#include "TestPrograms.h"
#include "is/Sequentialize.h"
#include "protocols/Measures.h"
#include "protocols/Pathological.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

namespace {

/// A correct IS application for the increment fan-out: Main spawns N Inc
/// tasks; the invariant summarizes "k increments already applied".
ISApplication makeIncrementIS(int64_t N) {
  ISApplication App;
  App.P = makeIncrementProgram(N);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Inc")};
  App.Invariant = Action(
      "Inv", 0, Action::alwaysEnabled(),
      [N](const Store &G, const std::vector<Value> &) {
        std::vector<Transition> Out;
        int64_t X = G.get("x").getInt();
        for (int64_t K = 0; K <= N; ++K) {
          Transition T(G.set("x", iv(X + K)));
          for (int64_t I = K; I < N; ++I)
            T.Created.emplace_back("Inc", std::vector<Value>{});
          Out.push_back(std::move(T));
        }
        return Out;
      });
  App.Choice = ISApplication::chooseInOrder({Symbol::get("Inc")});
  App.WfMeasure = protocols::pendingAsyncCount();
  return App;
}

const std::vector<InitialCondition> kInits = {{xStore(0), {}},
                                              {xStore(5), {}}};

} // namespace

TEST(ISRuleTest, AcceptsIncrementSequentialization) {
  ISApplication App = makeIncrementIS(3);
  ISCheckReport Report = checkIS(App, kInits);
  EXPECT_TRUE(Report.ok()) << Report.str();
  EXPECT_GT(Report.totalObligations(), 0u);
}

TEST(ISRuleTest, TransformedProgramIsSequential) {
  ISApplication App = makeIncrementIS(3);
  Program PPrime = applyIS(App);
  ExploreResult R = explore(PPrime, initialConfiguration(xStore(0)));
  // M' executes in one step to the unique final state: exactly 2
  // configurations (initial, done).
  EXPECT_EQ(R.Stats.NumConfigurations, 2u);
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_EQ(R.TerminalStores[0].get("x").getInt(), 3);
}

TEST(ISRuleTest, ConclusionOfTheRuleHolds) {
  // The formal guarantee: P ≼ P[M ↦ M'].
  ISApplication App = makeIncrementIS(4);
  ASSERT_TRUE(checkIS(App, kInits).ok());
  EXPECT_TRUE(
      checkProgramRefinement(App.P, applyIS(App), kInits).ok());
}

TEST(ISRuleTest, RejectsNonInductiveInvariant) {
  // An invariant missing the intermediate prefixes (only k = 0 and k = N)
  // fails the inductive step (I3).
  int64_t N = 3;
  ISApplication App = makeIncrementIS(N);
  App.Invariant = Action(
      "BadInv", 0, Action::alwaysEnabled(),
      [N](const Store &G, const std::vector<Value> &) {
        std::vector<Transition> Out;
        int64_t X = G.get("x").getInt();
        for (int64_t K : {int64_t(0), N}) {
          Transition T(G.set("x", iv(X + K)));
          for (int64_t I = K; I < N; ++I)
            T.Created.emplace_back("Inc", std::vector<Value>{});
          Out.push_back(std::move(T));
        }
        return Out;
      });
  ISCheckReport Report = checkIS(App, kInits);
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.InductiveStep.ok()) << Report.str();
}

TEST(ISRuleTest, RejectsInvariantThatMissesBaseCase) {
  // An invariant that always pre-applies one increment does not abstract
  // Main's transition: (I1) fails.
  int64_t N = 2;
  ISApplication App = makeIncrementIS(N);
  App.Invariant = Action(
      "ShiftedInv", 0, Action::alwaysEnabled(),
      [N](const Store &G, const std::vector<Value> &) {
        std::vector<Transition> Out;
        int64_t X = G.get("x").getInt();
        for (int64_t K = 1; K <= N; ++K) {
          Transition T(G.set("x", iv(X + K)));
          for (int64_t I = K; I < N; ++I)
            T.Created.emplace_back("Inc", std::vector<Value>{});
          Out.push_back(std::move(T));
        }
        return Out;
      });
  ISCheckReport Report = checkIS(App, kInits);
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.BaseCase.ok()) << Report.str();
}

TEST(ISRuleTest, SideConditionsRejectMalformedApplications) {
  ISApplication App = makeIncrementIS(2);
  App.E.push_back(Symbol::get("NoSuchAction"));
  EXPECT_FALSE(checkIS(App, kInits).SideConditions.ok());

  ISApplication App2 = makeIncrementIS(2);
  App2.WfMeasure = Measure();
  EXPECT_FALSE(checkIS(App2, kInits).SideConditions.ok());

  ISApplication App3 = makeIncrementIS(2);
  App3.Choice = nullptr;
  EXPECT_FALSE(checkIS(App3, kInits).SideConditions.ok());
}

TEST(ISRuleTest, DerivedSequentializationMatchesRestriction) {
  ISApplication App = makeIncrementIS(3);
  Action MPrime = sequentializedAction(App);
  // From x=0 the only E-free invariant transition is x := 3.
  auto Ts = MPrime.transitions(xStore(0), {});
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Global.get("x").getInt(), 3);
  EXPECT_TRUE(Ts[0].Created.empty());
}

// --- The §4 cooperation counterexample ------------------------------------------

TEST(CooperationTest, CounterexampleIsRejected) {
  using namespace isq::protocols;
  ISApplication App = makeCooperationCounterexampleIS();
  std::vector<InitialCondition> Inits = {
      {makeCooperationCounterexampleStore(), {}}};
  ISCheckReport Report = checkIS(App, Inits);
  // Every condition except cooperation holds...
  EXPECT_TRUE(Report.SideConditions.ok()) << Report.str();
  EXPECT_TRUE(Report.BaseCase.ok()) << Report.str();
  EXPECT_TRUE(Report.Conclusion.ok()) << Report.str();
  EXPECT_TRUE(Report.InductiveStep.ok()) << Report.str();
  EXPECT_TRUE(Report.LeftMovers.ok()) << Report.str();
  // ...but (CO) must fail: Rec reproduces itself and never decreases.
  EXPECT_FALSE(Report.Cooperation.ok()) << Report.str();
  EXPECT_FALSE(Report.ok());
}

TEST(CooperationTest, SkippingCooperationWouldBeUnsound) {
  // Demonstrates *why* (CO) matters: P can fail (Main; Fail) but the
  // would-be P' cannot even take a step (M' has an empty transition
  // relation), so P ⋠ P'.
  using namespace isq::protocols;
  ISApplication App = makeCooperationCounterexampleIS();
  Program PPrime = applyIS(App);
  Store Init = makeCooperationCounterexampleStore();

  ExploreResult Concrete =
      explore(App.P, initialConfiguration(Init));
  EXPECT_TRUE(Concrete.FailureReachable);

  ExploreResult Abstract = explore(PPrime, initialConfiguration(Init));
  EXPECT_FALSE(Abstract.FailureReachable)
      << "P' cannot fail — exactly the unsoundness (CO) prevents";
  CheckResult R = checkProgramRefinement(App.P, PPrime,
                                         {{Init, {}}});
  EXPECT_FALSE(R.ok());
}
