//===- tests/paxos_test.cpp - Paxos tests (§5.2, Fig. 4) --------------------------===//

#include "is/Sequentialize.h"
#include "protocols/Paxos.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::protocols;

namespace {
InitialCondition init(const PaxosParams &Params) {
  return {makePaxosInitialStore(Params), {}};
}
} // namespace

TEST(PaxosTest, SafetyHoldsInEveryTerminalState) {
  PaxosParams Params{2, 3};
  Program P = makePaxosProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makePaxosInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(checkPaxosSpec(Final, Params));
}

TEST(PaxosTest, DecisionAndFailureBothReachable) {
  // With nondeterministic drops, some runs decide and some leave every
  // round undecided (consensus cannot be guaranteed, §5.2).
  PaxosParams Params{2, 3};
  Program P = makePaxosProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makePaxosInitialStore(Params)));
  bool Decided = false, Undecided = false;
  for (const Store &Final : R.TerminalStores) {
    if (paxosDecided(Final))
      Decided = true;
    else
      Undecided = true;
  }
  EXPECT_TRUE(Decided);
  EXPECT_TRUE(Undecided);
}

TEST(PaxosTest, LaterRoundLearnsEarlierDecision) {
  // If round 1 decided value 1, a deciding round 2 must also decide 1:
  // check no terminal store has decision[2] = 2 alongside decision[1] = 1,
  // but some store has both rounds deciding 1.
  PaxosParams Params{2, 3};
  Program P = makePaxosProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makePaxosInitialStore(Params)));
  bool BothDecideSame = false;
  for (const Store &Final : R.TerminalStores) {
    const Value &D1 = Final.get("decision").mapAt(Value::integer(1));
    const Value &D2 = Final.get("decision").mapAt(Value::integer(2));
    if (D1.isSome() && D2.isSome()) {
      EXPECT_EQ(D1.getSome().getInt(), D2.getSome().getInt());
      BothDecideSame = true;
    }
  }
  EXPECT_TRUE(BothDecideSame);
}

TEST(PaxosTest, ISIsAccepted) {
  PaxosParams Params{2, 3};
  ISApplication App = makePaxosIS(Params);
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(PaxosTest, SequentializedPaxosPreservesOutcomes) {
  // Two nodes keep this end-to-end test fast; quorums still intersect.
  PaxosParams Params{2, 2};
  ISApplication App = makePaxosIS(Params);
  ASSERT_TRUE(checkIS(App, {init(Params)}).ok());
  Program PPrime = applyIS(App);
  ExploreResult R = explore(
      PPrime, initialConfiguration(makePaxosInitialStore(Params)));
  EXPECT_EQ(R.Stats.NumConfigurations, 1u + R.TerminalStores.size())
      << "P' reaches every outcome in one atomic step";
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(checkPaxosSpec(Final, Params));
  EXPECT_TRUE(
      checkProgramRefinement(App.P, PPrime, {init(Params)}).ok());
}

TEST(PaxosTest, MissingProposeAbstractionRejected) {
  PaxosParams Params{2, 2};
  ISApplication App = makePaxosIS(Params);
  App.Abstractions.erase(Symbol::get("Propose"));
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_FALSE(Report.ok()) << Report.str();
}

TEST(PaxosTest, SingleRoundAlwaysConsistent) {
  PaxosParams Params{1, 3};
  ISApplication App = makePaxosIS(Params);
  EXPECT_TRUE(checkIS(App, {init(Params)}).ok());
}
