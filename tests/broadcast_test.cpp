//===- tests/broadcast_test.cpp - Broadcast consensus (Fig. 1) tests -------------===//

#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::protocols;

namespace {

InitialCondition init(const BroadcastParams &Params) {
  return {makeBroadcastInitialStore(Params), {}};
}

} // namespace

TEST(BroadcastTest, ProtocolTerminatesWithAgreement) {
  BroadcastParams Params{3, {5, 9, 2}};
  Program P = makeBroadcastProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makeBroadcastInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(checkBroadcastSpec(Final, Params));
}

TEST(BroadcastTest, CollectBlocksUntilChannelFull) {
  BroadcastParams Params{2, {}};
  Program P = makeBroadcastProgram(Params);
  Configuration C0 =
      initialConfiguration(makeBroadcastInitialStore(Params));
  Configuration C1 = stepPendingAsync(P, C0, PendingAsync("Main", {}))[0];
  // Collect(1) is blocked: only one message would be present even after
  // one broadcast; with none it is certainly blocked.
  EXPECT_TRUE(
      stepPendingAsync(P, C1, PendingAsync("Collect", {Value::integer(1)}))
          .empty());
}

TEST(BroadcastTest, OneShotISIsAccepted) {
  BroadcastParams Params{3, {}};
  ISApplication App = makeBroadcastIS(Params);
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(BroadcastTest, OneShotISWithDistinctValues) {
  BroadcastParams Params{3, {7, 3, 11}};
  ISApplication App = makeBroadcastIS(Params);
  EXPECT_TRUE(checkIS(App, {init(Params)}).ok());
}

TEST(BroadcastTest, SequentializedProgramHasSingleSchedule) {
  BroadcastParams Params{3, {}};
  ISApplication App = makeBroadcastIS(Params);
  Program PPrime = applyIS(App);
  ExploreResult R = explore(
      PPrime, initialConfiguration(makeBroadcastInitialStore(Params)));
  EXPECT_EQ(R.Stats.NumConfigurations, 2u)
      << "Main' reaches the final state in one atomic step";
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkBroadcastSpec(R.TerminalStores[0], Params));
}

TEST(BroadcastTest, FormalGuaranteePRefinesPPrime) {
  BroadcastParams Params{2, {4, 6}};
  ISApplication App = makeBroadcastIS(Params);
  ASSERT_TRUE(checkIS(App, {init(Params)}).ok());
  EXPECT_TRUE(
      checkProgramRefinement(App.P, applyIS(App), {init(Params)}).ok());
}

TEST(BroadcastTest, IteratedProofMatchesPaperSection53) {
  // §5.3: first eliminate Broadcast, then Collect — 2 IS applications,
  // where the second CollectAbs needs no pending-Broadcast gate.
  BroadcastParams Params{3, {}};
  ISApplication Stage1 = makeBroadcastStage1IS(Params);
  ISCheckReport R1 = checkIS(Stage1, {init(Params)});
  EXPECT_TRUE(R1.ok()) << R1.str();

  Program After1 = applyIS(Stage1);
  ISApplication Stage2 = makeBroadcastStage2IS(Params, After1);
  ISCheckReport R2 = checkIS(Stage2, {init(Params)});
  EXPECT_TRUE(R2.ok()) << R2.str();

  Program After2 = applyIS(Stage2);
  ExploreResult R = explore(
      After2, initialConfiguration(makeBroadcastInitialStore(Params)));
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkBroadcastSpec(R.TerminalStores[0], Params));
  // End-to-end: the original program refines the fully sequentialized one.
  EXPECT_TRUE(checkProgramRefinement(makeBroadcastProgram(Params), After2,
                                     {init(Params)})
                  .ok());
}

TEST(BroadcastTest, MissingAbstractionIsRejected) {
  // Without CollectAbs, Collect is not a left mover (blocking receive),
  // so (LM) must fail.
  BroadcastParams Params{2, {}};
  ISApplication App = makeBroadcastIS(Params);
  App.Abstractions.clear();
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.LeftMovers.ok()) << Report.str();
}

TEST(BroadcastTest, WrongChoiceOrderIsRejected) {
  // Eliminating Collect before Broadcast violates the inductive step: the
  // gate of CollectAbs does not hold while Broadcasts are pending.
  BroadcastParams Params{2, {}};
  ISApplication App = makeBroadcastIS(Params);
  App.Choice = ISApplication::chooseInOrder(
      {Symbol::get("Collect"), Symbol::get("Broadcast")});
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.InductiveStep.ok()) << Report.str();
}

TEST(BroadcastTest, SpecPredicateDetectsDisagreement) {
  BroadcastParams Params{2, {1, 2}};
  Store Bad = makeBroadcastInitialStore(Params);
  EXPECT_FALSE(checkBroadcastSpec(Bad, Params)) << "undecided nodes";
  Value D = Bad.get("decision")
                .mapSet(Value::integer(1), Value::some(Value::integer(2)))
                .mapSet(Value::integer(2), Value::some(Value::integer(1)));
  EXPECT_FALSE(checkBroadcastSpec(Bad.set("decision", D), Params));
  Value Good = Bad.get("decision")
                   .mapSet(Value::integer(1), Value::some(Value::integer(2)))
                   .mapSet(Value::integer(2), Value::some(Value::integer(2)));
  EXPECT_TRUE(checkBroadcastSpec(Bad.set("decision", Good), Params));
}

TEST(BroadcastTest, ScalesToFourNodes) {
  BroadcastParams Params{4, {}};
  ISApplication App = makeBroadcastIS(Params);
  EXPECT_TRUE(checkIS(App, {init(Params)}).ok());
}
