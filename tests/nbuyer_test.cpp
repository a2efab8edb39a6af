//===- tests/nbuyer_test.cpp - N-Buyer protocol tests -----------------------------===//

#include "is/Sequentialize.h"
#include "protocols/NBuyer.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::protocols;

namespace {

InitialCondition init(const NBuyerParams &Params) {
  return {makeNBuyerInitialStore(Params), {}};
}

/// Runs all four IS stages; returns the fully sequentialized program.
Program runAllStages(const NBuyerParams &Params, bool &AllAccepted) {
  Program Current = makeNBuyerProgram(Params);
  AllAccepted = true;
  for (size_t Stage = 0; Stage < kNBuyerStages; ++Stage) {
    ISApplication App = makeNBuyerStageIS(Params, Stage, Current);
    ISCheckReport Report = checkIS(App, {init(Params)});
    EXPECT_TRUE(Report.ok()) << "stage " << Stage << ":\n" << Report.str();
    AllAccepted = AllAccepted && Report.ok();
    Current = applyIS(App);
  }
  return Current;
}

} // namespace

TEST(NBuyerTest, ProtocolTerminatesAndSatisfiesSpec) {
  NBuyerParams Params{3, 2, {0, 1}};
  Program P = makeNBuyerProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makeNBuyerInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(checkNBuyerSpec(Final, Params));
}

TEST(NBuyerTest, BothOrderOutcomesAreReachable) {
  // With choices {0,1} and price 2, some runs place an order (sum >= 2)
  // and some do not (sum < 2).
  NBuyerParams Params{3, 2, {0, 1}};
  Program P = makeNBuyerProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makeNBuyerInitialStore(Params)));
  bool Placed = false, NotPlaced = false;
  for (const Store &Final : R.TerminalStores) {
    if (Final.get("order").isSome())
      Placed = true;
    else
      NotPlaced = true;
  }
  EXPECT_TRUE(Placed);
  EXPECT_TRUE(NotPlaced);
}

TEST(NBuyerTest, FourStageIteratedProofIsAccepted) {
  NBuyerParams Params{3, 2, {0, 1}};
  bool AllAccepted = false;
  Program Final = runAllStages(Params, AllAccepted);
  ASSERT_TRUE(AllAccepted);

  // The fully sequentialized program preserves all outcomes.
  ExploreResult R = explore(
      Final, initialConfiguration(makeNBuyerInitialStore(Params)));
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &FinalStore : R.TerminalStores)
    EXPECT_TRUE(checkNBuyerSpec(FinalStore, Params));
  EXPECT_TRUE(checkProgramRefinement(makeNBuyerProgram(Params), Final,
                                     {init(Params)})
                  .ok());
}

TEST(NBuyerTest, SequentializationPreservesEveryTerminalStore) {
  NBuyerParams Params{2, 1, {0, 1}};
  bool AllAccepted = false;
  Program Final = runAllStages(Params, AllAccepted);
  ASSERT_TRUE(AllAccepted);
  ProgramSummary SP =
      summarize(makeNBuyerProgram(Params), makeNBuyerInitialStore(Params));
  ProgramSummary SS = summarize(Final, makeNBuyerInitialStore(Params));
  EXPECT_TRUE(SP.Good);
  EXPECT_TRUE(SS.Good);
  // Same set of outcomes in both directions (IS guarantees ⊆; equality
  // holds here because the sequentialization loses no nondeterminism).
  EXPECT_EQ(SP.Trans.size(), SS.Trans.size());
}

TEST(NBuyerTest, ExactCoverPlacesOrder) {
  NBuyerParams Params{2, 2, {1}};
  Program P = makeNBuyerProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makeNBuyerInitialStore(Params)));
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  const Value &Order = R.TerminalStores[0].get("order");
  ASSERT_TRUE(Order.isSome());
  EXPECT_EQ(Order.getSome().getInt(), 2);
}

TEST(NBuyerTest, OneShotProofIsAccepted) {
  NBuyerParams Params{2, 1, {0, 1}};
  ISApplication App = makeNBuyerOneShotIS(Params);
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_TRUE(Report.ok()) << Report.str();
  EXPECT_TRUE(
      checkProgramRefinement(App.P, applyIS(App), {init(Params)}).ok());
}

TEST(NBuyerTest, MissingPlaceAbstractionRejected) {
  // In the one-shot proof, Place genuinely co-pends with the Contributes
  // and blocks until all report: dropping its abstraction violates the
  // non-blocking half of (LM).
  NBuyerParams Params{2, 1, {0, 1}};
  ISApplication App = makeNBuyerOneShotIS(Params);
  App.Abstractions.clear();
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.LeftMovers.ok()) << Report.str();
}

TEST(NBuyerTest, StagedProofNeedsNoBlockingAbstractions) {
  // §5.3's point about iterated IS: each fused Main pre-feeds the next
  // phase's receive, so the staged proof goes through even without the
  // gate-strengthening abstractions.
  NBuyerParams Params{2, 1, {0, 1}};
  Program Current = makeNBuyerProgram(Params);
  for (size_t Stage = 0; Stage < kNBuyerStages; ++Stage) {
    ISApplication App = makeNBuyerStageIS(Params, Stage, Current);
    App.Abstractions.clear();
    ISCheckReport Report = checkIS(App, {init(Params)});
    EXPECT_TRUE(Report.ok()) << "stage " << Stage << ":\n" << Report.str();
    Current = applyIS(App);
  }
}
