//===- tests/two_phase_commit_test.cpp - 2PC tests --------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::protocols;

namespace {

InitialCondition init(const TwoPhaseCommitParams &Params) {
  return {makeTwoPhaseCommitInitialStore(Params), {}};
}

Program runAllStages(const TwoPhaseCommitParams &Params) {
  Program Current = makeTwoPhaseCommitProgram(Params);
  for (size_t Stage = 0; Stage < kTwoPhaseCommitStages; ++Stage) {
    ISApplication App = makeTwoPhaseCommitStageIS(Params, Stage, Current);
    ISCheckReport Report = checkIS(App, {init(Params)});
    EXPECT_TRUE(Report.ok()) << "stage " << Stage << ":\n" << Report.str();
    Current = applyIS(App);
  }
  return Current;
}

} // namespace

TEST(TwoPhaseCommitTest, AgreementAndCommitValidity) {
  TwoPhaseCommitParams Params{3};
  Program P = makeTwoPhaseCommitProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeTwoPhaseCommitInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(checkTwoPhaseCommitSpec(Final, Params));
}

TEST(TwoPhaseCommitTest, BothOutcomesReachable) {
  TwoPhaseCommitParams Params{2};
  Program P = makeTwoPhaseCommitProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeTwoPhaseCommitInitialStore(Params)));
  bool Committed = false, Aborted = false;
  for (const Store &Final : R.TerminalStores) {
    if (Final.get("decision").getSome().getBool())
      Committed = true;
    else
      Aborted = true;
  }
  EXPECT_TRUE(Committed);
  EXPECT_TRUE(Aborted);
}

TEST(TwoPhaseCommitTest, EarlyAbortLeavesVotesInFlight) {
  // The early-abort optimization: after an abort decision, the unread yes
  // votes remain in voteCh in some terminal store.
  TwoPhaseCommitParams Params{2};
  Program P = makeTwoPhaseCommitProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeTwoPhaseCommitInitialStore(Params)));
  bool LeftoverSeen = false;
  for (const Store &Final : R.TerminalStores)
    if (Final.get("voteCh").bagSize() > 0)
      LeftoverSeen = true;
  EXPECT_TRUE(LeftoverSeen);
}

TEST(TwoPhaseCommitTest, DecisionCanOvertakeRequest) {
  // The paper's optimization: a participant may finalize before
  // processing its own vote request. Witness: a reachable configuration
  // where some finalized[i] is set while reqCh[i] still holds the request.
  TwoPhaseCommitParams Params{2};
  Program P = makeTwoPhaseCommitProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeTwoPhaseCommitInitialStore(Params)));
  bool Witness = false;
  for (const Configuration &C : R.Reachable) {
    const Store &G = C.global();
    for (int64_t I = 1; I <= 2 && !Witness; ++I) {
      Value Idx = Value::integer(I);
      if (G.get("finalized").mapAt(Idx).isSome() &&
          G.get("reqCh").mapAt(Idx).bagSize() > 0)
        Witness = true;
    }
  }
  EXPECT_TRUE(Witness);
}

TEST(TwoPhaseCommitTest, FourStageIteratedProofIsAccepted) {
  TwoPhaseCommitParams Params{2};
  Program Final = runAllStages(Params);
  ExploreResult R = explore(
      Final,
      initialConfiguration(makeTwoPhaseCommitInitialStore(Params)));
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &FinalStore : R.TerminalStores)
    EXPECT_TRUE(checkTwoPhaseCommitSpec(FinalStore, Params));
  EXPECT_TRUE(checkProgramRefinement(makeTwoPhaseCommitProgram(Params),
                                     Final, {init(Params)})
                  .ok());
}

TEST(TwoPhaseCommitTest, ThreeParticipantStages) {
  TwoPhaseCommitParams Params{3};
  runAllStages(Params);
}

TEST(TwoPhaseCommitTest, OneShotProofIsAccepted) {
  TwoPhaseCommitParams Params{2};
  ISApplication App = makeTwoPhaseCommitOneShotIS(Params);
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_TRUE(Report.ok()) << Report.str();
  EXPECT_TRUE(
      checkProgramRefinement(App.P, applyIS(App), {init(Params)}).ok());
}

TEST(TwoPhaseCommitTest, MissingDecideAbstractionRejectedOneShot) {
  TwoPhaseCommitParams Params{2};
  ISApplication App = makeTwoPhaseCommitOneShotIS(Params);
  App.Abstractions.erase(Symbol::get("Decide"));
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_FALSE(Report.ok()) << Report.str();
}

TEST(TwoPhaseCommitTest, SpecRejectsDisagreement) {
  TwoPhaseCommitParams Params{2};
  Store S = makeTwoPhaseCommitInitialStore(Params);
  EXPECT_FALSE(checkTwoPhaseCommitSpec(S, Params)) << "no decision";
  Store Decided =
      S.set("decision", Value::some(Value::boolean(false)))
          .set("finalized",
               Value::map({{Value::integer(1),
                            Value::some(Value::boolean(false))},
                           {Value::integer(2),
                            Value::some(Value::boolean(true))}}));
  EXPECT_FALSE(checkTwoPhaseCommitSpec(Decided, Params));
}
