//===- tests/chang_roberts_test.cpp - Chang-Roberts tests ------------------------===//

#include "is/Sequentialize.h"
#include "protocols/ChangRoberts.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"
#include "reference/Rewriter.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::protocols;

namespace {
InitialCondition init(const ChangRobertsParams &Params) {
  return {makeChangRobertsInitialStore(Params), {}};
}
} // namespace

TEST(ChangRobertsTest, ElectsTheMaximumIdNode) {
  ChangRobertsParams Params{4, {3, 1, 4, 2}};
  EXPECT_EQ(Params.maxNode(), 3);
  Program P = makeChangRobertsProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeChangRobertsInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(checkChangRobertsSpec(Final, Params));
}

TEST(ChangRobertsTest, AllIdPermutationsOfThreeNodes) {
  std::vector<std::vector<int64_t>> Perms = {
      {1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}};
  for (const auto &Ids : Perms) {
    ChangRobertsParams Params{3, Ids};
    ExploreResult R = explore(
        makeChangRobertsProgram(Params),
        initialConfiguration(makeChangRobertsInitialStore(Params)));
    for (const Store &Final : R.TerminalStores)
      EXPECT_TRUE(checkChangRobertsSpec(Final, Params))
          << "ids " << Ids[0] << Ids[1] << Ids[2];
  }
}

TEST(ChangRobertsTest, IteratedProofTwoStages) {
  // Table 1 row: #IS = 2 (first Init, then Handle).
  ChangRobertsParams Params{3, {2, 3, 1}};
  ISApplication Stage1 = makeChangRobertsStage1IS(Params);
  ISCheckReport R1 = checkIS(Stage1, {init(Params)});
  EXPECT_TRUE(R1.ok()) << R1.str();

  Program After1 = applyIS(Stage1);
  ISApplication Stage2 = makeChangRobertsStage2IS(Params, After1);
  ISCheckReport R2 = checkIS(Stage2, {init(Params)});
  EXPECT_TRUE(R2.ok()) << R2.str();

  Program After2 = applyIS(Stage2);
  ExploreResult R = explore(
      After2, initialConfiguration(makeChangRobertsInitialStore(Params)));
  EXPECT_EQ(R.Stats.NumConfigurations, 2u);
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkChangRobertsSpec(R.TerminalStores[0], Params));
  EXPECT_TRUE(checkProgramRefinement(makeChangRobertsProgram(Params),
                                     After2, {init(Params)})
                  .ok());
}

TEST(ChangRobertsTest, OneShotProof) {
  ChangRobertsParams Params{3, {3, 1, 2}};
  ISApplication App = makeChangRobertsOneShotIS(Params);
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_TRUE(Report.ok()) << Report.str();
  EXPECT_TRUE(
      checkProgramRefinement(App.P, applyIS(App), {init(Params)}).ok());
}

TEST(ChangRobertsTest, FourNodeRing) {
  ChangRobertsParams Params{4, {2, 4, 1, 3}};
  ISApplication App = makeChangRobertsOneShotIS(Params);
  EXPECT_TRUE(checkIS(App, {init(Params)}).ok());
}

TEST(ChangRobertsTest, RewriterSequentializesConcurrentRuns) {
  ChangRobertsParams Params{3, {1, 3, 2}};
  ISApplication App = makeChangRobertsOneShotIS(Params);
  Configuration Init =
      initialConfiguration(makeChangRobertsInitialStore(Params));
  auto Execs = enumerateExecutions(App.P, Init, 300, 100);
  ASSERT_FALSE(Execs.empty());
  size_t Checked = 0;
  for (const Execution &Pi : Execs) {
    if (!Pi.isTerminating())
      continue;
    RewriteResult R = rewriteExecution(App, Pi);
    ASSERT_TRUE(R.Ok) << R.Error << "\nschedule: " << Pi.scheduleStr();
    EXPECT_EQ(R.Rewritten.finalConfiguration(), Pi.finalConfiguration());
    ++Checked;
  }
  EXPECT_GT(Checked, 5u);
}

TEST(ChangRobertsTest, MeasureDecreasesAlongExecutions) {
  ChangRobertsParams Params{3, {2, 1, 3}};
  ISApplication App = makeChangRobertsOneShotIS(Params);
  Configuration Init =
      initialConfiguration(makeChangRobertsInitialStore(Params));
  auto Execs = enumerateExecutions(App.P, Init, 50, 100);
  ASSERT_FALSE(Execs.empty());
  for (const Execution &Pi : Execs) {
    Configuration Prev = Pi.Initial;
    for (const ExecStep &Step : Pi.Steps) {
      if (Step.Executed.Action != Program::mainSymbol()) {
        EXPECT_TRUE(App.WfMeasure.decreases(Prev, Step.Successor))
            << Step.Executed.str();
      }
      Prev = Step.Successor;
    }
  }
}

TEST(ChangRobertsTest, SpecRejectsExtraLeaders) {
  ChangRobertsParams Params{3, {}};
  Store S = makeChangRobertsInitialStore(Params);
  EXPECT_FALSE(checkChangRobertsSpec(S, Params)) << "no leader yet";
  Value Leaders = S.get("leader")
                      .mapSet(Value::integer(3), Value::boolean(true));
  EXPECT_TRUE(checkChangRobertsSpec(S.set("leader", Leaders), Params));
  Value TwoLeaders =
      Leaders.mapSet(Value::integer(1), Value::boolean(true));
  EXPECT_FALSE(checkChangRobertsSpec(S.set("leader", TwoLeaders), Params));
}
