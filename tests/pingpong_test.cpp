//===- tests/pingpong_test.cpp - Ping-Pong protocol tests ------------------------===//

#include "is/Sequentialize.h"
#include "protocols/PingPong.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"
#include "reference/Rewriter.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::protocols;

namespace {
InitialCondition init(const PingPongParams &Params) {
  return {makePingPongInitialStore(Params), {}};
}
} // namespace

TEST(PingPongTest, ProtocolRunsToCompletion) {
  PingPongParams Params{3};
  Program P = makePingPongProgram(Params);
  ExploreResult R =
      explore(P, initialConfiguration(makePingPongInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkPingPongSpec(R.TerminalStores[0], Params));
}

TEST(PingPongTest, AssertionsCatchWrongAcknowledgments) {
  PingPongParams Params{2};
  Program Buggy = makeBuggyPingPongProgram(Params);
  ExploreResult R = explore(
      Buggy, initialConfiguration(makePingPongInitialStore(Params)));
  EXPECT_TRUE(R.FailureReachable)
      << "Ping's gate must reject the off-by-one acknowledgment";
}

TEST(PingPongTest, ISIsAccepted) {
  PingPongParams Params{3};
  ISApplication App = makePingPongIS(Params);
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(PingPongTest, SequentializationAlternates) {
  PingPongParams Params{3};
  ISApplication App = makePingPongIS(Params);
  Program PPrime = applyIS(App);
  ExploreResult R = explore(
      PPrime, initialConfiguration(makePingPongInitialStore(Params)));
  EXPECT_EQ(R.Stats.NumConfigurations, 2u);
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkPingPongSpec(R.TerminalStores[0], Params));
}

TEST(PingPongTest, RefinementHolds) {
  PingPongParams Params{2};
  ISApplication App = makePingPongIS(Params);
  ASSERT_TRUE(checkIS(App, {init(Params)}).ok());
  EXPECT_TRUE(
      checkProgramRefinement(App.P, applyIS(App), {init(Params)}).ok());
}

TEST(PingPongTest, RewriterHandlesAllExecutions) {
  PingPongParams Params{2};
  ISApplication App = makePingPongIS(Params);
  Configuration Init =
      initialConfiguration(makePingPongInitialStore(Params));
  auto Execs = enumerateExecutions(App.P, Init, 500, 100);
  ASSERT_FALSE(Execs.empty());
  for (const Execution &Pi : Execs) {
    ASSERT_TRUE(Pi.isTerminating()) << Pi.scheduleStr();
    RewriteResult R = rewriteExecution(App, Pi);
    ASSERT_TRUE(R.Ok) << R.Error << "\nschedule: " << Pi.scheduleStr();
    EXPECT_EQ(R.Rewritten.finalConfiguration(), Pi.finalConfiguration());
  }
}

TEST(PingPongTest, SingleRoundInstance) {
  PingPongParams Params{1};
  ISApplication App = makePingPongIS(Params);
  EXPECT_TRUE(checkIS(App, {init(Params)}).ok());
  ExploreResult R = explore(
      applyIS(App), initialConfiguration(makePingPongInitialStore(Params)));
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkPingPongSpec(R.TerminalStores[0], Params));
}

TEST(PingPongTest, MissingAbstractionRejected) {
  PingPongParams Params{2};
  ISApplication App = makePingPongIS(Params);
  App.Abstractions.erase(Symbol::get("Pong"));
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.LeftMovers.ok())
      << "the blocking receive must break non-blocking:\n"
      << Report.str();
}
