//===- tests/rewriter_test.cpp - Execution rewriter tests (Lemma 4.3) -----------===//

#include "TestPrograms.h"
#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "protocols/Measures.h"
#include "reference/Rewriter.h"
#include "reference/Trace.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

namespace {

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

} // namespace

TEST(RewriterTest, RewritesEveryTerminatingIncrementExecution) {
  ISApplication App = makeIncrementIS(3);
  auto Execs = enumerateExecutions(App.P, initialConfiguration(xStore(0)),
                                   1000, 100);
  ASSERT_FALSE(Execs.empty());
  for (const Execution &Pi : Execs) {
    ASSERT_TRUE(Pi.isTerminating());
    RewriteResult R = rewriteExecution(App, Pi);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Rewritten.finalConfiguration(), Pi.finalConfiguration());
    EXPECT_EQ(R.NumAbsorptions, 3u) << "one absorption per Inc PA";
    // The rewritten execution is a single M' step (everything absorbed).
    EXPECT_EQ(R.Rewritten.Steps.size(), 1u);
  }
}

TEST(RewriterTest, RewritesBroadcastExecutions) {
  using namespace isq::protocols;
  BroadcastParams Params{2, {}};
  ISApplication App = makeBroadcastIS(Params);
  Configuration Init =
      initialConfiguration(makeBroadcastInitialStore(Params));
  auto Execs = enumerateExecutions(App.P, Init, 2000, 100);
  ASSERT_FALSE(Execs.empty());
  size_t Terminating = 0;
  for (const Execution &Pi : Execs) {
    if (!Pi.isTerminating())
      continue;
    ++Terminating;
    RewriteResult R = rewriteExecution(App, Pi);
    ASSERT_TRUE(R.Ok) << R.Error << "\nschedule: " << Pi.scheduleStr();
    EXPECT_EQ(R.Rewritten.finalConfiguration(), Pi.finalConfiguration());
    EXPECT_EQ(R.NumAbsorptions, 4u) << "2 Broadcasts + 2 Collects";
  }
  EXPECT_GT(Terminating, 1u) << "multiple interleavings were exercised";
}

TEST(RewriterTest, StageLogRecordsFigure2Shape) {
  ISApplication App = makeIncrementIS(2);
  auto Execs = enumerateExecutions(App.P, initialConfiguration(xStore(0)),
                                   10, 100);
  ASSERT_FALSE(Execs.empty());
  RewriteResult R = rewriteExecution(App, Execs[0], /*LogStages=*/true);
  ASSERT_TRUE(R.Ok) << R.Error;
  // start, then (commuted, absorbed) per eliminated PA.
  EXPECT_EQ(R.Stages.size(), 1u + 2u * R.NumAbsorptions);
  EXPECT_NE(R.Stages.front().find("start"), std::string::npos);
  EXPECT_NE(R.Stages.back().find("absorbed"), std::string::npos);
}

TEST(RewriterTest, RejectsExecutionsNotStartingWithM) {
  ISApplication App = makeIncrementIS(2);
  Execution Empty;
  Empty.Initial = initialConfiguration(xStore(0));
  RewriteResult R = rewriteExecution(App, Empty);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("does not start"), std::string::npos);
}

TEST(RewriterTest, RejectsNonTerminatingExecutions) {
  ISApplication App = makeIncrementIS(2);
  auto Execs = enumerateExecutions(App.P, initialConfiguration(xStore(0)),
                                   10, 100);
  ASSERT_FALSE(Execs.empty());
  Execution Prefix = Execs[0];
  Prefix.Steps.pop_back(); // now ends with PAs left
  RewriteResult R = rewriteExecution(App, Prefix);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("terminating"), std::string::npos);
}

TEST(RewriterTest, CommuteCountMatchesDisplacement) {
  // Schedule Main; Inc; Inc (only interleaving for identical PAs): the
  // chosen PA is always already at the front, so zero commutes.
  ISApplication App = makeIncrementIS(2);
  auto Execs = enumerateExecutions(App.P, initialConfiguration(xStore(0)),
                                   10, 100);
  ASSERT_EQ(Execs.size(), 1u);
  RewriteResult R = rewriteExecution(App, Execs[0]);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.NumCommutes, 0u);
}
