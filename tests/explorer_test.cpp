//===- tests/explorer_test.cpp - Explorer unit tests --------------------------===//

#include "TestPrograms.h"
#include "reference/Explorer.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

TEST(ExplorerTest, IncrementReachesUniqueTerminal) {
  Program P = makeIncrementProgram(3);
  ExploreResult R = explore(P, initialConfiguration(xStore(0)));
  EXPECT_FALSE(R.FailureReachable);
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_EQ(R.TerminalStores[0].get("x").getInt(), 3);
  // Configurations: init, after Main, x=1,2,3 with shrinking PA counts.
  EXPECT_EQ(R.Stats.NumConfigurations, 5u);
  EXPECT_TRUE(R.Deadlocks.empty());
}

TEST(ExplorerTest, FailureDetectionAndTrace) {
  Program P = makeConditionalFailProgram();
  ExploreResult R = explore(P, initialConfiguration(xStore(1)));
  EXPECT_TRUE(R.FailureReachable);
  ASSERT_TRUE(R.FailureTrace.has_value());
  EXPECT_TRUE(R.FailureTrace->isFailing());
  EXPECT_EQ(R.FailureTrace->Steps.size(), 2u) << "Main; Check -> FAIL";
  EXPECT_EQ(R.FailureTrace->Steps.back().Executed.str(), "Check()");
}

TEST(ExplorerTest, NoFailureFromGoodStore) {
  Program P = makeConditionalFailProgram();
  ExploreResult R = explore(P, initialConfiguration(xStore(0)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_FALSE(R.FailureTrace.has_value());
}

TEST(ExplorerTest, DeadlockDetection) {
  Program P = makeBlockingProgram();
  ExploreResult R = explore(P, initialConfiguration(xStore(0)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.TerminalStores.empty());
  ASSERT_EQ(R.Deadlocks.size(), 1u);
  EXPECT_TRUE(
      R.Deadlocks[0].pendingAsyncs().contains(PendingAsync("Recv", {})));
}

TEST(ExplorerTest, TruncationIsReported) {
  Program P = makeIncrementProgram(10);
  engine::EngineOptions Opts;
  Opts.MaxConfigurations = 3;
  ExploreResult R = explore(P, initialConfiguration(xStore(0)), Opts);
  EXPECT_TRUE(R.Stats.Truncated);
  EXPECT_EQ(R.Stats.NumConfigurations, 3u);
}

TEST(ExplorerTest, SummarizeComputesGoodAndTrans) {
  Program P = makeConditionalFailProgram();
  EXPECT_FALSE(summarize(P, xStore(5)).Good);
  ProgramSummary Ok = summarize(P, xStore(0));
  EXPECT_TRUE(Ok.Good);
  ASSERT_EQ(Ok.Trans.size(), 1u);
  EXPECT_EQ(Ok.Trans[0].get("x").getInt(), 0);
}

TEST(ExplorerTest, ExploreAllMergesRoots) {
  Program P = makeIncrementProgram(1);
  ExploreResult R = exploreAll(
      P, {initialConfiguration(xStore(0)), initialConfiguration(xStore(10))});
  ASSERT_EQ(R.TerminalStores.size(), 2u);
}

// --- Execution enumeration / sampling ---------------------------------------

TEST(TraceTest, EnumerateExecutionsCoversInterleavings) {
  Program P = makeIncrementProgram(2);
  auto Execs =
      enumerateExecutions(P, initialConfiguration(xStore(0)), 100, 100);
  // Two identical Inc PAs collapse to one scheduling choice per step:
  // exactly one maximal schedule Main; Inc; Inc.
  ASSERT_EQ(Execs.size(), 1u);
  EXPECT_TRUE(Execs[0].isTerminating());
  EXPECT_EQ(Execs[0].scheduleStr(), "Main(); Inc(); Inc()");
  EXPECT_TRUE(Execs[0].isValid(P));
}

TEST(TraceTest, ExecutionValidationCatchesCorruption) {
  Program P = makeIncrementProgram(1);
  auto Execs =
      enumerateExecutions(P, initialConfiguration(xStore(0)), 10, 10);
  ASSERT_FALSE(Execs.empty());
  Execution E = Execs[0];
  ASSERT_TRUE(E.isValid(P));
  // Corrupt the final store.
  Execution Bad = E;
  Bad.Steps.back().Successor =
      Bad.Steps.back().Successor.withGlobal(xStore(42));
  EXPECT_FALSE(Bad.isValid(P));
}

TEST(TraceTest, SampleExecutionTerminates) {
  Program P = makeIncrementProgram(3);
  Rng R(7);
  auto E = sampleExecution(P, initialConfiguration(xStore(0)), R, 100);
  ASSERT_TRUE(E.has_value());
  EXPECT_TRUE(E->isTerminating());
  EXPECT_EQ(E->finalConfiguration().global().get("x").getInt(), 3);
}

TEST(TraceTest, SampleExecutionReportsDeadlockAsNullopt) {
  Program P = makeBlockingProgram();
  Rng R(7);
  auto E = sampleExecution(P, initialConfiguration(xStore(0)), R, 100);
  EXPECT_FALSE(E.has_value());
}
