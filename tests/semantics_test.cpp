//===- tests/semantics_test.cpp - Action/Program semantics tests -------------===//

#include "TestPrograms.h"
#include "reference/Trace.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

TEST(ActionTest, GateAndTransitions) {
  Action Inc = updateX("IncUnit", [](int64_t X) { return X + 1; });
  EXPECT_EQ(Inc.arity(), 0u);
  EXPECT_TRUE(Inc.evalGate(xStore(0), {}, PaMultiset()));
  auto Ts = Inc.transitions(xStore(4), {});
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Global.get("x").getInt(), 5);
  EXPECT_TRUE(Ts[0].Created.empty());
}

TEST(ActionTest, WithNameKeepsBehavior) {
  Action Inc = updateX("IncOrig", [](int64_t X) { return X + 1; });
  Action Renamed = Inc.withName("IncCopy");
  EXPECT_EQ(Renamed.name().str(), "IncCopy");
  EXPECT_EQ(Renamed.transitions(xStore(1), {})[0].Global.get("x").getInt(),
            2);
}

TEST(ProgramTest, ActionLookupAndSubstitution) {
  Program P = makeIncrementProgram(2);
  EXPECT_TRUE(P.hasMain());
  EXPECT_TRUE(P.hasAction("Inc"));
  EXPECT_FALSE(P.hasAction("Nonexistent"));
  EXPECT_EQ(P.actionNames().size(), 2u);

  // P[Inc ↦ dec] replaces behavior under the same name.
  Program P2 =
      P.withAction(updateX("Inc", [](int64_t X) { return X - 1; }));
  Configuration C(xStore(0), [] {
    PaMultiset O;
    O.insert(PendingAsync("Inc", {}));
    return O;
  }());
  auto Succs = stepPendingAsync(P2, C, PendingAsync("Inc", {}));
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0].global().get("x").getInt(), -1);
}

TEST(SemanticsTest, InitialConfiguration) {
  Configuration C = initialConfiguration(xStore(0));
  EXPECT_EQ(C.pendingAsyncs().size(), 1u);
  EXPECT_TRUE(C.pendingAsyncs().contains(
      PendingAsync(Program::mainSymbol(), {})));
}

TEST(SemanticsTest, StepExecutesAndCreates) {
  Program P = makeIncrementProgram(3);
  Configuration C0 = initialConfiguration(xStore(0));
  auto Succs = stepPendingAsync(P, C0, PendingAsync("Main", {}));
  ASSERT_EQ(Succs.size(), 1u);
  const Configuration &C1 = Succs[0];
  EXPECT_EQ(C1.pendingAsyncs().size(), 3u);
  EXPECT_EQ(C1.pendingAsyncs().count(PendingAsync("Inc", {})), 3u);
}

TEST(SemanticsTest, GateFailureYieldsFailureConfiguration) {
  Program P = makeConditionalFailProgram();
  Configuration C0 = initialConfiguration(xStore(7));
  auto AfterMain = stepPendingAsync(P, C0, PendingAsync("Main", {}));
  ASSERT_EQ(AfterMain.size(), 1u);
  auto AfterCheck =
      stepPendingAsync(P, AfterMain[0], PendingAsync("Check", {}));
  ASSERT_EQ(AfterCheck.size(), 1u);
  EXPECT_TRUE(AfterCheck[0].isFailure());
}

TEST(SemanticsTest, BlockedActionHasNoSuccessors) {
  Program P = makeBlockingProgram();
  Configuration C0 = initialConfiguration(xStore(0));
  auto AfterMain = stepPendingAsync(P, C0, PendingAsync("Main", {}));
  ASSERT_EQ(AfterMain.size(), 1u);
  EXPECT_TRUE(successors(P, AfterMain[0]).empty());
  EXPECT_TRUE(hasBlockedPendingAsync(P, AfterMain[0]));
}

TEST(SemanticsTest, SuccessorsEnumerateAllSchedulablePas) {
  Program P = makeIncrementProgram(2);
  Configuration C0 = initialConfiguration(xStore(0));
  auto AfterMain = stepPendingAsync(P, C0, PendingAsync("Main", {}));
  // Two identical Inc PAs: scheduling either is symmetric, one entry.
  auto Succs = successors(P, AfterMain[0]);
  ASSERT_EQ(Succs.size(), 1u);
  EXPECT_EQ(Succs[0].global().get("x").getInt(), 1);
  EXPECT_EQ(Succs[0].pendingAsyncs().size(), 1u);
}

TEST(SemanticsTest, OmegaObservingGate) {
  // A gate that requires a Helper PA to be pending (CIVL mirror style).
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       Transition T(G);
                       T.Created.emplace_back("Guarded",
                                              std::vector<Value>{});
                       T.Created.emplace_back("Helper",
                                              std::vector<Value>{});
                       return std::vector<Transition>{std::move(T)};
                     }));
  P.addAction(Action("Guarded", 0,
                     [](const GateContext &Ctx) {
                       return Ctx.Omega.contains(
                           PendingAsync("Helper", {}));
                     },
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     },
                     /*GateReadsOmega=*/true));
  P.addAction(Action("Helper", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  Configuration C0 = initialConfiguration(xStore(0));
  auto C1 = stepPendingAsync(P, C0, PendingAsync("Main", {}))[0];
  // Guarded succeeds while Helper is pending.
  auto G1 = stepPendingAsync(P, C1, PendingAsync("Guarded", {}));
  ASSERT_EQ(G1.size(), 1u);
  EXPECT_FALSE(G1[0].isFailure());
  // After Helper runs, Guarded's gate fails.
  auto H1 = stepPendingAsync(P, C1, PendingAsync("Helper", {}));
  auto G2 = stepPendingAsync(P, H1[0], PendingAsync("Guarded", {}));
  ASSERT_EQ(G2.size(), 1u);
  EXPECT_TRUE(G2[0].isFailure());
}
