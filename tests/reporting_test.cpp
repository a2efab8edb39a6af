//===- tests/reporting_test.cpp - Diagnostics and rendering tests -------------------===//
///
/// \file
/// The human-facing surfaces: configuration/transition/execution
/// rendering, the per-condition IS report (including its failure shape),
/// and the counterexample diagnostics the checkers produce — §5.1's
/// "targeted error messages for failed checks".
///
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "protocols/Broadcast.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

TEST(ReportingTest, ConfigurationRendering) {
  PaMultiset Omega;
  Omega.insert(PendingAsync("Work", {Value::integer(2)}));
  Omega.insert(PendingAsync("Work", {Value::integer(2)}));
  Configuration C(xStore(7), Omega);
  std::string S = C.str();
  EXPECT_NE(S.find("x = 7"), std::string::npos) << S;
  EXPECT_NE(S.find("Work(2):x2"), std::string::npos) << S;
}

TEST(ReportingTest, TransitionRendering) {
  Transition T(xStore(1), {PendingAsync("Next", {})});
  std::string S = T.str();
  EXPECT_NE(S.find("x = 1"), std::string::npos) << S;
  EXPECT_NE(S.find("Next()"), std::string::npos) << S;
}

TEST(ReportingTest, ExecutionRendering) {
  Program P = makeIncrementProgram(2);
  auto Execs =
      enumerateExecutions(P, initialConfiguration(xStore(0)), 10, 10);
  ASSERT_FALSE(Execs.empty());
  const Execution &E = Execs[0];
  EXPECT_EQ(E.scheduleStr(), "Main(); Inc(); Inc()");
  std::string Verbose = E.str();
  EXPECT_NE(Verbose.find("--[Main()]-->"), std::string::npos) << Verbose;
  EXPECT_NE(Verbose.find("x = 2"), std::string::npos) << Verbose;
}

TEST(ReportingTest, FailureTraceEndsInFail) {
  Program P = makeConditionalFailProgram();
  ExploreResult R = explore(P, initialConfiguration(xStore(3)));
  ASSERT_TRUE(R.FailureTrace.has_value());
  std::string S = R.FailureTrace->str();
  EXPECT_NE(S.find("FAIL"), std::string::npos) << S;
}

TEST(ReportingTest, AcceptedReportShape) {
  using namespace isq::protocols;
  BroadcastParams Params{2, {}};
  ISApplication App = makeBroadcastIS(Params);
  ISCheckReport Report =
      checkIS(App, {{makeBroadcastInitialStore(Params), {}}});
  std::string S = Report.str();
  EXPECT_NE(S.find("=> ACCEPTED"), std::string::npos) << S;
  EXPECT_NE(S.find("(I3) induction"), std::string::npos) << S;
  EXPECT_NE(S.find("(CO) cooperation"), std::string::npos) << S;
  // Every condition line reports its obligation count.
  EXPECT_NE(S.find("obligations"), std::string::npos) << S;
}

TEST(ReportingTest, RejectedReportNamesTheFailingCondition) {
  using namespace isq::protocols;
  BroadcastParams Params{2, {}};
  ISApplication App = makeBroadcastIS(Params);
  App.Abstractions.clear(); // Collect's blocking receive breaks (LM)
  ISCheckReport Report =
      checkIS(App, {{makeBroadcastInitialStore(Params), {}}});
  std::string S = Report.str();
  EXPECT_NE(S.find("=> REJECTED"), std::string::npos) << S;
  EXPECT_NE(S.find("non-blocking violated"), std::string::npos)
      << "the diagnostic points at the precise mover condition:\n" << S;
  EXPECT_NE(S.find("Collect("), std::string::npos)
      << "the diagnostic names the offending pending async:\n" << S;
}

TEST(ReportingTest, InductionFailureNamesTheContext) {
  using namespace isq::protocols;
  // Wrong elimination order: the CollectAbs gate cannot be discharged.
  BroadcastParams Params{2, {}};
  ISApplication App = makeBroadcastIS(Params);
  App.Choice = ISApplication::chooseInOrder(
      {Symbol::get("Collect"), Symbol::get("Broadcast")});
  ISCheckReport Report =
      checkIS(App, {{makeBroadcastInitialStore(Params), {}}});
  std::string S = Report.InductiveStep.str();
  EXPECT_NE(S.find("gate of α(Collect)"), std::string::npos) << S;
  EXPECT_NE(S.find("store="), std::string::npos)
      << "counterexample store included:\n" << S;
}

TEST(ReportingTest, ObligationTotalsAggregate) {
  using namespace isq::protocols;
  BroadcastParams Params{2, {}};
  ISApplication App = makeBroadcastIS(Params);
  ISCheckReport Report =
      checkIS(App, {{makeBroadcastInitialStore(Params), {}}});
  size_t Sum = Report.SideConditions.obligations() +
               Report.AbstractionRefinement.obligations() +
               Report.BaseCase.obligations() +
               Report.Conclusion.obligations() +
               Report.InductiveStep.obligations() +
               Report.LeftMovers.obligations() +
               Report.Cooperation.obligations();
  EXPECT_EQ(Report.totalObligations(), Sum);
  EXPECT_GT(Sum, 0u);
}
