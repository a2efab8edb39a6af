//===- tests/refine_test.cpp - Refinement checker unit tests -------------------===//

#include "TestPrograms.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

namespace {

/// A universe of contexts over stores x ∈ [Lo, Hi] with empty Ω.
ContextUniverse xUniverse(int64_t Lo, int64_t Hi) {
  ContextUniverse U;
  for (int64_t X = Lo; X <= Hi; ++X)
    U.push_back({xStore(X), {}, PaMultiset()});
  return U;
}

/// x := x + 1, with a gate requiring x >= MinX.
Action incWithGate(const std::string &Name, int64_t MinX) {
  return Action(Name, 0,
                [MinX](const GateContext &Ctx) {
                  return Ctx.Global.get("x").getInt() >= MinX;
                },
                [](const Store &G, const std::vector<Value> &) {
                  int64_t X = G.get("x").getInt();
                  return std::vector<Transition>{
                      Transition(G.set("x", iv(X + 1)))};
                });
}

/// Nondeterministic x := x + 1 or x := x + 2.
Action incNondet(const std::string &Name) {
  return Action(Name, 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  int64_t X = G.get("x").getInt();
                  return std::vector<Transition>{
                      Transition(G.set("x", iv(X + 1))),
                      Transition(G.set("x", iv(X + 2)))};
                });
}

} // namespace

TEST(ActionRefinementTest, Reflexive) {
  Action A = incWithGate("ReflA", 0);
  EXPECT_TRUE(checkActionRefinement(A, A, xUniverse(-3, 3)).ok());
}

TEST(ActionRefinementTest, NondetAbstractsDet) {
  // The deterministic +1 refines the nondeterministic +1/+2.
  Action Det = updateX("DetInc", [](int64_t X) { return X + 1; });
  Action Nondet = incNondet("NondetInc");
  EXPECT_TRUE(checkActionRefinement(Det, Nondet, xUniverse(0, 5)).ok());
  // The reverse fails: +2 is not simulated by the deterministic action.
  CheckResult R = checkActionRefinement(Nondet, Det, xUniverse(0, 5));
  EXPECT_FALSE(R.ok());
  EXPECT_GT(R.failures(), 0u);
}

TEST(ActionRefinementTest, AbstractionMayFailMoreOften) {
  // a2's gate is stronger (fails more often): allowed by Definition 3.1.
  Action Concrete = incWithGate("ConcreteInc", INT64_MIN);
  Action Abstract = incWithGate("AbstractInc", 0);
  EXPECT_TRUE(
      checkActionRefinement(Concrete, Abstract, xUniverse(-3, 3)).ok());
  // The reverse direction violates gate inclusion: ρ2 ⊄ ρ1.
  CheckResult R =
      checkActionRefinement(Abstract, Concrete, xUniverse(-3, 3));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("gate inclusion"), std::string::npos) << R.str();
}

TEST(ActionRefinementTest, TransitionsOutsideAbstractGateUnconstrained) {
  // Where the abstract gate is false, concrete transitions are ignored.
  Action Concrete = updateX("WildInc", [](int64_t X) { return X + 100; });
  Action Abstract = incWithGate("NarrowInc", 1000);
  EXPECT_TRUE(
      checkActionRefinement(Concrete, Abstract, xUniverse(-3, 3)).ok());
}

TEST(ActionRefinementTest, CountsObligations) {
  Action A = incWithGate("CountA", 0);
  CheckResult R = checkActionRefinement(A, A, xUniverse(0, 4));
  // 5 gate obligations + 5 transition obligations.
  EXPECT_EQ(R.obligations(), 10u);
}

TEST(CollectContextsTest, ExtractsPerPaContexts) {
  std::vector<Configuration> Configs;
  PaMultiset O1;
  O1.insert(PendingAsync("A", {iv(1)}));
  O1.insert(PendingAsync("A", {iv(2)}));
  O1.insert(PendingAsync("B", {}));
  Configs.emplace_back(xStore(0), O1);
  ContextUniverse U = collectContexts(Configs, Symbol::get("A"));
  EXPECT_EQ(U.size(), 2u);
  for (const ActionContext &Ctx : U)
    EXPECT_EQ(Ctx.Omega.size(), 3u) << "Ω is the full configuration Ω";
}

TEST(ProgramRefinementTest, IdenticalProgramsRefine) {
  Program P = makeIncrementProgram(2);
  EXPECT_TRUE(checkProgramRefinement(P, P, {{xStore(0), {}}}).ok());
}

TEST(ProgramRefinementTest, DetectsMissingTerminalStore) {
  Program P1 = makeIncrementProgram(2);
  Program P2 = makeIncrementProgram(3); // ends at x=3, not x=2
  CheckResult R = checkProgramRefinement(P1, P2, {{xStore(0), {}}});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("terminal store"), std::string::npos) << R.str();
}

TEST(ProgramRefinementTest, FailingAbstractionIsVacuouslyRefined) {
  // P2 fails from x=1, so both conditions are vacuous there.
  Program P1 = makeIncrementProgram(1);
  Program P2 = makeConditionalFailProgram();
  EXPECT_TRUE(checkProgramRefinement(P1, P2, {{xStore(1), {}}}).ok());
}

TEST(ProgramRefinementTest, ConcreteFailureMustBePreserved) {
  // P1 fails from x=1 but P2 never fails: Good(P2) ⊄ Good(P1).
  Program P1 = makeConditionalFailProgram();
  Program P2 = makeIncrementProgram(0);
  CheckResult R = checkProgramRefinement(P1, P2, {{xStore(1), {}}});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("can fail"), std::string::npos) << R.str();
}

// --- The summary comparison behind the driver's cross-check -------------

namespace {

ProgramSummary summaryOf(bool Good, std::vector<Store> Trans) {
  ProgramSummary S;
  S.Good = Good;
  S.Trans = std::move(Trans);
  return S;
}

void expectSameResult(const CheckResult &A, const CheckResult &B) {
  EXPECT_EQ(A.ok(), B.ok());
  EXPECT_EQ(A.obligations(), B.obligations());
  EXPECT_EQ(A.failures(), B.failures());
  EXPECT_EQ(A.issues(), B.issues());
}

} // namespace

TEST(SummaryRefinementTest, ConcreteFailureMustBePreserved) {
  // P1 can fail where P2 cannot: the initial-store obligation fails and
  // Trans(P1) is not compared.
  CheckResult R = checkProgramRefinement(summaryOf(false, {xStore(2)}),
                                         summaryOf(true, {xStore(1)}),
                                         xStore(1));
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.obligations(), 1u);
  EXPECT_EQ(R.issues(), std::vector<std::string>{
                            "P1 can fail where P2 cannot, from " +
                            xStore(1).str()});
  // The program-level overload reports the identical result.
  expectSameResult(R, checkProgramRefinement(makeConditionalFailProgram(),
                                             makeIncrementProgram(0),
                                             {{xStore(1), {}}}));
}

TEST(SummaryRefinementTest, MissingTerminalStoreIsReported) {
  // Trans(P1) = {x=2} but Trans(P2) = {x=3}.
  CheckResult R = checkProgramRefinement(summaryOf(true, {xStore(2)}),
                                         summaryOf(true, {xStore(3)}),
                                         xStore(0));
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.obligations(), 2u);
  EXPECT_EQ(R.issues(),
            std::vector<std::string>{"terminal store of P1 unreachable in P2: " +
                                     xStore(2).str() + " from " +
                                     xStore(0).str()});
  expectSameResult(R, checkProgramRefinement(makeIncrementProgram(2),
                                             makeIncrementProgram(3),
                                             {{xStore(0), {}}}));
}

TEST(SummaryRefinementTest, OneObligationPerTerminalStore) {
  CheckResult R = checkProgramRefinement(
      summaryOf(true, {xStore(1), xStore(2)}),
      summaryOf(true, {xStore(1), xStore(2), xStore(3)}), xStore(0));
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.obligations(), 3u);
}

TEST(SummaryRefinementTest, FailingAbstractionLeavesP1Unread) {
  // P2 fails: both conditions are vacuous, so a default (unexplored) P1
  // summary is acceptable.
  CheckResult R = checkProgramRefinement(ProgramSummary(),
                                         summaryOf(false, {}), xStore(1));
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.obligations(), 1u);
}

TEST(CheckResultTest, IssueCapAndMerge) {
  CheckResult R;
  for (int I = 0; I < 20; ++I)
    R.fail("issue " + std::to_string(I));
  EXPECT_EQ(R.failures(), 20u);
  EXPECT_EQ(R.issues().size(), CheckResult::MaxIssues);
  CheckResult S;
  S.countObligation();
  S.merge(R);
  EXPECT_EQ(S.failures(), 20u);
  EXPECT_EQ(S.obligations(), 1u);
  EXPECT_FALSE(S.ok());
}
