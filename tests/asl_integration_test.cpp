//===- tests/asl_integration_test.cpp - ASL end-to-end with the IS rule -------------===//
///
/// \file
/// The frontend story end to end: the broadcast consensus protocol of
/// Fig. 1-② written in ASL, compiled to gated atomic actions, explored,
/// and verified with the IS proof rule (schedule-derived invariant plus a
/// CollectAbs-style abstraction supplied over the compiled actions).
///
//===----------------------------------------------------------------------===//

#include "is/ScheduleInvariant.h"
#include "is/Sequentialize.h"
#include "lang/Frontend.h"
#include "protocols/Measures.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::asl;

namespace {

const char *BroadcastAsl = R"(
// Broadcast consensus (Fig. 1 of the paper), in ASL.
const n: int;

var value: map<int, int> := map i in 1 .. n : i;
var decision: map<int, option<int>> := map i in 1 .. n : none;
var CH: map<int, bag<int>> := map i in 1 .. n : {};

action Main() {
  for i in 1 .. n {
    async Broadcast(i);
    async Collect(i);
  }
}

action Broadcast(i: int) {
  for j in 1 .. n {
    CH[j] := insert(CH[j], value[i]);
  }
}

action Collect(i: int) {
  await size(CH[i]) >= n;
  choose vs in sub_bags(CH[i], n);
  CH[i] := diff(CH[i], vs);
  decision[i] := some(max(vs));
}
)";

CompiledModule compileBroadcast(int64_t N) {
  std::vector<Diagnostic> Diags;
  auto C = frontend::compileSource(BroadcastAsl, "", {{"n", N}},
                                   frontend::FrontendVersion::V2, Diags);
  EXPECT_TRUE(C.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  return C ? std::move(*C) : CompiledModule();
}

bool agreementHolds(const Store &Final, int64_t N) {
  for (int64_t I = 1; I <= N; ++I) {
    const Value &D = Final.get("decision").mapAt(Value::integer(I));
    if (D.isNone() || D.getSome().getInt() != N)
      return false;
  }
  return true;
}

/// The IS application for the compiled module: schedule-derived invariant
/// (Broadcast 1..n, then Collect 1..n) and a CollectAbs abstraction whose
/// gate asserts the sequential-context facts of Fig. 1-④.
ISApplication makeAslBroadcastIS(const CompiledModule &C, int64_t N) {
  RankFn Rank =
      [](const PendingAsync &PA) -> std::optional<std::vector<int64_t>> {
    if (PA.Action == Symbol::get("Broadcast"))
      return std::vector<int64_t>{0, PA.Args[0].getInt()};
    if (PA.Action == Symbol::get("Collect"))
      return std::vector<int64_t>{1, PA.Args[0].getInt()};
    return std::nullopt;
  };
  ISApplication App;
  App.P = C.P;
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Broadcast"), Symbol::get("Collect")};
  App.Invariant = makeScheduleInvariant("AslBroadcastInv",
                                                   App.P, App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  App.Abstractions.emplace(
      Symbol::get("Collect"),
      Action("CollectAbs", 1,
             [N](const GateContext &Ctx) {
               for (const auto &[PA, Count] :
                    Ctx.Omega.entries()) {
                 (void)Count;
                 if (PA.Action == Symbol::get("Broadcast"))
                   return false;
               }
               return Ctx.Global.get("CH")
                          .mapAt(Ctx.Args[0])
                          .bagSize() >= static_cast<uint64_t>(N);
             },
             [P = C.P](const Store &G, const std::vector<Value> &Args) {
               return P.action("Collect").transitions(G, Args);
             },
             /*GateReadsOmega=*/true));
  App.WfMeasure = protocols::pendingAsyncCount();
  return App;
}

} // namespace

TEST(AslIntegrationTest, CompiledProtocolReachesAgreement) {
  int64_t N = 3;
  CompiledModule C = compileBroadcast(N);
  ExploreResult R = explore(C.P, initialConfiguration(C.InitialStore));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(agreementHolds(Final, N));
}

TEST(AslIntegrationTest, CollectBlocksUntilChannelFull) {
  CompiledModule C = compileBroadcast(2);
  Configuration C0 = initialConfiguration(C.InitialStore);
  Configuration C1 =
      stepPendingAsync(C.P, C0, PendingAsync("Main", {}))[0];
  EXPECT_TRUE(stepPendingAsync(C.P, C1,
                               PendingAsync("Collect", {Value::integer(1)}))
                  .empty());
}

TEST(AslIntegrationTest, ISAcceptsCompiledProtocol) {
  int64_t N = 3;
  CompiledModule C = compileBroadcast(N);
  ISApplication App = makeAslBroadcastIS(C, N);
  ISCheckReport Report = checkIS(App, {{C.InitialStore, {}}});
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(AslIntegrationTest, SequentializedCompiledProtocol) {
  int64_t N = 3;
  CompiledModule C = compileBroadcast(N);
  ISApplication App = makeAslBroadcastIS(C, N);
  ASSERT_TRUE(checkIS(App, {{C.InitialStore, {}}}).ok());
  Program PPrime = applyIS(App);
  ExploreResult R = explore(PPrime, initialConfiguration(C.InitialStore));
  EXPECT_EQ(R.Stats.NumConfigurations, 2u);
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(agreementHolds(R.TerminalStores[0], N));
  EXPECT_TRUE(checkProgramRefinement(C.P, PPrime,
                                     {{C.InitialStore, {}}})
                  .ok());
}

TEST(AslIntegrationTest, MissingAbstractionRejectedForCompiledProtocol) {
  int64_t N = 2;
  CompiledModule C = compileBroadcast(N);
  ISApplication App = makeAslBroadcastIS(C, N);
  App.Abstractions.clear();
  ISCheckReport Report = checkIS(App, {{C.InitialStore, {}}});
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.LeftMovers.ok()) << Report.str();
}

TEST(AslIntegrationTest, BuggyAssertionSurfacesAsFailure) {
  // A compiled protocol with a wrong assertion: exploration finds the
  // failing execution.
  const char *Bad = R"(
const n: int;
var x: int := 0;
action Main() {
  for i in 1 .. n { async Inc(); }
}
action Inc() {
  assert x < 1;   // wrong for n >= 2
  x := x + 1;
}
)";
  std::vector<Diagnostic> Diags;
  auto C = frontend::compileSource(Bad, "", {{"n", 2}},
                                   frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  ExploreResult R = explore(C->P, initialConfiguration(C->InitialStore));
  EXPECT_TRUE(R.FailureReachable);
  ASSERT_TRUE(R.FailureTrace.has_value());
  EXPECT_EQ(R.FailureTrace->Steps.back().Executed.Action.str(), "Inc");
}
