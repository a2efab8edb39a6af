//===- tests/fine_grained_test.cpp - The full P1 ≼ P2 ≼ P' chain (§5.2) ---------===//
///
/// \file
/// The paper's complete methodology on broadcast consensus: a fine-grained
/// P1 (one send/receive per step) is reduced to the atomic-action P2 by
/// Lipton fusion, and P2 is sequentialized to P' by IS. Each link is
/// checked: mover annotations for the reduction, outcome equality across
/// the layers, and the IS conditions for the final step.
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/FineGrained.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Reduction.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace isq;
using namespace isq::protocols;

namespace {

std::unordered_set<Store> terminalsOf(const Program &P, const Store &Init) {
  ProgramSummary S = summarize(P, Init);
  EXPECT_TRUE(S.Good);
  return std::unordered_set<Store>(S.Trans.begin(), S.Trans.end());
}

} // namespace

TEST(FineGrainedTest, LowLevelProtocolReachesAgreement) {
  BroadcastParams Params{2, {4, 9}};
  Program P1 = makeFineBroadcastProgram(Params);
  ExploreResult R = explore(
      P1, initialConfiguration(makeFineBroadcastInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_FALSE(R.TerminalStores.empty());
  for (const Store &Final : R.TerminalStores)
    EXPECT_TRUE(checkBroadcastSpec(Final, Params));
}

TEST(FineGrainedTest, FineLayerHasMoreInterleavings) {
  BroadcastParams Params{2, {}};
  Store Init = makeFineBroadcastInitialStore(Params);
  ExploreResult Fine =
      explore(makeFineBroadcastProgram(Params), initialConfiguration(Init));
  Program P2 = makeBroadcastProgram(Params);
  ExploreResult Atomic = explore(P2, initialConfiguration(Init));
  EXPECT_GT(Fine.Stats.NumConfigurations, Atomic.Stats.NumConfigurations)
      << "per-message steps create strictly more interleavings";
}

TEST(FineGrainedTest, MoverAnnotationsVerified) {
  // §2 over bag channels: sends are left movers, receives right movers.
  BroadcastParams Params{2, {}};
  CheckResult R = checkFineBroadcastMoverAnnotations(Params);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_GT(R.obligations(), 0u);
}

TEST(FineGrainedTest, LiptonPatternOfBothLoops) {
  using M = MoverType;
  // broadcast(i): n left-moving sends.
  EXPECT_TRUE(checkAtomicPattern({M::Left, M::Left, M::Left}).ok());
  // collect(i): seed (both), n right-moving receives, publish (both).
  EXPECT_TRUE(
      checkAtomicPattern({M::Both, M::Right, M::Right, M::Both}).ok());
}

TEST(FineGrainedTest, ReductionPreservesOutcomes) {
  // P1 (fine) and the fused P2 have the same terminal stores.
  for (int64_t N : {2, 3}) {
    BroadcastParams Params{N, {}};
    Store Init = makeFineBroadcastInitialStore(Params);
    auto Fine = terminalsOf(makeFineBroadcastProgram(Params), Init);
    auto Fused = terminalsOf(makeReducedBroadcastProgram(Params), Init);
    EXPECT_EQ(Fine, Fused) << "n = " << N;
  }
}

TEST(FineGrainedTest, FusedLayerMatchesHandWrittenAtomicLayer) {
  // The fused P2 agrees with the hand-written atomic P2 of
  // protocols/Broadcast.cpp on the same initial store.
  BroadcastParams Params{2, {5, 3}};
  Store Init = makeFineBroadcastInitialStore(Params);
  auto Fused = terminalsOf(makeReducedBroadcastProgram(Params), Init);
  auto Atomic = terminalsOf(makeBroadcastProgram(Params), Init);
  EXPECT_EQ(Fused, Atomic);
}

TEST(FineGrainedTest, FullChainP1ToSequential) {
  // P1 --reduction--> P2 --IS--> P', with outcome preservation end to end.
  BroadcastParams Params{3, {}};
  Store Init = makeFineBroadcastInitialStore(Params);

  // Reduction step.
  ASSERT_TRUE(checkFineBroadcastMoverAnnotations(Params).ok());
  auto Fine = terminalsOf(makeFineBroadcastProgram(Params), Init);

  // IS step on the atomic layer.
  ISApplication App = makeBroadcastIS(Params);
  ISCheckReport Report = checkIS(App, {{Init, {}}});
  ASSERT_TRUE(Report.ok()) << Report.str();
  auto Sequential = terminalsOf(applyIS(App), Init);

  EXPECT_EQ(Fine, Sequential)
      << "the fine-grained protocol and the one-schedule program compute "
         "the same outcomes";
}

TEST(FineGrainedTest, FusedCollectBlocksUntilEnoughMessages) {
  BroadcastParams Params{2, {}};
  Program P2 = makeReducedBroadcastProgram(Params);
  Store Init = makeFineBroadcastInitialStore(Params);
  Configuration C0 = initialConfiguration(Init);
  Configuration C1 = stepPendingAsync(P2, C0, PendingAsync("Main", {}))[0];
  // No broadcasts yet: the fused collect has no complete path.
  EXPECT_TRUE(
      stepPendingAsync(P2, C1, PendingAsync("Collect", {Value::integer(1)}))
          .empty());
  // After one broadcast there is still only one of two needed messages.
  Configuration C2 =
      stepPendingAsync(P2, C1, PendingAsync("Broadcast", {Value::integer(2)}))[0];
  EXPECT_TRUE(
      stepPendingAsync(P2, C2, PendingAsync("Collect", {Value::integer(1)}))
          .empty());
}
