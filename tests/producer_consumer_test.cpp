//===- tests/producer_consumer_test.cpp - Producer-Consumer tests -----------------===//

#include "is/Sequentialize.h"
#include "protocols/ProducerConsumer.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::protocols;

namespace {
InitialCondition init(const ProducerConsumerParams &Params) {
  return {makeProducerConsumerInitialStore(Params), {}};
}
} // namespace

TEST(ProducerConsumerTest, ProtocolRunsToCompletion) {
  ProducerConsumerParams Params{4};
  Program P = makeProducerConsumerProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeProducerConsumerInitialStore(Params)));
  EXPECT_FALSE(R.FailureReachable);
  EXPECT_TRUE(R.Deadlocks.empty());
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkProducerConsumerSpec(R.TerminalStores[0], Params));
}

TEST(ProducerConsumerTest, QueueGrowsInTheConcurrentProgram) {
  // The producer can run arbitrarily ahead: the queue reaches length T.
  ProducerConsumerParams Params{4};
  Program P = makeProducerConsumerProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeProducerConsumerInitialStore(Params)));
  std::vector<Store> Stores;
  for (const Configuration &C : R.Reachable)
    Stores.push_back(C.global());
  EXPECT_EQ(maxQueueLength(Stores), 4u);
}

TEST(ProducerConsumerTest, ISIsAccepted) {
  ProducerConsumerParams Params{3};
  ISApplication App = makeProducerConsumerIS(Params);
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(ProducerConsumerTest, SequentializationBoundsQueueToOne) {
  // §5.3: "IS reduces the program to a sequentialization where the
  // producer and consumer alternate, and thus the queue contains at most
  // one element." The invariant's intermediate states witness this.
  ProducerConsumerParams Params{4};
  ISApplication App = makeProducerConsumerIS(Params);
  Store Init = makeProducerConsumerInitialStore(Params);
  std::vector<Store> InvariantStores;
  for (const Transition &T : App.Invariant.transitions(Init, {}))
    InvariantStores.push_back(T.Global);
  EXPECT_EQ(maxQueueLength(InvariantStores), 1u);
}

TEST(ProducerConsumerTest, RefinementHolds) {
  ProducerConsumerParams Params{3};
  ISApplication App = makeProducerConsumerIS(Params);
  ASSERT_TRUE(checkIS(App, {init(Params)}).ok());
  EXPECT_TRUE(
      checkProgramRefinement(App.P, applyIS(App), {init(Params)}).ok());
}

TEST(ProducerConsumerTest, SequentializedProgramSatisfiesSpec) {
  ProducerConsumerParams Params{5};
  ISApplication App = makeProducerConsumerIS(Params);
  Program PPrime = applyIS(App);
  ExploreResult R = explore(
      PPrime,
      initialConfiguration(makeProducerConsumerInitialStore(Params)));
  EXPECT_EQ(R.Stats.NumConfigurations, 2u);
  ASSERT_EQ(R.TerminalStores.size(), 1u);
  EXPECT_TRUE(checkProducerConsumerSpec(R.TerminalStores[0], Params));
}

TEST(ProducerConsumerTest, WrongRankOrderRejected) {
  // Scheduling the consumer before the producer dequeues from an empty
  // queue: the abstraction's gate cannot be discharged in (I3).
  ProducerConsumerParams Params{2};
  ISApplication App = makeProducerConsumerIS(Params);
  App.Choice = ISApplication::chooseInOrder(
      {Symbol::get("Consumer"), Symbol::get("Producer")});
  ISCheckReport Report = checkIS(App, {init(Params)});
  EXPECT_FALSE(Report.ok());
  EXPECT_FALSE(Report.InductiveStep.ok()) << Report.str();
}

TEST(ProducerConsumerTest, SingleItemInstance) {
  ProducerConsumerParams Params{1};
  ISApplication App = makeProducerConsumerIS(Params);
  EXPECT_TRUE(checkIS(App, {init(Params)}).ok());
}
