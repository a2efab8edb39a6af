//===- tests/property_test.cpp - Cross-protocol property sweeps --------------------===//
///
/// \file
/// Parameterized property tests exercising the paper's guarantees across
/// protocols and instance sizes:
///
///  P1. Acceptance: every protocol's IS application is accepted.
///  P2. Soundness (Theorem 4.4, empirical): P ≼ P' holds on the instance.
///  P3. Completeness of the reduction here: P' loses no outcome —
///      Trans(P) = Trans(P') for our protocols (the sequentialization
///      keeps all nondeterminism that matters).
///  P4. Rewriter totality: every terminating execution rewrites to a
///      P'-execution with the same final configuration.
///  P5. Cooperation: the measure strictly decreases along every non-Main
///      step of sampled executions.
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/NBuyer.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"
#include "reference/Rewriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

using namespace isq;
using namespace isq::protocols;

namespace {

/// A protocol instance under test: its program, initial store, one-shot
/// IS application, and spec.
struct Instance {
  std::string Name;
  ISApplication App;
  Store Init;
  std::function<bool(const Store &)> Spec;
  /// Measures are only required to decrease on eliminated actions; the
  /// rewriter property is checked when execution enumeration is feasible.
  bool CheckRewriter = true;
};

Instance broadcastInstance(int64_t N) {
  BroadcastParams Params{N, {}};
  return {"broadcast/" + std::to_string(N), makeBroadcastIS(Params),
          makeBroadcastInitialStore(Params),
          [Params](const Store &S) { return checkBroadcastSpec(S, Params); },
          N <= 3};
}

Instance pingPongInstance(int64_t T) {
  PingPongParams Params{T};
  return {"pingpong/" + std::to_string(T), makePingPongIS(Params),
          makePingPongInitialStore(Params),
          [Params](const Store &S) { return checkPingPongSpec(S, Params); },
          true};
}

Instance producerConsumerInstance(int64_t T) {
  ProducerConsumerParams Params{T};
  return {"prodcons/" + std::to_string(T),
          makeProducerConsumerIS(Params),
          makeProducerConsumerInitialStore(Params),
          [Params](const Store &S) {
            return checkProducerConsumerSpec(S, Params);
          },
          true};
}

Instance changRobertsInstance(int64_t N, std::vector<int64_t> Ids) {
  ChangRobertsParams Params{N, std::move(Ids)};
  return {"changroberts/" + std::to_string(N),
          makeChangRobertsOneShotIS(Params),
          makeChangRobertsInitialStore(Params),
          [Params](const Store &S) {
            return checkChangRobertsSpec(S, Params);
          },
          N <= 3};
}

Instance twoPhaseCommitInstance(int64_t N) {
  TwoPhaseCommitParams Params{N};
  return {"2pc/" + std::to_string(N), makeTwoPhaseCommitOneShotIS(Params),
          makeTwoPhaseCommitInitialStore(Params),
          [Params](const Store &S) {
            return checkTwoPhaseCommitSpec(S, Params);
          },
          N <= 2};
}

Instance nBuyerInstance(int64_t N) {
  NBuyerParams Params{N, N - 1, {0, 1}};
  return {"nbuyer/" + std::to_string(N), makeNBuyerOneShotIS(Params),
          makeNBuyerInitialStore(Params),
          [Params](const Store &S) { return checkNBuyerSpec(S, Params); },
          N <= 2};
}

std::vector<Instance> allInstances() {
  std::vector<Instance> Out;
  for (int64_t N : {2, 3, 4})
    Out.push_back(broadcastInstance(N));
  for (int64_t T : {1, 2, 3, 4})
    Out.push_back(pingPongInstance(T));
  for (int64_t T : {1, 2, 3, 4})
    Out.push_back(producerConsumerInstance(T));
  Out.push_back(changRobertsInstance(2, {1, 2}));
  Out.push_back(changRobertsInstance(3, {2, 3, 1}));
  Out.push_back(changRobertsInstance(4, {3, 1, 4, 2}));
  for (int64_t N : {1, 2, 3})
    Out.push_back(twoPhaseCommitInstance(N));
  for (int64_t N : {2, 3})
    Out.push_back(nBuyerInstance(N));
  return Out;
}

class ProtocolProperty : public ::testing::TestWithParam<size_t> {
protected:
  static const Instance &instance() {
    static const std::vector<Instance> Instances = allInstances();
    return Instances[GetParam()];
  }
};

std::string instanceName(const ::testing::TestParamInfo<size_t> &Info) {
  static const std::vector<Instance> Instances = allInstances();
  std::string Name = Instances[Info.param].Name;
  std::replace(Name.begin(), Name.end(), '/', '_');
  return Name;
}

} // namespace

TEST_P(ProtocolProperty, P1_ISApplicationAccepted) {
  const Instance &I = instance();
  ISCheckReport Report = checkIS(I.App, {{I.Init, {}}});
  EXPECT_TRUE(Report.ok()) << I.Name << ":\n" << Report.str();
}

TEST_P(ProtocolProperty, P2_ProgramRefinementHolds) {
  const Instance &I = instance();
  EXPECT_TRUE(
      checkProgramRefinement(I.App.P, applyIS(I.App), {{I.Init, {}}}).ok())
      << I.Name;
}

TEST_P(ProtocolProperty, P3_SequentializationLosesNoOutcome) {
  const Instance &I = instance();
  ProgramSummary SP = summarize(I.App.P, I.Init);
  ProgramSummary SS = summarize(applyIS(I.App), I.Init);
  EXPECT_TRUE(SP.Good) << I.Name;
  EXPECT_TRUE(SS.Good) << I.Name;
  std::unordered_set<Store> SeqOutcomes(SS.Trans.begin(), SS.Trans.end());
  std::unordered_set<Store> ConcOutcomes(SP.Trans.begin(), SP.Trans.end());
  EXPECT_EQ(SeqOutcomes, ConcOutcomes) << I.Name;
}

TEST_P(ProtocolProperty, P3b_EveryOutcomeSatisfiesSpec) {
  const Instance &I = instance();
  ProgramSummary S = summarize(applyIS(I.App), I.Init);
  EXPECT_TRUE(S.Good) << I.Name;
  ASSERT_FALSE(S.Trans.empty()) << I.Name;
  for (const Store &Final : S.Trans)
    EXPECT_TRUE(I.Spec(Final)) << I.Name << ": " << Final.str();
}

TEST_P(ProtocolProperty, P4_RewriterPreservesFinalConfigurations) {
  const Instance &I = instance();
  if (!I.CheckRewriter)
    GTEST_SKIP() << "execution enumeration too large for " << I.Name;
  auto Execs =
      enumerateExecutions(I.App.P, initialConfiguration(I.Init), 400, 200);
  ASSERT_FALSE(Execs.empty()) << I.Name;
  for (const Execution &Pi : Execs) {
    if (!Pi.isTerminating())
      continue;
    RewriteResult R = rewriteExecution(I.App, Pi);
    ASSERT_TRUE(R.Ok) << I.Name << ": " << R.Error << "\nschedule: "
                      << Pi.scheduleStr();
    EXPECT_EQ(R.Rewritten.finalConfiguration(), Pi.finalConfiguration())
        << I.Name;
  }
}

TEST_P(ProtocolProperty, P5_MeasureDecreasesOnEliminatedActions) {
  const Instance &I = instance();
  Rng R(0xfeedULL + GetParam());
  for (int Sample = 0; Sample < 20; ++Sample) {
    auto E = sampleExecution(I.App.P, initialConfiguration(I.Init), R, 500);
    if (!E)
      continue;
    Configuration Prev = E->Initial;
    for (const ExecStep &Step : E->Steps) {
      if (I.App.eliminates(Step.Executed.Action) &&
          !Step.Successor.isFailure()) {
        // CO guarantees SOME measure-decreasing transition exists; for
        // these protocols every transition of an eliminated action
        // decreases, which we check on the sampled path.
        EXPECT_TRUE(I.App.WfMeasure.decreases(Prev, Step.Successor))
            << I.Name << " step " << Step.Executed.str();
      }
      Prev = Step.Successor;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolProperty,
                         ::testing::Range<size_t>(0, allInstances().size()),
                         instanceName);
