//===- tests/scheduler_test.cpp - Obligation scheduler tests ---------------------===//
//
// Unit tests for the ObligationScheduler (ordered reconciliation,
// speculative dedup, channels, caps) plus the determinism contract of the
// scheduled checkers: verdicts, obligation counts, diagnostics, and
// reconciliation statistics are bit-identical for any thread count, and
// equal to the serial reference loops.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "engine/ObligationScheduler.h"
#include "is/ISCheck.h"
#include "movers/MoverCheck.h"
#include "protocols/Broadcast.h"
#include "protocols/Pathological.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "refine/Refinement.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::engine;
using namespace isq::testing;

namespace {

/// The scheduler draws its worker budget from the unified EngineConfig.
EngineConfig threadConfig(unsigned Threads) {
  EngineConfig Config;
  Config.NumThreads = Threads;
  return Config;
}

void expectSameResult(const CheckResult &A, const CheckResult &B,
                      const std::string &What) {
  EXPECT_EQ(A.ok(), B.ok()) << What;
  EXPECT_EQ(A.obligations(), B.obligations()) << What;
  EXPECT_EQ(A.failures(), B.failures()) << What;
  ASSERT_EQ(A.issues().size(), B.issues().size()) << What;
  for (size_t I = 0; I < A.issues().size(); ++I)
    EXPECT_EQ(A.issues()[I], B.issues()[I]) << What << " issue " << I;
}

void expectSameReport(const ISCheckReport &A, const ISCheckReport &B) {
  expectSameResult(A.SideConditions, B.SideConditions, "side conditions");
  expectSameResult(A.AbstractionRefinement, B.AbstractionRefinement,
                   "abstraction refinement");
  expectSameResult(A.BaseCase, B.BaseCase, "(I1)");
  expectSameResult(A.Conclusion, B.Conclusion, "(I2)");
  expectSameResult(A.InductiveStep, B.InductiveStep, "(I3)");
  expectSameResult(A.LeftMovers, B.LeftMovers, "(LM)");
  expectSameResult(A.Cooperation, B.Cooperation, "(CO)");
  EXPECT_EQ(A.ok(), B.ok());
}

/// Everything in the stats except timings must be thread-count invariant.
void expectSameCounters(const ObligationStats &A, const ObligationStats &B) {
  for (size_t I = 0; I < NumObConditions; ++I) {
    EXPECT_EQ(A.PerCondition[I].Jobs, B.PerCondition[I].Jobs) << I;
    EXPECT_EQ(A.PerCondition[I].Units, B.PerCondition[I].Units) << I;
    EXPECT_EQ(A.PerCondition[I].UnitsDeduped, B.PerCondition[I].UnitsDeduped)
        << I;
    EXPECT_EQ(A.PerCondition[I].Obligations, B.PerCondition[I].Obligations)
        << I;
    EXPECT_EQ(A.PerCondition[I].Failures, B.PerCondition[I].Failures) << I;
  }
}

/// The serial report against the scheduled report for 1, 2 and 8 worker
/// threads — the PR's core acceptance property.
void expectParallelMatchesSerial(const ISApplication &App,
                                 const ISUniverse &Universe) {
  ISCheckReport Serial = checkIS(App, Universe);
  ISCheckReport Reports[3];
  const unsigned Threads[3] = {1, 2, 8};
  for (size_t I = 0; I < 3; ++I) {
    ISCheckOptions Opts;
    Opts.Config.NumThreads = Threads[I];
    Reports[I] = checkIS(App, Universe, Opts);
    expectSameReport(Serial, Reports[I]);
  }
  expectSameCounters(Reports[0].Scheduler, Reports[1].Scheduler);
  expectSameCounters(Reports[0].Scheduler, Reports[2].Scheduler);
  // The serial oracle behind parallel-check=false is reachable through the
  // same options surface.
  ISCheckOptions SerialOpts;
  SerialOpts.Config.ParallelCheck = false;
  expectSameReport(Serial, checkIS(App, Universe, SerialOpts));
}

} // namespace

// --- Scheduler core -----------------------------------------------------

TEST(ObligationSchedulerTest, MergesUnitsInSubmissionOrder) {
  ObligationScheduler Sched(threadConfig(1));
  auto *G = Sched.group(ObCondition::LeftMovers);
  Sched.add(G, [](ObSink &S) {
    S.begin();
    S.countObligation();
    S.fail("first");
  });
  Sched.add(G, [](ObSink &S) {
    S.begin();
    S.countObligation();
    S.countObligation();
    S.fail("second");
  });
  Sched.run();
  const CheckResult &R = Sched.result(G);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.obligations(), 3u);
  EXPECT_EQ(R.failures(), 2u);
  ASSERT_EQ(R.issues().size(), 2u);
  EXPECT_EQ(R.issues()[0], "first");
  EXPECT_EQ(R.issues()[1], "second");
}

TEST(ObligationSchedulerTest, DedupKeepsFirstSubmittedUnit) {
  // Both jobs claim the same key with different payloads; regardless of
  // which worker runs first, reconciliation must keep the unit of the
  // earlier-submitted job.
  for (unsigned Threads : {1u, 2u, 8u}) {
    ObligationScheduler Sched(threadConfig(Threads));
    auto *G = Sched.group(ObCondition::Cooperation);
    Sched.add(G, [](ObSink &S) {
      S.begin(ObKey{7, 1, 2, 3});
      S.countObligation();
      S.fail("winner");
    });
    Sched.add(G, [](ObSink &S) {
      S.begin(ObKey{7, 1, 2, 3});
      S.countObligation();
      S.countObligation();
      S.fail("loser");
    });
    Sched.run();
    const CheckResult &R = Sched.result(G);
    EXPECT_EQ(R.obligations(), 1u) << Threads;
    EXPECT_EQ(R.failures(), 1u) << Threads;
    ASSERT_EQ(R.issues().size(), 1u) << Threads;
    EXPECT_EQ(R.issues()[0], "winner") << Threads;
    EXPECT_EQ(Sched.stats()
                  .PerCondition[size_t(ObCondition::Cooperation)]
                  .UnitsDeduped,
              1u);
  }
}

TEST(ObligationSchedulerTest, KeylessUnitsNeverDedup) {
  ObligationScheduler Sched(threadConfig(2));
  auto *G = Sched.group(ObCondition::BaseCase);
  for (int I = 0; I < 4; ++I)
    Sched.add(G, [](ObSink &S) {
      S.begin(); // keyless
      S.countObligation();
    });
  Sched.run();
  EXPECT_EQ(Sched.result(G).obligations(), 4u);
  EXPECT_EQ(
      Sched.stats().PerCondition[size_t(ObCondition::BaseCase)].UnitsDeduped,
      0u);
}

TEST(ObligationSchedulerTest, ChannelsFoldIntoSeparateResults) {
  ObligationScheduler Sched(threadConfig(1));
  auto *G = Sched.group(
      {ObCondition::InductiveStep, ObCondition::SideConditions});
  Sched.add(G, [](ObSink &S) {
    S.begin(ObKey(), 1); // side-condition channel
    S.countObligation();
    S.fail("bad choice");
    S.begin(ObKey(), 0); // inductive-step channel
    S.countObligation();
  });
  Sched.run();
  EXPECT_TRUE(Sched.result(G, 0).ok());
  EXPECT_EQ(Sched.result(G, 0).obligations(), 1u);
  EXPECT_FALSE(Sched.result(G, 1).ok());
  ASSERT_EQ(Sched.result(G, 1).issues().size(), 1u);
  EXPECT_EQ(Sched.result(G, 1).issues()[0], "bad choice");
}

TEST(ObligationSchedulerTest, FailureCountsSurviveIssueCap) {
  ObligationScheduler Sched(threadConfig(1));
  auto *G = Sched.group(ObCondition::Conclusion);
  Sched.add(G, [](ObSink &S) {
    S.begin();
    for (int I = 0; I < 12; ++I) {
      S.countObligation();
      S.fail("issue " + std::to_string(I));
    }
  });
  Sched.run();
  const CheckResult &R = Sched.result(G);
  EXPECT_EQ(R.obligations(), 12u);
  EXPECT_EQ(R.failures(), 12u);
  EXPECT_EQ(R.issues().size(), CheckResult::MaxIssues);
  EXPECT_EQ(R.issues()[0], "issue 0");
}

TEST(ObligationSchedulerTest, IdenticalAcrossThreadCountsUnderContention) {
  // Many jobs racing on overlapping keys: results and counter statistics
  // must not depend on the worker count.
  auto Run = [](unsigned Threads) {
    ObligationScheduler Sched(threadConfig(Threads));
    auto *G = Sched.group(ObCondition::LeftMovers);
    for (uint32_t J = 0; J < 64; ++J)
      Sched.add(G, [J](ObSink &S) {
        for (uint32_t K = 0; K < 16; ++K) {
          S.begin(ObKey{1, (J + K) % 8, 0, 0});
          S.countObligation();
          if ((J + K) % 8 == 3)
            S.fail("key3 from job " + std::to_string(J));
        }
      });
    Sched.run();
    CheckResult R = Sched.result(G);
    ObligationStats Stats = Sched.stats();
    return std::make_pair(R, Stats);
  };
  auto [R1, S1] = Run(1);
  auto [R2, S2] = Run(2);
  auto [R8, S8] = Run(8);
  expectSameResult(R1, R2, "threads 1 vs 2");
  expectSameResult(R1, R8, "threads 1 vs 8");
  expectSameCounters(S1, S2);
  expectSameCounters(S1, S8);
}

// --- Scheduled refinement vs serial ------------------------------------

TEST(ScheduledRefinementTest, MatchesSerialIncludingFailures) {
  // A1: gate x >= 0, x := x + 1.  A2: gate always, x := x + 2.
  // Gate inclusion fails at x < 0; simulation fails everywhere else —
  // both obligation kinds, with dedup exercised by duplicate contexts.
  Action A1("A1", 0,
            [](const GateContext &Ctx) {
              return Ctx.Global.get("x").getInt() >= 0;
            },
            [](const Store &G, const std::vector<Value> &) {
              return std::vector<Transition>{
                  Transition(G.set("x", iv(G.get("x").getInt() + 1)))};
            });
  Action A2("A2", 0, Action::alwaysEnabled(),
            [](const Store &G, const std::vector<Value> &) {
              return std::vector<Transition>{
                  Transition(G.set("x", iv(G.get("x").getInt() + 2)))};
            });

  InternedContextUniverse Universe;
  Universe.Arena = std::make_shared<StateArena>();
  Symbol Carrier = Symbol::get("<test-args>");
  for (int64_t X : {-1, 0, 1, 2, 0, 1, -1, 2}) { // duplicates on purpose
    Universe.Items.push_back(
        {Universe.Arena->internStore(xStore(X)),
         Universe.Arena->internPa(PendingAsync(Carrier, {})),
         Universe.Arena->internPaSet(PaMultiset())});
  }

  CheckResult Serial = checkActionRefinement(A1, A2, Universe);
  ASSERT_FALSE(Serial.ok());
  for (unsigned Threads : {1u, 2u, 8u}) {
    ObligationScheduler Sched(threadConfig(Threads));
    InternedTransitionCache Cache(*Universe.Arena);
    GateCache Gates(*Universe.Arena);
    OmegaGateCache OmegaGates(*Universe.Arena);
    auto *G = scheduleActionRefinement(Sched, ObCondition::BaseCase, A1, A2,
                                       Universe, Cache, Gates, OmegaGates);
    Sched.run();
    expectSameResult(Serial, Sched.result(G),
                     "threads " + std::to_string(Threads));
  }
}

// --- Scheduled movers vs serial -----------------------------------------

TEST(ScheduledMoverTest, MatchesSerialOnBroadcastUniverse) {
  protocols::BroadcastParams Params;
  Params.NumNodes = 3;
  ISApplication App = protocols::makeBroadcastIS(Params);
  ISUniverse Universe = ISUniverse::build(
      App, {{protocols::makeBroadcastInitialStore(Params), {}}});
  for (Symbol A : App.E) {
    const Action &Abs = App.abstraction(A);
    CheckResult SerialL = checkLeftMover(A, Abs, App.P, Universe.Space);
    CheckResult SerialR = checkRightMover(A, Abs, App.P, Universe.Space);
    for (unsigned Threads : {1u, 2u, 8u}) {
      ObligationScheduler Sched(threadConfig(Threads));
      InternedTransitionCache Cache(*Universe.Space.Arena);
      GateCache Gates(*Universe.Space.Arena);
      OmegaGateCache OmegaGates(*Universe.Space.Arena);
      SuccessorOmegaCache SuccOmega(*Universe.Space.Arena);
      auto *GL =
          scheduleLeftMover(Sched, ObCondition::LeftMovers, A, Abs, App.P,
                            Universe.Space, Cache, Gates, OmegaGates,
                            SuccOmega);
      auto *GR =
          scheduleRightMover(Sched, ObCondition::CrossCheck, A, Abs, App.P,
                             Universe.Space, Cache, Gates, OmegaGates,
                             SuccOmega);
      Sched.run();
      expectSameResult(SerialL, Sched.result(GL),
                       A.str() + " left, threads " + std::to_string(Threads));
      expectSameResult(SerialR, Sched.result(GR),
                       A.str() + " right, threads " + std::to_string(Threads));
    }
  }
}

// --- Scheduled checkIS vs serial, accepting and rejecting ----------------

TEST(ScheduledISCheckTest, MatchesSerialOnBroadcast) {
  protocols::BroadcastParams Params;
  Params.NumNodes = 3;
  ISApplication App = protocols::makeBroadcastIS(Params);
  ISUniverse Universe = ISUniverse::build(
      App, {{protocols::makeBroadcastInitialStore(Params), {}}});
  expectParallelMatchesSerial(App, Universe);
}

TEST(ScheduledISCheckTest, MatchesSerialOnPingPong) {
  protocols::PingPongParams Params;
  Params.NumRounds = 3;
  ISApplication App = protocols::makePingPongIS(Params);
  ISUniverse Universe = ISUniverse::build(
      App, {{protocols::makePingPongInitialStore(Params), {}}});
  expectParallelMatchesSerial(App, Universe);
}

TEST(ScheduledISCheckTest, MatchesSerialOnProducerConsumer) {
  protocols::ProducerConsumerParams Params;
  ISApplication App = protocols::makeProducerConsumerIS(Params);
  ISUniverse Universe = ISUniverse::build(
      App, {{protocols::makeProducerConsumerInitialStore(Params), {}}});
  expectParallelMatchesSerial(App, Universe);
}

TEST(ScheduledISCheckTest, MatchesSerialOnCooperationCounterexample) {
  // All conditions except (CO) hold: a rejecting run must produce the
  // same failure counts and the same first counterexample text.
  ISApplication App = protocols::makeCooperationCounterexampleIS();
  ISUniverse Universe = ISUniverse::build(
      App, {{protocols::makeCooperationCounterexampleStore(), {}}});
  ISCheckReport Serial = checkIS(App, Universe);
  ASSERT_FALSE(Serial.Cooperation.ok());
  expectParallelMatchesSerial(App, Universe);
}

TEST(ScheduledISCheckTest, MatchesSerialOnNonInductiveInvariant) {
  // An invariant missing the intermediate prefixes fails (I3); the
  // scheduled checker must report identical step failures and identical
  // choice-function side-condition accounting (the two-channel group).
  int64_t N = 3;
  ISApplication App;
  App.P = makeIncrementProgram(N);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Inc")};
  App.Invariant = Action(
      "BadInv", 0, Action::alwaysEnabled(),
      [N](const Store &G, const std::vector<Value> &) {
        std::vector<Transition> Out;
        int64_t X = G.get("x").getInt();
        for (int64_t K : {int64_t(0), N}) {
          Transition T(G.set("x", iv(X + K)));
          for (int64_t I = K; I < N; ++I)
            T.Created.emplace_back("Inc", std::vector<Value>{});
          Out.push_back(std::move(T));
        }
        return Out;
      });
  App.Choice = ISApplication::chooseInOrder({Symbol::get("Inc")});
  App.WfMeasure = Measure::pendingAsyncCount();
  ISUniverse Universe = ISUniverse::build(App, {{xStore(0), {}}});
  ISCheckReport Serial = checkIS(App, Universe);
  ASSERT_FALSE(Serial.InductiveStep.ok());
  expectParallelMatchesSerial(App, Universe);
}
