//===- tests/scheduler_test.cpp - Obligation scheduler tests ---------------------===//
//
// Unit tests for the ObligationScheduler (store-grouped slicing, the fold
// and its retention by universe position, channels, caps) plus the
// determinism contract of the scheduled checkers: verdicts, obligation
// counts, diagnostics, and scheduler statistics are bit-identical for any
// thread count, and equal to the serial reference loops of
// reference/ISCheck.h — including on universes spanning many slices and
// on every shipped example.
//
//===----------------------------------------------------------------------===//

#include "ShippedExamples.h"
#include "TestPrograms.h"
#include "engine/ObligationScheduler.h"
#include "protocols/Broadcast.h"
#include "protocols/Measures.h"
#include "protocols/Pathological.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "reference/ISCheck.h"
#include "reference/MoverCheck.h"
#include "reference/Refinement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

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
    EXPECT_EQ(A.PerCondition[I].Obligations, B.PerCondition[I].Obligations)
        << I;
    EXPECT_EQ(A.PerCondition[I].Failures, B.PerCondition[I].Failures) << I;
  }
}

/// The serial reference report against the scheduled report for each of
/// \p Threads worker counts, with scheduler counters equal across them.
/// Returns the serial report.
ISCheckReport expectParallelMatchesSerial(
    const ISApplication &App, const ISUniverse &Universe,
    const std::vector<unsigned> &Threads = {1, 2, 8}) {
  ISCheckReport Serial = reference::checkIS(App, Universe);
  std::vector<ISCheckReport> Reports;
  for (unsigned T : Threads) {
    ISCheckOptions Opts;
    Opts.Config.NumThreads = T;
    Reports.push_back(checkIS(App, Universe, Opts));
    expectSameReport(Serial, Reports.back());
    expectSameCounters(Reports.front().Scheduler, Reports.back().Scheduler);
  }
  return Serial;
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

TEST(ObligationSchedulerTest, RetainsIssuesBySmallestUniversePosition) {
  // Two slices of a permuted universe. Iteration order is not universe
  // order, so the fold must map each retained diagnostic back to its
  // universe position and keep the MaxIssues smallest — whatever the
  // order the jobs ran or emitted in.
  auto Order = std::make_shared<StoreGroupedOrder>();
  Order->Order = {5, 9, 1, 7, 0, 3}; // universe positions per slot
  Order->Group = {0, 0, 1, 1, 2, 2};
  Order->Cuts = {0, 2, 6};
  for (unsigned Threads : {1u, 2u, 8u}) {
    ObligationScheduler Sched(threadConfig(Threads));
    auto *G = Sched.group(ObCondition::Cooperation);
    for (size_t K = 0; K < Order->slices(); ++K) {
      size_t Begin = Order->Cuts[K], End = Order->Cuts[K + 1];
      Sched.add(G, {Order, Begin, End}, nullptr,
                [Order, Begin, End](ObSink &S) {
        for (size_t I = Begin; I < End; ++I) {
          S.at(static_cast<uint32_t>(I - Begin), Order->Group[I]);
          for (int F = 0; F < 2; ++F) {
            S.begin();
            S.countObligation();
            S.fail("pos " + std::to_string(Order->Order[I]) + "." +
                   std::to_string(F));
          }
        }
      });
    }
    Sched.run();
    const CheckResult &R = Sched.result(G);
    EXPECT_EQ(R.obligations(), 12u) << Threads;
    EXPECT_EQ(R.failures(), 12u) << Threads;
    std::vector<std::string> Want = {"pos 0.0", "pos 0.1", "pos 1.0",
                                     "pos 1.1", "pos 3.0", "pos 3.1",
                                     "pos 5.0", "pos 5.1"};
    EXPECT_EQ(R.issues(), Want) << Threads;
  }
}

TEST(ObligationSchedulerTest, KeylessRunsCountOncePerPoint) {
  // Units count the points checked: consecutive keyless obligations of
  // one point form one unit, a deduplicated point is one unit of its own.
  ObligationScheduler Sched(threadConfig(2));
  auto *G = Sched.group(ObCondition::BaseCase);
  for (int I = 0; I < 4; ++I)
    Sched.add(G, [](ObSink &S) {
      for (uint32_t Point = 0; Point < 3; ++Point) {
        S.at(Point, 0);
        S.begin();
        S.countObligation();
        S.begin(); // same run
        S.countObligation();
        S.beginPoint();
        S.countObligation();
        S.begin(); // a new run after the point
        S.countObligation();
      }
    });
  Sched.run();
  EXPECT_EQ(Sched.result(G).obligations(), 4u * 3u * 4u);
  EXPECT_EQ(Sched.stats().PerCondition[size_t(ObCondition::BaseCase)].Units,
            4u * 3u * 3u);
}

TEST(ObligationSchedulerTest, GroupByStoreSlicesAtStoreBoundaries) {
  // Points 0..11 over three stores, interleaved. Every store's points end
  // up adjacent and in universe order, and no slice splits a store group.
  StateArena Arena;
  StoreId S[3] = {Arena.internStore(xStore(0)), Arena.internStore(xStore(1)),
                  Arena.internStore(xStore(2))};
  std::vector<StoreId> StoreOf;
  for (size_t I = 0; I < 12; ++I)
    StoreOf.push_back(S[(I * 7) % 3]);
  std::shared_ptr<const StoreGroupedOrder> Ord =
      groupByStore(Arena, StoreOf, /*ChunkSize=*/3);
  ASSERT_EQ(Ord->Order.size(), 12u);
  std::vector<bool> Seen(12, false);
  for (size_t I = 0; I < 12; ++I) {
    Seen[Ord->Order[I]] = true;
    if (I == 0)
      continue;
    if (Ord->Group[I] == Ord->Group[I - 1]) {
      EXPECT_EQ(StoreOf[Ord->Order[I]], StoreOf[Ord->Order[I - 1]]);
      EXPECT_LT(Ord->Order[I - 1], Ord->Order[I]) << "ties keep order";
    } else {
      EXPECT_NE(StoreOf[Ord->Order[I]], StoreOf[Ord->Order[I - 1]]);
    }
  }
  EXPECT_EQ(std::count(Seen.begin(), Seen.end(), true), 12);
  // Four points per store and a chunk of three: every cut lands on the
  // next store boundary.
  EXPECT_EQ(Ord->Cuts, (std::vector<size_t>{0, 4, 8, 12}));
  // The order depends on store content only: interning the stores in
  // another order yields the same grouping.
  StateArena Other;
  StoreId T[3] = {Other.internStore(xStore(2)), Other.internStore(xStore(0)),
                  Other.internStore(xStore(1))};
  std::vector<StoreId> OtherOf;
  for (size_t I = 0; I < 12; ++I)
    OtherOf.push_back(T[((I * 7) % 3 + 1) % 3]);
  EXPECT_EQ(groupByStore(Other, OtherOf, 3)->Order, Ord->Order);
}

TEST(ObligationSchedulerTest, ChannelsFoldIntoSeparateResults) {
  ObligationScheduler Sched(threadConfig(1));
  auto *G = Sched.group(
      {ObCondition::InductiveStep, ObCondition::SideConditions});
  Sched.add(G, [](ObSink &S) {
    S.begin(1); // side-condition channel
    S.countObligation();
    S.fail("bad choice");
    S.begin(0); // inductive-step channel
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
  // Many jobs over many slices, finishing in any order: results and
  // counter statistics must not depend on the worker count.
  auto Run = [](unsigned Threads) {
    ObligationScheduler Sched(threadConfig(Threads));
    auto *G = Sched.group(ObCondition::LeftMovers);
    for (uint32_t J = 0; J < 64; ++J)
      Sched.add(G, {nullptr, J * 16u, J * 16u + 16u}, nullptr,
                [J](ObSink &S) {
        for (uint32_t K = 0; K < 16; ++K) {
          S.at(K, (J * 16 + K) / 4);
          if (K % 3)
            S.beginPoint();
          else
            S.begin();
          S.countObligation();
          if ((J + K) % 8 == 3)
            S.fail("point " + std::to_string(J * 16 + K));
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
  ASSERT_EQ(R1.issues().size(), CheckResult::MaxIssues);
  EXPECT_EQ(R1.issues()[0], "point 3");
  EXPECT_EQ(R1.failures(), 128u);
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

TEST(ScheduledRefinementTest, MatchesSerialOnPartlySimulatedTransitions) {
  // A1 steps x by 0..11, A2 by the even amounts only, listed in reverse:
  // the odd steps fail condition (2), in A1's order, however A2 lists its
  // transitions.
  Action A1("A1", 0, Action::alwaysEnabled(),
            [](const Store &G, const std::vector<Value> &) {
              std::vector<Transition> Out;
              for (int64_t K = 0; K < 12; ++K)
                Out.push_back(
                    Transition(G.set("x", iv(G.get("x").getInt() + K))));
              return Out;
            });
  Action A2("A2", 0, Action::alwaysEnabled(),
            [](const Store &G, const std::vector<Value> &) {
              std::vector<Transition> Out;
              for (int64_t K = 10; K >= 0; K -= 2)
                Out.push_back(
                    Transition(G.set("x", iv(G.get("x").getInt() + K))));
              return Out;
            });

  InternedContextUniverse Universe;
  Universe.Arena = std::make_shared<StateArena>();
  Symbol Carrier = Symbol::get("<test-args>");
  for (int64_t X : {3, 0, 3, 7}) {
    Universe.Items.push_back(
        {Universe.Arena->internStore(xStore(X)),
         Universe.Arena->internPa(PendingAsync(Carrier, {})),
         Universe.Arena->internPaSet(PaMultiset())});
  }

  CheckResult Serial = checkActionRefinement(A1, A2, Universe);
  ASSERT_FALSE(Serial.ok());
  EXPECT_EQ(Serial.failures(), 3u * 6u);
  for (unsigned Threads : {1u, 4u}) {
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
      Sched.run();
      expectSameResult(SerialL, Sched.result(GL),
                       A.str() + " left, threads " + std::to_string(Threads));
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
  ISCheckReport Serial = reference::checkIS(App, Universe);
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
  App.WfMeasure = protocols::pendingAsyncCount();
  ISUniverse Universe = ISUniverse::build(App, {{xStore(0), {}}});
  ISCheckReport Serial = reference::checkIS(App, Universe);
  ASSERT_FALSE(Serial.InductiveStep.ok());
  expectParallelMatchesSerial(App, Universe);
}

namespace {

constexpr int64_t RowsMaxIncs = 3;

/// Main's invariant with four call points (one per initial store x = 0..3,
/// from rowsInits), each with a τI of ≈470 transitions (x + J, C Incs) for
/// J + C < 120, C ≤ RowsMaxIncs, except row J = Hole(x): inductive when
/// Hole never hits a row, and otherwise failing (I3) at the three
/// transitions of row Hole(x) − 1 that create an Inc.
ISApplication makeRowsApp(std::function<int64_t(int64_t)> Hole) {
  constexpr int64_t Rows = 120;
  ISApplication App;
  App.P = makeIncrementProgram(RowsMaxIncs);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Inc")};
  App.Invariant = Action(
      "RowsInv", 0, Action::alwaysEnabled(),
      [=](const Store &G, const std::vector<Value> &) {
        std::vector<Transition> Out;
        int64_t X = G.get("x").getInt();
        for (int64_t J = 0; J < Rows; ++J) {
          if (J == Hole(X))
            continue;
          for (int64_t C = 0; C <= RowsMaxIncs && J + C < Rows; ++C) {
            Transition T(G.set("x", iv(X + J)));
            for (int64_t I = 0; I < C; ++I)
              T.Created.emplace_back("Inc", std::vector<Value>{});
            Out.push_back(std::move(T));
          }
        }
        return Out;
      });
  App.Choice = ISApplication::chooseInOrder({Symbol::get("Inc")});
  App.WfMeasure = protocols::pendingAsyncCount();
  return App;
}

std::vector<InitialCondition> rowsInits() {
  std::vector<InitialCondition> Inits;
  for (int64_t X = 0; X < 4; ++X)
    Inits.push_back({xStore(X), {}});
  return Inits;
}

} // namespace

TEST(ScheduledISCheckTest, MatchesSerialOnNonInductiveTauIAcrossSlices) {
  // (I3) slices the flattened (call point, τI index) domain. The holes
  // move towards the front as x grows, so within a slice a later call
  // point fails at a smaller τI index than an earlier one: the serial
  // loop's first CheckResult::MaxIssues diagnostics come out only if each
  // failure is placed at its flattened position.
  ISApplication App = makeRowsApp([](int64_t X) { return 110 - 30 * X; });
  ISUniverse Universe = ISUniverse::build(App, rowsInits());
  ASSERT_EQ(Universe.MCalls.Items.size(), 4u);
  ASSERT_GT(Universe.TauI.size(), 1024u);

  ISCheckReport Serial = expectParallelMatchesSerial(App, Universe, {1, 4});
  EXPECT_EQ(Serial.InductiveStep.failures(), 4u * RowsMaxIncs);
  ASSERT_EQ(Serial.InductiveStep.issues().size(), CheckResult::MaxIssues);
  ISCheckOptions Opts;
  Opts.Config.NumThreads = 4;
  EXPECT_GT(checkIS(App, Universe, Opts)
                .Scheduler.PerCondition[size_t(ObCondition::InductiveStep)]
                .Jobs,
            1u);
}

TEST(ScheduledISCheckTest, MatchesSerialOnUniverseBuiltForAnotherInvariant) {
  // The universe's τI table is the holed invariant's; checking the
  // inductive one over it must use the inductive one's τI, whether the
  // invariants are told apart by fingerprint or, unfingerprinted, by
  // object.
  for (bool Stamped : {false, true}) {
    ISApplication Holed =
        makeRowsApp([](int64_t X) { return 110 - 30 * X; });
    ISApplication Inductive = makeRowsApp([](int64_t) { return -1; });
    if (Stamped) {
      Holed.Invariant.setFp(FpHasher("holed").finish());
      Inductive.Invariant.setFp(FpHasher("inductive").finish());
    }
    ISUniverse Universe = ISUniverse::build(Holed, rowsInits());
    EXPECT_TRUE(Universe.TauI.enumerates(Holed.Invariant, Universe.MCalls));
    EXPECT_FALSE(
        Universe.TauI.enumerates(Inductive.Invariant, Universe.MCalls));
    ASSERT_FALSE(reference::checkIS(Holed, Universe).InductiveStep.ok());
    ISCheckReport Serial =
        expectParallelMatchesSerial(Inductive, Universe, {1, 4});
    EXPECT_TRUE(Serial.InductiveStep.ok()) << "stamped " << Stamped;
    EXPECT_GT(Serial.InductiveStep.obligations(), 0u);
  }
}

// --- Universes spanning many slices ------------------------------------

namespace {

/// The serial report against the scheduled one at 1 and 4 threads, on a
/// universe large enough that every store-grouped order has several
/// slices: the keys of one store must never straddle a slice boundary.
void expectMatchesSerialAcrossSlices(const isq::testing::ShippedExample &Ex) {
  ASSERT_GT(moverSliceOrder(Ex.Universe.Space)->slices(), 2u);
  expectParallelMatchesSerial(Ex.App, Ex.Universe, {1, 4});
}

std::vector<std::string> paxosFlags(const char *R, const char *N) {
  return {"--const", std::string("R=") + R, "--const", std::string("N=") + N,
          "--arg-major", "--eliminate", "StartRound,Join,Propose,Vote,Conclude",
          "--abstract", "Join=JoinAbs", "--abstract", "Propose=ProposeAbs",
          "--abstract", "Vote=VoteAbs", "--abstract", "Conclude=ConcludeAbs",
          "--weight", "StartRound=9", "--weight", "Propose=5", "--weight",
          "Conclude=2"};
}

} // namespace

TEST(ScheduledISCheckTest, MatchesReferenceOnShippedExamples) {
  // Every shipped example at its documented invocation, plus three
  // rejections of them, so that diagnostics and their order are compared
  // too: the production checker at 1 and 4 threads against the serial
  // Fig. 3 loops. MatchesSerialAcrossSlicesOnPaxosR3N2 covers paxos at
  // R=3.
  using isq::testing::documentedFlags;
  std::vector<std::pair<std::string, std::vector<std::string>>> Runs;
  for (const std::string &File : isq::testing::shippedExampleFiles())
    Runs.emplace_back(File, documentedFlags(File));
  auto Edited = [](std::vector<std::string> Flags, const std::string &From,
                   const std::string &To) {
    auto It = std::find(Flags.begin(), Flags.end(), From);
    EXPECT_NE(It, Flags.end()) << From;
    if (It != Flags.end())
      *It = To;
    return Flags;
  };
  // (CO): StartRound's weight no longer dominates its fan-out.
  Runs.emplace_back("paxos.asl", Edited(documentedFlags("paxos.asl"),
                                        "StartRound=9", "StartRound=1"));
  // (CO): four participants under the three-participant weights.
  Runs.emplace_back("two_phase_commit.asl",
                    Edited(documentedFlags("two_phase_commit.asl"), "n=3",
                           "n=4"));
  // (LM): without its abstraction, Collect is not a left mover.
  Runs.emplace_back("broadcast.asl",
                    std::vector<std::string>{"--const", "n=2", "--eliminate",
                                             "Broadcast,Collect"});
  size_t Rejected = 0;
  for (const auto &[File, Flags] : Runs) {
    SCOPED_TRACE(File);
    isq::testing::ShippedExample Ex =
        isq::testing::loadShippedExample(File, Flags);
    ASSERT_TRUE(Ex.Universe.Space.Arena);
    Rejected += !expectParallelMatchesSerial(Ex.App, Ex.Universe, {1, 4}).ok();
  }
  EXPECT_EQ(Rejected, 3u);
}

TEST(ScheduledISCheckTest, MatchesReferenceWhereAStoreReadDecidesAGate) {
  // α(Check)'s gate reads x before its assert, and Bump changes x: the
  // gate holds before Bump and fails after it, so (LM) rejects α(Check).
  // The production gate memos key this gate on its store; keyed without
  // it, the verdict at x = 0 would be reused at x = 1 and hide the
  // failure. The reference memos always key on the store.
  driver::VerifyOptions Options;
  Options.Source = "var x: int := 0;\n"
                   "var y: int := 0;\n"
                   "action Main() { async Check(1); async Bump(1); }\n"
                   "action Bump(k: int) { x := x + k; }\n"
                   "action Check(k: int) { y := k; }\n"
                   "action CheckAbs(k: int) { assert x == 0; y := k; }\n";
  Options.Eliminate = {"Check", "Bump"};
  Options.Abstractions = {{"Check", "CheckAbs"}};
  std::vector<asl::Diagnostic> Diags;
  std::optional<asl::CompiledModule> C = asl::frontend::compileSource(
      Options.Source, "", Options.Consts, Options.Frontend, Diags);
  ASSERT_TRUE(C) << (Diags.empty() ? "" : Diags[0].str());
  EXPECT_TRUE(C->P.action("CheckAbs").gateReadsStore());
  ISApplication App = driver::deriveApplication(Options, C->P);
  ISUniverse Universe = ISUniverse::build(App, {{C->InitialStore, {}}});
  ISCheckReport Serial = expectParallelMatchesSerial(App, Universe, {1, 4});
  EXPECT_TRUE(Serial.AbstractionRefinement.ok());
  EXPECT_TRUE(Serial.Cooperation.ok());
  EXPECT_FALSE(Serial.LeftMovers.ok());
  EXPECT_EQ(Serial.LeftMovers.failures(), 2u);
  ASSERT_EQ(Serial.LeftMovers.issues().size(), 2u);
  EXPECT_NE(Serial.LeftMovers.issues()[1].find("gate not forward-preserved"),
            std::string::npos);
}

TEST(ScheduledISCheckTest, MatchesSerialAcrossSlicesOnPaxosR3N2) {
  isq::testing::ShippedExample Ex =
      isq::testing::loadShippedExample("paxos.asl", paxosFlags("3", "2"));
  expectMatchesSerialAcrossSlices(Ex);
}

TEST(ScheduledISCheckTest, RetainsSerialDiagnosticsAcrossSlices) {
  // Two-phase commit with five participants under the three-participant
  // weights: (CO) fails more often than CheckResult::MaxIssues, across
  // several slices (n=4 is REJECTED too, but its universe fits one
  // slice), so the retained diagnostics are the serial loop's first ones
  // only if the fold keeps the smallest universe positions. Unreduced:
  // on the symmetry quotient (CO) fails at only 7 representatives.
  isq::testing::ShippedExample Ex = isq::testing::loadShippedExample(
      "two_phase_commit.asl",
      {"--const", "n=5", "--eliminate", "RequestVotes,Vote,Decide,Finalize",
       "--abstract", "Decide=DecideAbs", "--weight", "RequestVotes=8",
       "--weight", "Decide=4", "--engine", "symmetry=false"});
  ISCheckReport Serial = reference::checkIS(Ex.App, Ex.Universe);
  ASSERT_FALSE(Serial.Cooperation.ok());
  ASSERT_GT(Serial.Cooperation.failures(), CheckResult::MaxIssues);
  expectMatchesSerialAcrossSlices(Ex);
}
