//===- tests/symmetry_test.cpp - Orbit-canonical symmetry reduction ----------------===//
///
/// \file
/// Tests for the scalarset symmetry reduction (semantics/Symmetry.h) and
/// its integration with the state-space engine, the IS checkers, and the
/// isq-verify driver:
///
///  - group-action laws of SymmetrySpec (round trips, canonical form is
///    the lex-least image, orbit sizes divide the group order);
///  - quotient exploration: fewer interned configurations, identical
///    failure verdict, Σ orbit sizes == unreduced reachable count, and
///    orbit-expanded terminal stores equal to the unreduced set;
///  - `symmetry=true` vs `symmetry=false` differentials: identical verdicts,
///    diagnostics and accepted-status for every bundled protocol and for
///    the shipped ASL examples at 1, 2 and 8 threads.
///
/// Equivariance of the protocol actions is not checked statically (see
/// DESIGN.md); these differentials are the oracle that it holds on the
/// instances we ship.
///
//===----------------------------------------------------------------------===//

#include "driver/VerifyDriver.h"
#include "explorer/Explorer.h"
#include "is/ISCheck.h"
#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/NBuyer.h"
#include "protocols/Paxos.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "protocols/TwoPhaseCommit.h"
#include "semantics/Symmetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

using namespace isq;
using namespace isq::protocols;

namespace {

/// All permutation images of \p Domain (the spec enumerates these
/// internally; tests re-derive them to probe the group action from the
/// outside).
std::vector<std::vector<int64_t>> allImages(std::vector<int64_t> Domain) {
  std::sort(Domain.begin(), Domain.end());
  std::vector<std::vector<int64_t>> Images;
  do {
    Images.push_back(Domain);
  } while (std::next_permutation(Domain.begin(), Domain.end()));
  return Images;
}

/// The inverse image vector of \p Image over \p Domain.
std::vector<int64_t> inverseImage(const std::vector<int64_t> &Domain,
                                  const std::vector<int64_t> &Image) {
  std::vector<int64_t> Inv(Domain.size());
  for (size_t I = 0; I < Domain.size(); ++I) {
    size_t Pos = std::lower_bound(Domain.begin(), Domain.end(), Image[I]) -
                 Domain.begin();
    Inv[Pos] = Domain[I];
  }
  return Inv;
}

/// A small pool of distinct reachable configurations of \p P from
/// \p Init, explored unreduced.
std::vector<Configuration> sampleConfigs(const Program &P, const Store &Init,
                                         size_t Max) {
  ExploreOptions Opts;
  Opts.Config.Symmetry = false;
  ExploreResult R = explore(P, initialConfiguration(Init), Opts);
  if (R.Reachable.size() > Max) {
    // Deterministic spread over the whole exploration order.
    std::vector<Configuration> Picked;
    for (size_t I = 0; I < Max; ++I)
      Picked.push_back(R.Reachable[I * R.Reachable.size() / Max]);
    return Picked;
  }
  return R.Reachable;
}

ExploreResult exploreWith(const Program &P, const Store &Init, bool Symmetry,
                          unsigned Threads = 1) {
  ExploreOptions Opts;
  Opts.Config.Symmetry = Symmetry;
  Opts.Config.NumThreads = Threads;
  return explore(P, initialConfiguration(Init), Opts);
}

} // namespace

// --- Group-action laws ----------------------------------------------------

TEST(SymmetrySpecTest, DomainIsSortedAndDeduplicated) {
  SymmetrySpec Spec("node", {3, 1, 2, 3, 1});
  EXPECT_EQ(Spec.domain(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Spec.numPermutations(), 6u);
  EXPECT_EQ(Spec.sortName(), "node");
}

TEST(SymmetrySpecTest, PermutationRoundTripsOnProtocolState) {
  TwoPhaseCommitParams Params{3};
  Program P = makeTwoPhaseCommitProgram(Params);
  ASSERT_TRUE(P.symmetry());
  const SymmetrySpec &Spec = *P.symmetry();
  Store Init = makeTwoPhaseCommitInitialStore(Params);
  for (const Configuration &C : sampleConfigs(P, Init, 20)) {
    for (const std::vector<int64_t> &Image : allImages(Spec.domain())) {
      Configuration Permuted = Spec.permuteConfiguration(C, Image);
      Configuration Back = Spec.permuteConfiguration(
          Permuted, inverseImage(Spec.domain(), Image));
      EXPECT_EQ(Back, C);
    }
  }
}

TEST(SymmetrySpecTest, CanonicalIsLexLeastImageAndOrbitInvariant) {
  TwoPhaseCommitParams Params{3};
  Program P = makeTwoPhaseCommitProgram(Params);
  ASSERT_TRUE(P.symmetry());
  const SymmetrySpec &Spec = *P.symmetry();
  Store Init = makeTwoPhaseCommitInitialStore(Params);
  for (const Configuration &C : sampleConfigs(P, Init, 12)) {
    uint64_t OrbitSize = 0;
    Configuration Canon = Spec.canonical(C, &OrbitSize);
    // Idempotent, and every image canonicalizes to the same representative.
    EXPECT_EQ(Spec.canonical(Canon), Canon);
    std::vector<Configuration> Orbit;
    for (const std::vector<int64_t> &Image : allImages(Spec.domain())) {
      Configuration Permuted = Spec.permuteConfiguration(C, Image);
      EXPECT_EQ(Spec.canonical(Permuted), Canon);
      EXPECT_FALSE(Permuted < Canon) << "canonical form is not lex-least";
      Orbit.push_back(std::move(Permuted));
    }
    // Orbit size is the number of distinct images and divides |G| = n!.
    std::sort(Orbit.begin(), Orbit.end());
    Orbit.erase(std::unique(Orbit.begin(), Orbit.end()), Orbit.end());
    EXPECT_EQ(OrbitSize, Orbit.size());
    EXPECT_EQ(Spec.numPermutations() % OrbitSize, 0u);
    EXPECT_EQ(Canon, Orbit.front());
  }
}

// The engine's fast path canonicalizes the store first and then permutes
// Ω only under the store-minimizing permutations; check both halves of
// that decomposition against brute-force image enumeration.
TEST(SymmetrySpecTest, CanonicalStoreIsLexLeastAndReportsAllArgmins) {
  TwoPhaseCommitParams Params{3};
  Program P = makeTwoPhaseCommitProgram(Params);
  ASSERT_TRUE(P.symmetry());
  const SymmetrySpec &Spec = *P.symmetry();
  Store Init = makeTwoPhaseCommitInitialStore(Params);
  for (const Configuration &C : sampleConfigs(P, Init, 12)) {
    std::vector<uint32_t> MinPerms;
    Store Canon = Spec.canonicalStore(C.global(), &MinPerms);
    ASSERT_FALSE(MinPerms.empty());
    std::vector<uint32_t> Expected;
    for (uint32_t I = 0; I < Spec.numPermutations(); ++I) {
      Store Img = Spec.permuteStore(C.global(), Spec.perm(I));
      EXPECT_FALSE(Img < Canon) << "canonical store is not lex-least";
      if (Img == Canon)
        Expected.push_back(I);
    }
    EXPECT_EQ(MinPerms, Expected);
    // permuteOmega agrees with the configuration-level action.
    for (uint32_t I : MinPerms) {
      Configuration Permuted = Spec.permuteConfiguration(C, Spec.perm(I));
      EXPECT_EQ(Permuted.global(), Canon);
      EXPECT_EQ(Permuted.pendingAsyncs(),
                Spec.permuteOmega(C.pendingAsyncs(), Spec.perm(I)));
    }
  }
}

TEST(SymmetrySpecTest, OutOfDomainIdsAreFixedPoints) {
  SymmetrySpec Spec("node", {1, 2, 3});
  ValueShape Shape = ValueShape::seqOf(ValueShape::id());
  Value V = Value::seq({Value::integer(0), Value::integer(2),
                        Value::integer(7), Value::integer(3)});
  // The reversing permutation 1↔3 moves only in-domain ids.
  Value W = Spec.permuteValue(V, Shape, {3, 2, 1});
  EXPECT_EQ(W, Value::seq({Value::integer(0), Value::integer(2),
                           Value::integer(7), Value::integer(1)}));
}

TEST(SymmetrySpecTest, StoreOrbitIsSortedDistinctAndClosed) {
  TwoPhaseCommitParams Params{3};
  Program P = makeTwoPhaseCommitProgram(Params);
  const SymmetrySpec &Spec = *P.symmetry();
  Store Init = makeTwoPhaseCommitInitialStore(Params);
  // The initial store is invariant: a singleton orbit.
  EXPECT_TRUE(Spec.isInvariantStore(Init));
  EXPECT_EQ(Spec.storeOrbit(Init), std::vector<Store>{Init});
  for (const Configuration &C : sampleConfigs(P, Init, 12)) {
    std::vector<Store> Orbit = Spec.storeOrbit(C.global());
    EXPECT_TRUE(std::is_sorted(Orbit.begin(), Orbit.end()));
    EXPECT_EQ(std::unique(Orbit.begin(), Orbit.end()), Orbit.end());
    // Closure: the orbit of every member is the same set.
    for (const Store &G : Orbit)
      EXPECT_EQ(Spec.storeOrbit(G), Orbit);
  }
}

// --- Quotient exploration -------------------------------------------------

namespace {

/// Asserts the engine-level quotient laws of one symmetric instance.
void expectQuotientLaws(const std::string &Name, const Program &P,
                        const Store &Init) {
  ASSERT_TRUE(P.symmetry()) << Name;
  ExploreResult Reduced = exploreWith(P, Init, /*Symmetry=*/true);
  ExploreResult Unreduced = exploreWith(P, Init, /*Symmetry=*/false);
  ASSERT_FALSE(Reduced.Stats.Truncated) << Name;
  ASSERT_FALSE(Unreduced.Stats.Truncated) << Name;

  EXPECT_TRUE(Reduced.Engine.SymmetryReduced) << Name;
  EXPECT_FALSE(Unreduced.Engine.SymmetryReduced) << Name;
  EXPECT_LT(Reduced.Stats.NumConfigurations, Unreduced.Stats.NumConfigurations)
      << Name << ": quotient did not shrink the state space";
  EXPECT_EQ(Reduced.FailureReachable, Unreduced.FailureReachable) << Name;

  // Orbit closure: the orbits of the reached representatives partition the
  // unreduced reachable set, so their sizes sum to its cardinality.
  EXPECT_EQ(Reduced.Engine.OrbitStatesRepresented,
            Unreduced.Stats.NumConfigurations)
      << Name << ": orbit sizes do not sum to the unreduced state count";

  // Terminal stores, expanded to orbits, are exactly the unreduced set.
  std::vector<Store> Expanded;
  for (const Store &S : Reduced.TerminalStores) {
    std::vector<Store> Orbit = P.symmetry()->storeOrbit(S);
    Expanded.insert(Expanded.end(), Orbit.begin(), Orbit.end());
  }
  std::sort(Expanded.begin(), Expanded.end());
  EXPECT_EQ(Expanded, Unreduced.TerminalStores) << Name;

  // summarize performs that expansion itself (Definition 3.2's Trans is a
  // semantic object): both modes agree verbatim.
  ExploreOptions On, Off;
  Off.Config.Symmetry = false;
  ProgramSummary SOn = summarize(P, Init, {}, On);
  ProgramSummary SOff = summarize(P, Init, {}, Off);
  EXPECT_EQ(SOn.Good, SOff.Good) << Name;
  EXPECT_EQ(SOn.Trans, SOff.Trans) << Name;
}

} // namespace

TEST(SymmetryEngineTest, TwoPhaseCommitQuotient) {
  for (int64_t N : {2, 3}) {
    TwoPhaseCommitParams Params{N};
    expectQuotientLaws("2pc/" + std::to_string(N),
                       makeTwoPhaseCommitProgram(Params),
                       makeTwoPhaseCommitInitialStore(Params));
  }
}

TEST(SymmetryEngineTest, PaxosQuotient) {
  for (int64_t N : {2, 3}) {
    PaxosParams Params{2, N};
    expectQuotientLaws("paxos/" + std::to_string(N),
                       makePaxosProgram(Params),
                       makePaxosInitialStore(Params));
  }
}

TEST(SymmetryEngineTest, QuotientIsThreadCountInvariant) {
  TwoPhaseCommitParams Params{3};
  Program P = makeTwoPhaseCommitProgram(Params);
  Store Init = makeTwoPhaseCommitInitialStore(Params);
  ExploreResult Serial = exploreWith(P, Init, /*Symmetry=*/true, 1);
  for (unsigned Threads : {2u, 8u}) {
    ExploreResult Parallel = exploreWith(P, Init, /*Symmetry=*/true, Threads);
    EXPECT_EQ(Parallel.Stats.NumConfigurations, Serial.Stats.NumConfigurations);
    EXPECT_EQ(Parallel.FailureReachable, Serial.FailureReachable);
    EXPECT_EQ(Parallel.TerminalStores, Serial.TerminalStores);
    EXPECT_EQ(Parallel.Engine.OrbitStatesRepresented,
              Serial.Engine.OrbitStatesRepresented);
  }
}

// --- Checker differentials over the bundled protocols ---------------------

namespace {

void expectSameCondition(const std::string &Name, const CheckResult &A,
                         const CheckResult &B) {
  EXPECT_EQ(A.ok(), B.ok()) << Name;
  EXPECT_EQ(A.issues(), B.issues()) << Name;
}

/// Checks \p App with the quotient and the unreduced universe; verdicts and
/// diagnostics must agree (and be accepting — our bundled applications are
/// all valid, so any disagreement pins a broken equivariance assumption).
void expectCheckerDifferential(const std::string &Name,
                               const ISApplication &App, const Store &Init) {
  ExploreOptions On, Off;
  Off.Config.Symmetry = false;
  ISCheckReport Reduced = checkIS(App, {{Init, {}}}, On);
  ISCheckReport Unreduced = checkIS(App, {{Init, {}}}, Off);
  EXPECT_TRUE(Reduced.ok()) << Name << ":\n" << Reduced.str();
  expectSameCondition(Name, Reduced.SideConditions, Unreduced.SideConditions);
  expectSameCondition(Name, Reduced.AbstractionRefinement,
                      Unreduced.AbstractionRefinement);
  expectSameCondition(Name, Reduced.BaseCase, Unreduced.BaseCase);
  expectSameCondition(Name, Reduced.Conclusion, Unreduced.Conclusion);
  expectSameCondition(Name, Reduced.InductiveStep, Unreduced.InductiveStep);
  expectSameCondition(Name, Reduced.LeftMovers, Unreduced.LeftMovers);
  expectSameCondition(Name, Reduced.Cooperation, Unreduced.Cooperation);
}

} // namespace

TEST(SymmetryCheckerTest, SymmetricProtocolVerdictsMatchUnreduced) {
  {
    TwoPhaseCommitParams Params{2};
    expectCheckerDifferential("2pc/2", makeTwoPhaseCommitOneShotIS(Params),
                              makeTwoPhaseCommitInitialStore(Params));
  }
  {
    PaxosParams Params{2, 2};
    expectCheckerDifferential("paxos/2x2", makePaxosIS(Params),
                              makePaxosInitialStore(Params));
  }
}

TEST(SymmetryCheckerTest, NonSymmetricProtocolsAreUnaffected) {
  // Programs without a declared symmetric sort take the identical path in
  // both modes: the differential is trivial but pins the flag as a no-op.
  {
    BroadcastParams Params{2, {}};
    expectCheckerDifferential("broadcast/2", makeBroadcastIS(Params),
                              makeBroadcastInitialStore(Params));
  }
  {
    PingPongParams Params{2};
    expectCheckerDifferential("pingpong/2", makePingPongIS(Params),
                              makePingPongInitialStore(Params));
  }
  {
    ProducerConsumerParams Params{2};
    expectCheckerDifferential("prodcons/2", makeProducerConsumerIS(Params),
                              makeProducerConsumerInitialStore(Params));
  }
  {
    ChangRobertsParams Params{3, {2, 3, 1}};
    expectCheckerDifferential("changroberts/3",
                              makeChangRobertsOneShotIS(Params),
                              makeChangRobertsInitialStore(Params));
  }
  {
    NBuyerParams Params{2, 1, {0, 1}};
    expectCheckerDifferential("nbuyer/2", makeNBuyerOneShotIS(Params),
                              makeNBuyerInitialStore(Params));
  }
}

// --- Driver differentials over the shipped ASL examples -------------------

namespace {

std::string readExampleAsl(const std::string &Name) {
  std::ifstream In(std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name);
  EXPECT_TRUE(In.good()) << "missing example file " << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::vector<std::string> diagMessages(const driver::VerifyResult &R) {
  std::vector<std::string> Out;
  for (const asl::Diagnostic &D : R.Diags)
    Out.push_back(D.Message);
  return Out;
}

/// Runs \p Options with symmetry on and off at 1, 2 and 8 threads; every
/// run must produce the same verdict, per-condition outcome, cross-check
/// outcome and obligation count, diagnostics and exit code.
void expectDriverDifferential(const std::string &Name,
                              driver::VerifyOptions Options) {
  Options.Engine.Symmetry = true;
  Options.Engine.NumThreads = 1;
  driver::VerifyResult Baseline = verifyModule(Options);
  EXPECT_TRUE(Baseline.Accepted) << Name << ":\n" << Baseline.Summary;
  for (bool Symmetry : {true, false}) {
    for (unsigned Threads : {1u, 2u, 8u}) {
      Options.Engine.Symmetry = Symmetry;
      Options.Engine.NumThreads = Threads;
      driver::VerifyResult R = verifyModule(Options);
      std::string Mode = Name + (Symmetry ? "/sym" : "/nosym") + "/t" +
                         std::to_string(Threads);
      EXPECT_EQ(R.Accepted, Baseline.Accepted) << Mode;
      EXPECT_EQ(R.exitCode(), Baseline.exitCode()) << Mode;
      EXPECT_EQ(diagMessages(R), diagMessages(Baseline)) << Mode;
      expectSameCondition(Mode, R.Report.SideConditions,
                          Baseline.Report.SideConditions);
      expectSameCondition(Mode, R.Report.AbstractionRefinement,
                          Baseline.Report.AbstractionRefinement);
      expectSameCondition(Mode, R.Report.BaseCase, Baseline.Report.BaseCase);
      expectSameCondition(Mode, R.Report.Conclusion,
                          Baseline.Report.Conclusion);
      expectSameCondition(Mode, R.Report.InductiveStep,
                          Baseline.Report.InductiveStep);
      expectSameCondition(Mode, R.Report.LeftMovers,
                          Baseline.Report.LeftMovers);
      expectSameCondition(Mode, R.Report.Cooperation,
                          Baseline.Report.Cooperation);
      EXPECT_EQ(R.CrossCheck.Ran, Baseline.CrossCheck.Ran) << Mode;
      expectSameCondition(Mode, R.CrossCheck.Refines,
                          Baseline.CrossCheck.Refines);
      // Trans(P) is orbit-closed exactly once, in the summary, so the
      // cross-check's obligations are those of the unreduced run.
      EXPECT_EQ(R.CrossCheck.Refines.obligations(),
                Baseline.CrossCheck.Refines.obligations())
          << Mode;
      // Explored-state counts are observability, not verdict: the reduced
      // mode legitimately visits fewer P-side configurations (the checker
      // expands orbits internally). Within a mode they are thread-count
      // invariant; across modes reduced never exceeds unreduced.
      if (Symmetry) {
        EXPECT_EQ(R.CrossCheck.ConfigsP, Baseline.CrossCheck.ConfigsP) << Mode;
        EXPECT_EQ(R.CrossCheck.ConfigsPPrime,
                  Baseline.CrossCheck.ConfigsPPrime)
            << Mode;
      } else {
        EXPECT_GE(R.CrossCheck.ConfigsP, Baseline.CrossCheck.ConfigsP) << Mode;
      }
      // Only a symmetric module explored with symmetry on reduces.
      if (Symmetry) {
        EXPECT_EQ(R.Engine.SymmetryReduced, Baseline.Engine.SymmetryReduced)
            << Mode;
      } else {
        EXPECT_FALSE(R.Engine.SymmetryReduced) << Mode;
      }
      // The configuration-universe conditions range over P's orbit
      // representatives, which stand for exactly the configurations the
      // unreduced run checks one by one.
      if (!Symmetry) {
        for (engine::ObCondition C :
             {engine::ObCondition::AbstractionRefinement,
              engine::ObCondition::LeftMovers,
              engine::ObCondition::Cooperation}) {
          const auto &On =
              Baseline.Report.Scheduler.PerCondition[static_cast<size_t>(C)];
          const auto &Off =
              R.Report.Scheduler.PerCondition[static_cast<size_t>(C)];
          EXPECT_EQ(On.OrbitStates, Off.OrbitConfigs)
              << Mode << " " << engine::obConditionName(C);
        }
      }
    }
  }
}

} // namespace

TEST(SymmetryDriverTest, BroadcastExample) {
  driver::VerifyOptions Options;
  Options.Source = readExampleAsl("broadcast.asl");
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"Broadcast", "Collect"};
  Options.Abstractions = {{"Collect", "CollectAbs"}};
  expectDriverDifferential("broadcast.asl", Options);
}

TEST(SymmetryDriverTest, TwoPhaseCommitExample) {
  driver::VerifyOptions Options;
  Options.Source = readExampleAsl("two_phase_commit.asl");
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Options.Abstractions = {{"Decide", "DecideAbs"}};
  Options.Weights = {{"RequestVotes", 8}, {"Decide", 4}};
  expectDriverDifferential("two_phase_commit.asl", Options);
}

TEST(SymmetryDriverTest, PaxosExample) {
  driver::VerifyOptions Options;
  Options.Source = readExampleAsl("paxos.asl");
  Options.Consts = {{"R", 2}, {"N", 2}};
  Options.Order = driver::VerifyOptions::RankOrder::ArgMajor;
  Options.Eliminate = {"StartRound", "Join", "Propose", "Vote", "Conclude"};
  Options.Abstractions = {{"Join", "JoinAbs"},
                          {"Propose", "ProposeAbs"},
                          {"Vote", "VoteAbs"},
                          {"Conclude", "ConcludeAbs"}};
  Options.Weights = {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}};
  expectDriverDifferential("paxos.asl", Options);
}

TEST(SymmetryDriverTest, SymmetricModuleActuallyReduces) {
  driver::VerifyOptions Options;
  Options.Source = readExampleAsl("two_phase_commit.asl");
  // n=3 gives the permutation group order 6: the aggregate interned-config
  // count across the pipeline's explorations visibly shrinks.
  Options.Consts = {{"n", 3}};
  Options.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Options.Abstractions = {{"Decide", "DecideAbs"}};
  Options.Weights = {{"RequestVotes", 8}, {"Decide", 4}};
  Options.Engine.Symmetry = true;
  driver::VerifyResult On = verifyModule(Options);
  Options.Engine.Symmetry = false;
  driver::VerifyResult Off = verifyModule(Options);
  ASSERT_TRUE(On.Accepted) << On.Summary;
  EXPECT_TRUE(On.Engine.SymmetryReduced);
  EXPECT_FALSE(Off.Engine.SymmetryReduced);
  // The schedule invariant's steps stay inside P, so the universe is P's
  // quotient alone (the P[M ↦ I] leg is never explored) and the explored
  // node count shows the reduction; only P' explores unreduced.
  EXPECT_LT(On.Engine.NumConfigurations, Off.Engine.NumConfigurations);
  EXPECT_GT(On.Engine.CanonCalls, 0u);
  // Both modes stand for the same number of unreduced states.
  EXPECT_EQ(On.Engine.OrbitStatesRepresented, Off.Engine.OrbitStatesRepresented);
}
