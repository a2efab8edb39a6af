//===- tests/driver_test.cpp - Verification driver tests ---------------------------===//
///
/// \file
/// End-to-end tests of the isq-verify pipeline: ASL protocols with their
/// proof artifacts (sequentialization order, pending()-gated abstractions,
/// cooperation weights) verified push-button.
///
//===----------------------------------------------------------------------===//

#include "driver/CliOptions.h"
#include "driver/VerifyDriver.h"
#include "is/Sequentialize.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace isq;
using namespace isq::driver;

namespace {

/// Reads one of the shipped example modules, keeping the tests honest
/// about the files users actually see.
std::string readExampleAsl(const std::string &Name) {
  std::ifstream In(std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name);
  EXPECT_TRUE(In.good()) << "missing example file " << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// The Fig. 1 protocol plus its Fig. 1-④ abstraction, entirely in ASL.
const char *BroadcastWithAbs = R"(
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

// Fig. 1-④: the gate asserts the sequential-context facts — no pending
// Broadcasts and a full channel — making Collect a non-blocking left
// mover.
action CollectAbs(i: int) {
  assert pending(Broadcast) == 0;
  assert size(CH[i]) >= n;
  await size(CH[i]) >= n;
  choose vs in sub_bags(CH[i], n);
  CH[i] := diff(CH[i], vs);
  decision[i] := some(max(vs));
}
)";

} // namespace

TEST(DriverTest, BroadcastAcceptedPushButton) {
  VerifyOptions Options;
  Options.Source = BroadcastWithAbs;
  Options.Consts = {{"n", 3}};
  Options.Eliminate = {"Broadcast", "Collect"};
  Options.Abstractions = {{"Collect", "CollectAbs"}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk) << Result.Summary;
  EXPECT_TRUE(Result.Accepted) << Result.Summary;
  EXPECT_NE(Result.Summary.find("ACCEPTED"), std::string::npos);
  EXPECT_NE(Result.Summary.find("P ≼ P'"), std::string::npos);
}

TEST(DriverTest, MissingAbstractionRejected) {
  VerifyOptions Options;
  Options.Source = BroadcastWithAbs;
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"Broadcast", "Collect"};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_FALSE(Result.Report.LeftMovers.ok()) << Result.Summary;
}

TEST(DriverTest, WrongEliminationOrderRejected) {
  VerifyOptions Options;
  Options.Source = BroadcastWithAbs;
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"Collect", "Broadcast"};
  Options.Abstractions = {{"Collect", "CollectAbs"}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_FALSE(Result.Report.InductiveStep.ok()) << Result.Summary;
}

TEST(DriverTest, CompileErrorsSurface) {
  VerifyOptions Options;
  Options.Source = "action Main() { oops; }";
  Options.Eliminate = {"Main"};
  VerifyResult Result = verifyModule(Options);
  EXPECT_FALSE(Result.CompileOk);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_NE(Result.Summary.find("compilation failed"), std::string::npos);
}

TEST(DriverTest, UnknownActionNamesDiagnosed) {
  VerifyOptions Options;
  Options.Source = "action Main() { skip; }";
  Options.Consts = {};
  Options.Eliminate = {"Nope"};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_NE(Result.Summary.find("not declared"), std::string::npos);

  Options.Eliminate = {"Main"};
  Options.RewriteAction = "Missing";
  Result = verifyModule(Options);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_NE(Result.Summary.find("not declared"), std::string::npos);
}

TEST(DriverTest, PingPongChainInAsl) {
  // A two-task chain: Ping(k) sends k, Pong(k) acknowledges; weights make
  // the measure decrease although each task re-creates its successor.
  const char *Source = R"(
const T: int;
var chPing: bag<int> := {};
var chPong: bag<int> := {};
var done: int := 0;

action Main() {
  async Ping(1);
  async Pong(1);
}

action Ping(k: int) {
  if k > 1 {
    await size(chPing) >= 1;
    choose a in chPing;
    chPing := erase(chPing, a);
    assert a == k - 1;
  }
  if k <= T {
    chPong := insert(chPong, k);
    async Ping(k + 1);
  } else {
    done := done + 1;
  }
}

action Pong(k: int) {
  await size(chPong) >= 1;
  choose v in chPong;
  chPong := erase(chPong, v);
  assert v == k;
  chPing := insert(chPing, k);
  if k < T {
    async Pong(k + 1);
  }
}

action PingAbs(k: int) {
  assert k == 1 || size(chPing) >= 1;
  if k > 1 {
    await size(chPing) >= 1;
    choose a in chPing;
    chPing := erase(chPing, a);
    assert a == k - 1;
  }
  if k <= T {
    chPong := insert(chPong, k);
    async Ping(k + 1);
  } else {
    done := done + 1;
  }
}

action PongAbs(k: int) {
  assert size(chPong) >= 1;
  await size(chPong) >= 1;
  choose v in chPong;
  chPong := erase(chPong, v);
  assert v == k;
  chPing := insert(chPing, k);
  if k < T {
    async Pong(k + 1);
  }
}
)";
  VerifyOptions Options;
  Options.Source = Source;
  Options.Consts = {{"T", 2}};
  Options.Eliminate = {"Ping", "Pong"};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Abstractions = {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.CompileOk) << Result.Summary;
  EXPECT_TRUE(Result.Accepted) << Result.Summary;
}

TEST(DriverTest, ShippedBroadcastExampleVerifies) {
  VerifyOptions Options;
  Options.Source = readExampleAsl("broadcast.asl");
  Options.Consts = {{"n", 3}};
  Options.Eliminate = {"Broadcast", "Collect"};
  Options.Abstractions = {{"Collect", "CollectAbs"}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.Accepted) << Result.Summary;
}

TEST(DriverTest, ShippedPingPongExampleVerifies) {
  VerifyOptions Options;
  Options.Source = readExampleAsl("ping_pong.asl");
  Options.Consts = {{"T", 3}};
  Options.Eliminate = {"Ping", "Pong"};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Abstractions = {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.Accepted) << Result.Summary;
}

TEST(DriverTest, ShippedTwoPhaseCommitExampleVerifies) {
  // 2PC with early abort: the fan-out phases need cooperation weights
  // that dominate what they spawn; Decide needs the all-votes-arrived
  // abstraction to be a left mover (it reads what Vote writes).
  VerifyOptions Options;
  Options.Source = readExampleAsl("two_phase_commit.asl");
  Options.Consts = {{"n", 3}};
  Options.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Options.Abstractions = {{"Decide", "DecideAbs"}};
  Options.Weights = {{"RequestVotes", 10}, {"Decide", 5}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.Accepted) << Result.Summary;
}

TEST(DriverTest, TwoPhaseCommitWithoutWeightsFailsCooperation) {
  // Default weight 1 everywhere: RequestVotes spawns n+1 PAs for 1 — the
  // weighted count increases and the (CO) condition correctly fails.
  VerifyOptions Options;
  Options.Source = readExampleAsl("two_phase_commit.asl");
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Options.Abstractions = {{"Decide", "DecideAbs"}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_FALSE(Result.Report.Cooperation.ok()) << Result.Summary;
}

TEST(DriverTest, TwoPhaseCommitWithoutDecideAbstractionRejected) {
  VerifyOptions Options;
  Options.Source = readExampleAsl("two_phase_commit.asl");
  Options.Consts = {{"n", 2}};
  Options.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Options.Weights = {{"RequestVotes", 10}, {"Decide", 5}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_FALSE(Result.Report.LeftMovers.ok()) << Result.Summary;
}

TEST(DriverTest, ShippedPaxosExampleVerifies) {
  // The paper's flagship (Fig. 4) as ASL input: round-by-round arg-major
  // schedule, Fig. 4(c) abstractions with pending_le gates, fan-out
  // weights for cooperation.
  VerifyOptions Options;
  Options.Source = readExampleAsl("paxos.asl");
  Options.Consts = {{"R", 2}, {"N", 2}};
  Options.Eliminate = {"StartRound", "Join", "Propose", "Vote",
                       "Conclude"};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Abstractions = {{"Join", "JoinAbs"},
                          {"Propose", "ProposeAbs"},
                          {"Vote", "VoteAbs"},
                          {"Conclude", "ConcludeAbs"}};
  Options.Weights = {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_TRUE(Result.Accepted) << Result.Summary;
}

TEST(DriverTest, PaxosWithoutProposeAbstractionRejected) {
  VerifyOptions Options;
  Options.Source = readExampleAsl("paxos.asl");
  Options.Consts = {{"R", 2}, {"N", 2}};
  Options.Eliminate = {"StartRound", "Join", "Propose", "Vote",
                       "Conclude"};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Abstractions = {{"Join", "JoinAbs"},
                          {"Vote", "VoteAbs"},
                          {"Conclude", "ConcludeAbs"}};
  Options.Weights = {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}};
  VerifyResult Result = verifyModule(Options);
  EXPECT_FALSE(Result.Accepted);
  EXPECT_FALSE(Result.Report.LeftMovers.ok()) << Result.Summary;
}

// --- The P ≼ P' cross-check reuses the universe's P leg --------------------

namespace {

/// The jobs of examples/asl/serve_manifest.txt, parsed with the
/// isq-verify command-line parser and loaded like isq-verify loads them.
std::vector<VerifyOptions> serveManifestJobs() {
  std::string Dir = std::string(ISQ_SOURCE_DIR) + "/examples/asl/";
  std::ifstream In(Dir + "serve_manifest.txt");
  EXPECT_TRUE(In.good()) << "missing serve_manifest.txt";
  std::vector<VerifyOptions> Jobs;
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Words(Line);
    std::vector<std::string> Args;
    for (std::string Word; Words >> Word;)
      Args.push_back(Word);
    CliParse Parse = parseCommandLine(Args);
    EXPECT_TRUE(Parse.Ok) << Line << ": " << Parse.Error;
    VerifyOptions Job = Parse.Options.Verify;
    Job.Source = readExampleAsl(Parse.Options.InputPath);
    Job.SourcePath = Dir + Parse.Options.InputPath;
    Jobs.push_back(std::move(Job));
  }
  return Jobs;
}

/// The paxos R=2 N=2 job of driver_test's ShippedPaxosExampleVerifies.
VerifyOptions paxosTwoByTwo() {
  VerifyOptions Options;
  Options.Source = readExampleAsl("paxos.asl");
  Options.Consts = {{"R", 2}, {"N", 2}};
  Options.Eliminate = {"StartRound", "Join", "Propose", "Vote",
                       "Conclude"};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Abstractions = {{"Join", "JoinAbs"},
                          {"Propose", "ProposeAbs"},
                          {"Vote", "VoteAbs"},
                          {"Conclude", "ConcludeAbs"}};
  Options.Weights = {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}};
  return Options;
}

} // namespace

TEST(DriverCrossCheckTest, MatchesStandaloneReferenceOnServeManifest) {
  // The reference: the program-level checkProgramRefinement run
  // standalone and unreduced, exploring P and P' itself.
  ExploreOptions Reference;
  Reference.Config.Symmetry = false;
  for (VerifyOptions &Job : serveManifestJobs()) {
    Job.Engine.NumThreads = 2;
    VerifyResult R = verifyModule(Job);
    ASSERT_TRUE(R.Accepted) << Job.SourcePath << ":\n" << R.Summary;
    ASSERT_TRUE(R.CrossCheck.Ran) << Job.SourcePath;
    std::vector<asl::Diagnostic> Diags;
    std::optional<asl::CompiledModule> C = asl::frontend::compileSource(
        Job.Source, Job.SourcePath, Job.Consts, Job.Frontend, Diags);
    ASSERT_TRUE(C) << Job.SourcePath;
    Program PPrime = applyIS(deriveApplication(Job, C->P));
    CheckResult Expected = checkProgramRefinement(
        C->P, PPrime, {{C->InitialStore, {}}}, Reference);
    const CheckResult &Got = R.CrossCheck.Refines;
    EXPECT_EQ(Got.ok(), Expected.ok()) << Job.SourcePath;
    EXPECT_EQ(Got.obligations(), Expected.obligations()) << Job.SourcePath;
    EXPECT_EQ(Got.issues(), Expected.issues()) << Job.SourcePath;
    EXPECT_EQ(R.CrossCheck.ConfigsPPrime,
              summarize(PPrime, C->InitialStore, {}, Reference)
                  .Engine.NumConfigurations)
        << Job.SourcePath;
  }
}

TEST(DriverCrossCheckTest, ExploresPOnceAndPPrimeOnce) {
  VerifyOptions Broadcast;
  Broadcast.Source = readExampleAsl("broadcast.asl");
  Broadcast.Consts = {{"n", 3}};
  Broadcast.Eliminate = {"Broadcast", "Collect"};
  Broadcast.Abstractions = {{"Collect", "CollectAbs"}};
  // Broadcast has no symmetric sort; paxos runs its P leg reduced.
  for (VerifyOptions Options : {Broadcast, paxosTwoByTwo()}) {
    Options.CrossCheck = false;
    VerifyResult Universe = verifyModule(Options);
    Options.CrossCheck = true;
    VerifyResult R = verifyModule(Options);
    ASSERT_TRUE(R.Accepted) << R.Summary;
    ASSERT_TRUE(R.CrossCheck.Ran);
    // Engine.NumConfigurations = the universe's explorations + P': the
    // cross-check adds exactly one exploration, of P'.
    EXPECT_EQ(R.Engine.NumConfigurations,
              Universe.Engine.NumConfigurations + R.CrossCheck.ConfigsPPrime);
    // ConfigsP is the universe's P leg, explored under the same engine
    // configuration.
    std::vector<asl::Diagnostic> Diags;
    std::optional<asl::CompiledModule> C = asl::frontend::compileSource(
        Options.Source, Options.SourcePath, Options.Consts, Options.Frontend,
        Diags);
    ASSERT_TRUE(C);
    ExploreOptions Explore;
    Explore.Config = Options.Engine;
    EXPECT_EQ(R.CrossCheck.ConfigsP,
              summarize(C->P, C->InitialStore, {}, Explore)
                  .Engine.NumConfigurations);
  }
}
