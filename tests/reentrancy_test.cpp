//===- tests/reentrancy_test.cpp - VerifyDriver re-entrancy -------------------------===//
///
/// \file
/// The engine re-entrancy contract behind isq-serve (DESIGN.md "Serve
/// subsystem"): multiple VerifyDriver jobs may run concurrently in one
/// process, and each produces a verdict bit-identical (modulo timing
/// fields) to the same job run serially. The only process-global mutable
/// state reachable from verifyModule is the interned Symbol table, which
/// is mutex-protected and append-only; this test is the executable check
/// of that audit and runs under TSan in CI (tools/ci.sh).
///
//===----------------------------------------------------------------------===//

#include "driver/ReportRender.h"
#include "driver/VerifyDriver.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

using namespace isq;

namespace {

std::string readExampleAsl(const std::string &Name) {
  std::ifstream In(std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name);
  EXPECT_TRUE(In.good()) << "missing example file " << Name;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Blanks the wall-clock fields — and the steal count, which is
/// schedule-dependent when the engine runs threaded (tools/ci.sh scrubs
/// it in the engine differential for the same reason) — so runs compare
/// bit-identically.
std::string scrubTimings(const std::string &Json) {
  return json::zeroNumbers(Json, {"*seconds", "steals"});
}

/// Two *different* jobs — distinct modules, ranks, abstractions — so the
/// concurrent runs exercise disjoint proof pipelines, not one shared
/// computation. Instances are small: the point is interleaving under
/// TSan, not state-space depth.
driver::VerifyOptions pingPongJob() {
  driver::VerifyOptions O;
  O.Source = readExampleAsl("ping_pong.asl");
  O.Consts["T"] = 2;
  O.Eliminate = {"Ping", "Pong"};
  O.Abstractions = {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}};
  O.Order = driver::VerifyOptions::RankOrder::ArgMajor;
  return O;
}

driver::VerifyOptions broadcastJob() {
  driver::VerifyOptions O;
  O.Source = readExampleAsl("broadcast.asl");
  O.Consts["n"] = 2;
  O.Eliminate = {"Broadcast", "Collect"};
  O.Abstractions = {{"Collect", "CollectAbs"}};
  return O;
}

std::string scrubbedVerdict(const driver::VerifyOptions &O) {
  return scrubTimings(driver::renderJson(driver::verifyModule(O)));
}

} // namespace

TEST(ReentrancyTest, ConcurrentJobsMatchSerialVerdicts) {
  driver::VerifyOptions JobA = pingPongJob();
  driver::VerifyOptions JobB = broadcastJob();

  // Serial baselines first.
  std::string SerialA = scrubbedVerdict(JobA);
  std::string SerialB = scrubbedVerdict(JobB);
  ASSERT_NE(SerialA.find("\"accepted\":true"), std::string::npos);
  ASSERT_NE(SerialB.find("\"accepted\":true"), std::string::npos);

  // Now both jobs at once, twice each, from four threads.
  constexpr int Rounds = 2;
  std::vector<std::string> ConcurrentA(Rounds), ConcurrentB(Rounds);
  std::vector<std::thread> Threads;
  for (int I = 0; I < Rounds; ++I) {
    Threads.emplace_back(
        [&, I] { ConcurrentA[I] = scrubbedVerdict(JobA); });
    Threads.emplace_back(
        [&, I] { ConcurrentB[I] = scrubbedVerdict(JobB); });
  }
  for (std::thread &T : Threads)
    T.join();

  for (int I = 0; I < Rounds; ++I) {
    EXPECT_EQ(ConcurrentA[I], SerialA)
        << "concurrent ping-pong verdict diverged from serial run " << I;
    EXPECT_EQ(ConcurrentB[I], SerialB)
        << "concurrent broadcast verdict diverged from serial run " << I;
  }
}

TEST(ReentrancyTest, ConcurrentMultiThreadedJobsMatch) {
  // Re-entrancy composed with internal parallelism: each concurrent job
  // itself runs the engine and scheduler with two threads.
  driver::VerifyOptions JobA = pingPongJob();
  driver::VerifyOptions JobB = broadcastJob();
  JobA.Engine.NumThreads = 2;
  JobB.Engine.NumThreads = 2;

  std::string SerialA = scrubbedVerdict(JobA);
  std::string SerialB = scrubbedVerdict(JobB);

  std::string ConcurrentA, ConcurrentB;
  std::thread TA([&] { ConcurrentA = scrubbedVerdict(JobA); });
  std::thread TB([&] { ConcurrentB = scrubbedVerdict(JobB); });
  TA.join();
  TB.join();

  EXPECT_EQ(ConcurrentA, SerialA);
  EXPECT_EQ(ConcurrentB, SerialB);
}

TEST(ReentrancyTest, ConcurrentCompileErrorsIsolated) {
  // A failing compile in one thread must not perturb a clean run in
  // another (diagnostics are per-result, not global).
  driver::VerifyOptions Good = pingPongJob();
  driver::VerifyOptions Bad;
  Bad.Source = "action ( nonsense";
  Bad.Eliminate = {"A"};

  std::string SerialGood = scrubbedVerdict(Good);

  std::string ConcurrentGood;
  driver::VerifyResult BadResult;
  std::thread TG([&] { ConcurrentGood = scrubbedVerdict(Good); });
  std::thread TB([&] { BadResult = driver::verifyModule(Bad); });
  TG.join();
  TB.join();

  EXPECT_EQ(ConcurrentGood, SerialGood);
  EXPECT_FALSE(BadResult.CompileOk);
  EXPECT_EQ(BadResult.exitCode(), 2);
  EXPECT_FALSE(BadResult.Diags.empty());
}
