//===- bench/bench_verify.cpp - End-to-end checker-phase benchmarks ----------------===//
///
/// \file
/// Benchmarks the isq-verify pipeline end-to-end on the shipped Paxos
/// module, isolating the obligation-checking phase: once exploration is
/// parallel (PR 2), checking dominates wall-clock, and this is the
/// workload the obligation scheduler exists for. Modes mirror the engine
/// benchmarks: 0 = the serial reference checker loops
/// (--engine parallel-check=false), N >= 1 = the obligation scheduler
/// with N worker threads. Consumed by tools/bench_engine.sh, which emits
/// the checker section of BENCH_engine.json and computes the speedups.
///
//===----------------------------------------------------------------------===//

#include "driver/VerifyDriver.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>

using namespace isq;
using namespace isq::driver;

namespace {

std::string readExampleAsl(const char *Name) {
  std::ifstream In(std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Runs verifyModule once per iteration. The exploration phase is shared
/// by all modes (and measured by BM_Engine*); the counters isolate the
/// checking phase this benchmark is about.
void reportVerify(benchmark::State &State, VerifyOptions Options,
                  int64_t Mode) {
  Options.CrossCheck = false; // exploration-bound; BM_Engine* covers it
  if (Mode == 0) {
    Options.Engine.ParallelCheck = false;
    Options.Engine.NumThreads = 1;
  } else {
    Options.Engine.ParallelCheck = true;
    Options.Engine.NumThreads = static_cast<unsigned>(Mode);
  }
  double CheckSeconds = 0, ExploreSeconds = 0;
  size_t Obligations = 0;
  for (auto _ : State) {
    VerifyResult R = verifyModule(Options);
    if (!R.Accepted) {
      State.SkipWithError("proof unexpectedly rejected");
      return;
    }
    ExploreSeconds = R.Engine.TotalSeconds;
    CheckSeconds = R.TotalSeconds - ExploreSeconds;
    const ISCheckReport &Rep = R.Report;
    Obligations = Rep.SideConditions.obligations() +
                  Rep.AbstractionRefinement.obligations() +
                  Rep.BaseCase.obligations() + Rep.Conclusion.obligations() +
                  Rep.InductiveStep.obligations() +
                  Rep.LeftMovers.obligations() + Rep.Cooperation.obligations();
    benchmark::DoNotOptimize(R);
  }
  State.counters["check_seconds"] = CheckSeconds;
  State.counters["explore_seconds"] = ExploreSeconds;
  State.counters["obligations"] = static_cast<double>(Obligations);
}

/// Paxos with 2 rounds over N acceptors (N = 3 is the paper-scale
/// instance; unreduced its universe has ~485k configurations and ~4.3M
/// serial obligations — symmetry reduction, on by default, shrinks both;
/// see BM_VerifySymmetry* for the on/off differential).
void BM_CheckerPaxos(benchmark::State &State) {
  int64_t N = State.range(0);
  VerifyOptions Options;
  Options.Source = readExampleAsl("paxos.asl");
  Options.Consts = {{"R", 2}, {"N", N}};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Eliminate = {"StartRound", "Join", "Propose", "Vote", "Conclude"};
  Options.Abstractions = {{"Join", "JoinAbs"},
                          {"Propose", "ProposeAbs"},
                          {"Vote", "VoteAbs"},
                          {"Conclude", "ConcludeAbs"}};
  // Weights must dominate the fan-out (see the module header).
  Options.Weights = N >= 3
                        ? std::map<std::string, uint64_t>{{"StartRound", 11},
                                                          {"Propose", 6},
                                                          {"Conclude", 2}}
                        : std::map<std::string, uint64_t>{{"StartRound", 9},
                                                          {"Propose", 5},
                                                          {"Conclude", 2}};
  reportVerify(State, std::move(Options), State.range(1));
}
BENCHMARK(BM_CheckerPaxos)
    ->Args({2, 0}) // serial reference loops
    ->Args({2, 1}) // scheduler, 1 worker
    ->Args({2, 4}) // scheduler, 4 workers
    ->Args({3, 0})
    // Full worker sweep on the paper-scale instance: BENCH_engine.json
    // records how checker throughput scales from 1 to 8 workers (the
    // acceptance target compares mode 0 against mode 4).
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({3, 3})
    ->Args({3, 4})
    ->Args({3, 5})
    ->Args({3, 6})
    ->Args({3, 7})
    ->Args({3, 8})
    ->Unit(benchmark::kMillisecond);

/// End-to-end isq-verify wall-clock with and without symmetry reduction on
/// the symmetric modules. Mode 0 = --engine symmetry=false, Mode 1 =
/// reduced; both use the scheduler with one worker so the ratio isolates
/// the quotient.
void reportVerifySymmetry(benchmark::State &State, VerifyOptions Options,
                          int64_t Mode) {
  Options.Engine.Symmetry = Mode == 1;
  Options.Engine.NumThreads = 1;
  size_t Configs = 0, Interned = 0;
  for (auto _ : State) {
    VerifyResult R = verifyModule(Options);
    if (!R.Accepted) {
      State.SkipWithError("proof unexpectedly rejected");
      return;
    }
    Configs = R.Engine.NumConfigurations;
    Interned = R.Engine.InternedConfigs;
    benchmark::DoNotOptimize(R);
  }
  State.counters["configs"] = static_cast<double>(Configs);
  State.counters["interned_configs"] = static_cast<double>(Interned);
}

void BM_VerifySymmetryPaxos(benchmark::State &State) {
  int64_t N = State.range(0);
  VerifyOptions Options;
  Options.Source = readExampleAsl("paxos.asl");
  Options.Consts = {{"R", 2}, {"N", N}};
  Options.Order = VerifyOptions::RankOrder::ArgMajor;
  Options.Eliminate = {"StartRound", "Join", "Propose", "Vote", "Conclude"};
  Options.Abstractions = {{"Join", "JoinAbs"},
                          {"Propose", "ProposeAbs"},
                          {"Vote", "VoteAbs"},
                          {"Conclude", "ConcludeAbs"}};
  Options.Weights = N >= 3
                        ? std::map<std::string, uint64_t>{{"StartRound", 11},
                                                          {"Propose", 6},
                                                          {"Conclude", 2}}
                        : std::map<std::string, uint64_t>{{"StartRound", 9},
                                                          {"Propose", 5},
                                                          {"Conclude", 2}};
  reportVerifySymmetry(State, std::move(Options), State.range(1));
}
BENCHMARK(BM_VerifySymmetryPaxos)
    ->Args({3, 0}) // unreduced (--engine symmetry=false)
    ->Args({3, 1}) // orbit-canonical quotient
    ->Unit(benchmark::kMillisecond);

void BM_VerifySymmetryTwoPhaseCommit(benchmark::State &State) {
  VerifyOptions Options;
  Options.Source = readExampleAsl("two_phase_commit.asl");
  Options.Consts = {{"n", State.range(0)}};
  Options.Eliminate = {"RequestVotes", "Vote", "Decide", "Finalize"};
  Options.Abstractions = {{"Decide", "DecideAbs"}};
  Options.Weights = {{"RequestVotes", 8}, {"Decide", 4}};
  reportVerifySymmetry(State, std::move(Options), State.range(1));
}
BENCHMARK(BM_VerifySymmetryTwoPhaseCommit)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
