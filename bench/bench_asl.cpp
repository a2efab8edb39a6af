//===- bench/bench_asl.cpp - ASL frontend overhead ----------------------------------===//
///
/// \file
/// Quantifies the textual frontend: compilation throughput (lex + parse +
/// type check + close over the semantics) and the interpretation overhead
/// of verifying an ASL-defined protocol versus its native C++ twin. The
/// proof-rule engine is frontend-agnostic, so the obligation counts
/// coincide; only the per-transition evaluation cost differs.
///
//===----------------------------------------------------------------------===//

#include "driver/VerifyDriver.h"
#include "lang/Frontend.h"
#include "protocols/Broadcast.h"
#include "reference/ISCheck.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>

using namespace isq;

namespace {

std::string readExampleAsl(const char *Name) {
  std::ifstream In(std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

void BM_CompileBroadcastModule(benchmark::State &State) {
  std::string Source = readExampleAsl("broadcast.asl");
  size_t Actions = 0;
  for (auto _ : State) {
    std::vector<asl::Diagnostic> Diags;
    auto C = asl::frontend::compileSource(
        Source, "", {{"n", State.range(0)}},
        asl::frontend::FrontendVersion::V2, Diags);
    Actions = C ? C->P.actionNames().size() : 0;
    benchmark::DoNotOptimize(C);
  }
  State.counters["actions"] = static_cast<double>(Actions);
}
BENCHMARK(BM_CompileBroadcastModule)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMicrosecond);

void BM_VerifyBroadcastAsl(benchmark::State &State) {
  driver::VerifyOptions Options;
  Options.Source = readExampleAsl("broadcast.asl");
  Options.Consts = {{"n", State.range(0)}};
  Options.Eliminate = {"Broadcast", "Collect"};
  Options.Abstractions = {{"Collect", "CollectAbs"}};
  Options.CrossCheck = false;
  bool Accepted = false;
  size_t Obligations = 0;
  for (auto _ : State) {
    driver::VerifyResult Result = driver::verifyModule(Options);
    Accepted = Result.Accepted;
    Obligations = Result.Report.totalObligations();
  }
  State.counters["accepted"] = Accepted ? 1 : 0;
  State.counters["obligations"] = static_cast<double>(Obligations);
}
BENCHMARK(BM_VerifyBroadcastAsl)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

void BM_VerifyBroadcastNative(benchmark::State &State) {
  using namespace isq::protocols;
  BroadcastParams Params{State.range(0), {}};
  bool Accepted = false;
  size_t Obligations = 0;
  for (auto _ : State) {
    ISApplication App = makeBroadcastIS(Params);
    ISCheckReport Report =
        checkIS(App, {{makeBroadcastInitialStore(Params), {}}});
    Accepted = Report.ok();
    Obligations = Report.totalObligations();
  }
  State.counters["accepted"] = Accepted ? 1 : 0;
  State.counters["obligations"] = static_cast<double>(Obligations);
}
BENCHMARK(BM_VerifyBroadcastNative)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

void BM_VerifyPaxosAsl(benchmark::State &State) {
  driver::VerifyOptions Options;
  Options.Source = readExampleAsl("paxos.asl");
  Options.Consts = {{"R", 2}, {"N", 2}};
  Options.Eliminate = {"StartRound", "Join", "Propose", "Vote",
                       "Conclude"};
  Options.Order = driver::VerifyOptions::RankOrder::ArgMajor;
  Options.Abstractions = {{"Join", "JoinAbs"},
                          {"Propose", "ProposeAbs"},
                          {"Vote", "VoteAbs"},
                          {"Conclude", "ConcludeAbs"}};
  Options.Weights = {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}};
  Options.CrossCheck = false;
  bool Accepted = false;
  for (auto _ : State) {
    driver::VerifyResult Result = driver::verifyModule(Options);
    Accepted = Result.Accepted;
  }
  State.counters["accepted"] = Accepted ? 1 : 0;
}
BENCHMARK(BM_VerifyPaxosAsl)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
