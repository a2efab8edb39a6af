//===- bench/bench_paxos.cpp - Paxos case-study experiment (§5.2) -------------------===//
///
/// \file
/// The Paxos row of Table 1 in depth (the paper's most significant case
/// study): runs the full IS verification pipeline across instance sizes
/// (rounds × acceptors) and reports per-condition obligation counts,
/// universe sizes (orbit representatives of P ∪ P[M ↦ I]), and the
/// state-count contrast between the asynchronous protocol and its
/// sequential reduction Paxos'.
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/Paxos.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"

#include <benchmark/benchmark.h>

using namespace isq;
using namespace isq::protocols;

namespace {

void BM_PaxosPipeline(benchmark::State &State) {
  PaxosParams Params{State.range(0), State.range(1)};
  Store Init = makePaxosInitialStore(Params);
  ISCheckReport Report;
  size_t UniverseSize = 0;
  for (auto _ : State) {
    ISApplication App = makePaxosIS(Params);
    ISUniverse U = ISUniverse::build(App, {{Init, {}}});
    UniverseSize = U.Space.Configs.size();
    Report = checkIS(App, U);
  }
  State.counters["universe_configs"] = static_cast<double>(UniverseSize);
  State.counters["obligations_total"] =
      static_cast<double>(Report.totalObligations());
  State.counters["obligations_left_mover"] =
      static_cast<double>(Report.LeftMovers.obligations());
  State.counters["obligations_induction"] =
      static_cast<double>(Report.InductiveStep.obligations());
  State.counters["accepted"] = Report.ok() ? 1 : 0;
}
BENCHMARK(BM_PaxosPipeline)
    ->Args({1, 3})
    ->Args({2, 2})
    ->Args({2, 3})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_PaxosSequentialReduction(benchmark::State &State) {
  PaxosParams Params{State.range(0), State.range(1)};
  Store Init = makePaxosInitialStore(Params);
  ISApplication App = makePaxosIS(Params);
  Program PPrime = applyIS(App);
  size_t ConfigsP = 0, ConfigsS = 0, Outcomes = 0;
  bool Safe = true;
  for (auto _ : State) {
    ExploreResult RP = explore(App.P, initialConfiguration(Init));
    ExploreResult RS = explore(PPrime, initialConfiguration(Init));
    ConfigsP = RP.Stats.NumConfigurations;
    ConfigsS = RS.Stats.NumConfigurations;
    Outcomes = RS.TerminalStores.size();
    for (const Store &Final : RS.TerminalStores)
      Safe = Safe && checkPaxosSpec(Final, Params);
  }
  State.counters["configs_P"] = static_cast<double>(ConfigsP);
  State.counters["configs_Pprime"] = static_cast<double>(ConfigsS);
  State.counters["outcomes"] = static_cast<double>(Outcomes);
  State.counters["safe"] = Safe ? 1 : 0;
}
BENCHMARK(BM_PaxosSequentialReduction)
    ->Args({1, 3})
    ->Args({2, 2})
    ->Args({2, 3})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
