//===- bench/bench_statespace.cpp - Interleaving-explosion experiment --------------===//
///
/// \file
/// Regenerates the paper's §1/§2 claim that the sequential reduction
/// eliminates the interleaving explosion: for every protocol, compares the
/// number of reachable configurations (and transitions) of the
/// asynchronous program P against the sequentialized P' = P[M ↦ M'],
/// sweeping the instance size. P grows combinatorially; P' stays at
/// 1 + #outcomes.
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/Paxos.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"

#include <benchmark/benchmark.h>

using namespace isq;
using namespace isq::protocols;

namespace {

void reportPair(benchmark::State &State, const Program &P,
                const Program &PPrime, const Store &Init) {
  size_t ConfigsP = 0, ConfigsPPrime = 0, TransP = 0;
  for (auto _ : State) {
    ExploreResult RP = explore(P, initialConfiguration(Init));
    ExploreResult RS = explore(PPrime, initialConfiguration(Init));
    ConfigsP = RP.Stats.NumConfigurations;
    TransP = RP.Stats.NumTransitions;
    ConfigsPPrime = RS.Stats.NumConfigurations;
  }
  State.counters["configs_P"] = static_cast<double>(ConfigsP);
  State.counters["transitions_P"] = static_cast<double>(TransP);
  State.counters["configs_Pprime"] = static_cast<double>(ConfigsPPrime);
  State.counters["reduction_x"] =
      ConfigsPPrime ? static_cast<double>(ConfigsP) /
                          static_cast<double>(ConfigsPPrime)
                    : 0;
}

void BM_Broadcast(benchmark::State &State) {
  BroadcastParams Params{State.range(0), {}};
  ISApplication App = makeBroadcastIS(Params);
  reportPair(State, App.P, applyIS(App), makeBroadcastInitialStore(Params));
}
BENCHMARK(BM_Broadcast)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

void BM_PingPong(benchmark::State &State) {
  PingPongParams Params{State.range(0)};
  ISApplication App = makePingPongIS(Params);
  reportPair(State, App.P, applyIS(App), makePingPongInitialStore(Params));
}
BENCHMARK(BM_PingPong)->DenseRange(2, 6)->Unit(benchmark::kMillisecond);

void BM_ProducerConsumer(benchmark::State &State) {
  ProducerConsumerParams Params{State.range(0)};
  ISApplication App = makeProducerConsumerIS(Params);
  reportPair(State, App.P, applyIS(App),
             makeProducerConsumerInitialStore(Params));
}
BENCHMARK(BM_ProducerConsumer)
    ->DenseRange(2, 6)
    ->Unit(benchmark::kMillisecond);

void BM_ChangRoberts(benchmark::State &State) {
  ChangRobertsParams Params{State.range(0), {}};
  ISApplication App = makeChangRobertsOneShotIS(Params);
  reportPair(State, App.P, applyIS(App),
             makeChangRobertsInitialStore(Params));
}
BENCHMARK(BM_ChangRoberts)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

void BM_TwoPhaseCommit(benchmark::State &State) {
  TwoPhaseCommitParams Params{State.range(0)};
  ISApplication App = makeTwoPhaseCommitOneShotIS(Params);
  reportPair(State, App.P, applyIS(App),
             makeTwoPhaseCommitInitialStore(Params));
}
BENCHMARK(BM_TwoPhaseCommit)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

void BM_Paxos(benchmark::State &State) {
  PaxosParams Params{State.range(0), State.range(1)};
  ISApplication App = makePaxosIS(Params);
  reportPair(State, App.P, applyIS(App), makePaxosInitialStore(Params));
}
BENCHMARK(BM_Paxos)
    ->Args({1, 3})
    ->Args({2, 2})
    ->Args({2, 3})
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Symmetry reduction: unreduced engine vs the orbit-canonical quotient on
// the protocols that declare a symmetric node sort. Mode 0 = unreduced,
// Mode 1 = reduced (both serial, so the ratio isolates the reduction).
//===----------------------------------------------------------------------===//

void reportSymmetryExplore(benchmark::State &State, const Program &P,
                           const Store &Init, int64_t Mode) {
  engine::EngineOptions Opts;
  Opts.Config.Symmetry = Mode == 1;
  size_t Configs = 0, Interned = 0, OrbitStates = 0;
  for (auto _ : State) {
    ExploreResult R = exploreAll(P, {initialConfiguration(Init)}, Opts);
    Configs = R.Stats.NumConfigurations;
    Interned = R.Engine.InternedConfigs;
    OrbitStates = R.Engine.OrbitStatesRepresented;
    benchmark::DoNotOptimize(R);
  }
  State.counters["configs"] = static_cast<double>(Configs);
  State.counters["interned_configs"] = static_cast<double>(Interned);
  State.counters["orbit_states"] = static_cast<double>(OrbitStates);
}

void BM_SymmetryPaxos(benchmark::State &State) {
  PaxosParams Params{State.range(0), State.range(1)};
  reportSymmetryExplore(State, makePaxosProgram(Params),
                        makePaxosInitialStore(Params), State.range(2));
}
BENCHMARK(BM_SymmetryPaxos)
    ->Args({2, 3, 0}) // unreduced
    ->Args({2, 3, 1}) // orbit-canonical quotient
    ->Unit(benchmark::kMillisecond);

void BM_SymmetryTwoPhaseCommit(benchmark::State &State) {
  TwoPhaseCommitParams Params{State.range(0)};
  reportSymmetryExplore(State, makeTwoPhaseCommitProgram(Params),
                        makeTwoPhaseCommitInitialStore(Params),
                        State.range(1));
}
BENCHMARK(BM_SymmetryTwoPhaseCommit)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({5, 0}) // 5! = 120 permutations: the quotient must still win
    ->Args({5, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
