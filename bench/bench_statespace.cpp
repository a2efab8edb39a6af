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

#include "explorer/Explorer.h"
#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/Paxos.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "protocols/TwoPhaseCommit.h"

#include <benchmark/benchmark.h>

#include <cstdlib>

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
  ExploreOptions Opts;
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

//===----------------------------------------------------------------------===//
// Compact-store scale target: Paxos with 2 rounds over FOUR acceptors
// must explore end-to-end on one machine. Symmetry reduction is on (the
// shipped default); Mode
// selects the store encoding: 0 = raw interning arenas, 1 = the
// delta/varint-compressed compact store. Counters record the quotient
// size and the compressed footprint, i.e. what "fits on one machine"
// means.
//===----------------------------------------------------------------------===//

void reportCompactExplore(benchmark::State &State, const Program &P,
                          const Store &Init, int64_t Mode) {
  ExploreOptions Opts;
  // The quotient for 2 rounds x 4 acceptors still runs past the default
  // 2M-configuration cap's comfort zone; raise it so truncation can
  // never mask an incomplete run (the Truncated flag is asserted below).
  Opts.MaxConfigurations = 50'000'000;
  Opts.Config.Symmetry = true;
  Opts.Config.NumThreads = 4;
  Opts.Config.Compress = Mode == 1;
  size_t Configs = 0, Interned = 0, CompressedBytes = 0;
  for (auto _ : State) {
    ExploreResult R = exploreAll(P, {initialConfiguration(Init)}, Opts);
    if (R.Stats.Truncated) {
      State.SkipWithError("Paxos/4 exploration truncated");
      return;
    }
    Configs = R.Stats.NumConfigurations;
    Interned = R.Engine.InternedConfigs;
    CompressedBytes = R.Engine.CompressedBytes;
    benchmark::DoNotOptimize(R);
  }
  State.counters["configs"] = static_cast<double>(Configs);
  State.counters["interned_configs"] = static_cast<double>(Interned);
  State.counters["compressed_bytes"] = static_cast<double>(CompressedBytes);
}

void BM_CompactPaxos(benchmark::State &State) {
  PaxosParams Params{State.range(0), State.range(1)};
  reportCompactExplore(State, makePaxosProgram(Params),
                       makePaxosInitialStore(Params), State.range(2));
}
BENCHMARK(BM_CompactPaxos)
    ->Args({2, 4, 0}) // raw arenas
    ->Args({2, 4, 1}) // compact (delta/varint) store
    ->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Tiered-store scale target: the same Paxos 2x4 exploration as
// BM_CompactPaxos mode 1, but with the compact store spilling sealed
// blocks to the mmap'd cold tier under a memory budget. The budget and
// spill directory come from the environment because the interesting
// budget depends on the host: below the unspilled run's compressed_bytes
// counter, so eviction provably happens. Counts must match the unspilled
// run exactly.
//===----------------------------------------------------------------------===//

void BM_SpillPaxos(benchmark::State &State) {
  const char *Budget = std::getenv("ISQ_SPILL_MEM_BUDGET");
  const char *Dir = std::getenv("ISQ_SPILL_DIR");
  if (!Budget || !Dir) {
    State.SkipWithError("set ISQ_SPILL_MEM_BUDGET (bytes, below "
                        "BM_CompactPaxos/2/4/1's compressed_bytes) and "
                        "ISQ_SPILL_DIR");
    return;
  }
  PaxosParams Params{State.range(0), State.range(1)};
  Program P = makePaxosProgram(Params);
  Store Init = makePaxosInitialStore(Params);
  ExploreOptions Opts;
  Opts.MaxConfigurations = 50'000'000;
  Opts.Config.Symmetry = true;
  Opts.Config.NumThreads = 4;
  Opts.Config.Compress = true;
  // One shard: the budget is global, and a single shard seals eviction
  // blocks fastest, so the cold tier is exercised hardest.
  Opts.Config.Shards = 1;
  Opts.Config.Spill = true;
  Opts.Config.SpillDir = Dir;
  Opts.Config.MemBudget = std::strtoull(Budget, nullptr, 10);
  size_t Configs = 0, Interned = 0, CompressedBytes = 0;
  uint64_t BytesHot = 0, BytesCold = 0, Evicted = 0, Faulted = 0;
  for (auto _ : State) {
    ExploreResult R = exploreAll(P, {initialConfiguration(Init)}, Opts);
    if (R.Stats.Truncated) {
      State.SkipWithError("Paxos/4 exploration truncated");
      return;
    }
    Configs = R.Stats.NumConfigurations;
    Interned = R.Engine.InternedConfigs;
    CompressedBytes = R.Engine.CompressedBytes;
    BytesHot = R.Engine.BytesHot;
    BytesCold = R.Engine.BytesCold;
    Evicted = R.Engine.BlocksEvicted;
    Faulted = R.Engine.BlocksFaulted;
    benchmark::DoNotOptimize(R);
  }
  State.counters["configs"] = static_cast<double>(Configs);
  State.counters["interned_configs"] = static_cast<double>(Interned);
  State.counters["compressed_bytes"] = static_cast<double>(CompressedBytes);
  State.counters["mem_budget"] = static_cast<double>(Opts.Config.MemBudget);
  State.counters["bytes_hot"] = static_cast<double>(BytesHot);
  State.counters["bytes_cold"] = static_cast<double>(BytesCold);
  State.counters["blocks_evicted"] = static_cast<double>(Evicted);
  State.counters["blocks_faulted"] = static_cast<double>(Faulted);
}
BENCHMARK(BM_SpillPaxos)
    ->Args({2, 4}) // 2 rounds x 4 acceptors, spilled under the budget
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
