//===- bench/bench_iterated_is.cpp - Iterated-IS ablation (§5.3) ---------------------===//
///
/// \file
/// Regenerates the paper's §5.3 discussion of repeated IS application:
/// "an action that is eliminated in one IS application disappears from the
/// pool of actions w.r.t. which left-moverness has to be established in a
/// subsequent IS application." Compares, for the protocols with both
/// proofs, the one-shot application against the staged chain: left-mover
/// obligations, total obligations, and time.
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/NBuyer.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/ISCheck.h"

#include <benchmark/benchmark.h>

using namespace isq;
using namespace isq::protocols;

namespace {

struct ChainStats {
  size_t LeftMoverObligations = 0;
  size_t TotalObligations = 0;
  bool Accepted = true;
};

ChainStats
runChain(const std::vector<ISApplication> &Apps,
         const Store &Init) {
  ChainStats Stats;
  for (const ISApplication &App : Apps) {
    ISCheckReport Report = checkIS(App, {{Init, {}}});
    Stats.LeftMoverObligations += Report.LeftMovers.obligations();
    Stats.TotalObligations += Report.totalObligations();
    Stats.Accepted = Stats.Accepted && Report.ok();
  }
  return Stats;
}

void report(benchmark::State &State, const ChainStats &Stats) {
  State.counters["left_mover_obligations"] =
      static_cast<double>(Stats.LeftMoverObligations);
  State.counters["obligations"] =
      static_cast<double>(Stats.TotalObligations);
  State.counters["accepted"] = Stats.Accepted ? 1 : 0;
}

void BM_BroadcastOneShot(benchmark::State &State) {
  BroadcastParams Params{3, {}};
  ChainStats Stats;
  for (auto _ : State)
    Stats = runChain({makeBroadcastIS(Params)},
                     makeBroadcastInitialStore(Params));
  report(State, Stats);
}
BENCHMARK(BM_BroadcastOneShot)->Unit(benchmark::kMillisecond);

void BM_BroadcastTwoStage(benchmark::State &State) {
  BroadcastParams Params{3, {}};
  ChainStats Stats;
  for (auto _ : State) {
    ISApplication Stage1 = makeBroadcastStage1IS(Params);
    ISApplication Stage2 =
        makeBroadcastStage2IS(Params, applyIS(Stage1));
    Stats = runChain({Stage1, Stage2}, makeBroadcastInitialStore(Params));
  }
  report(State, Stats);
}
BENCHMARK(BM_BroadcastTwoStage)->Unit(benchmark::kMillisecond);

void BM_ChangRobertsOneShot(benchmark::State &State) {
  ChangRobertsParams Params{3, {2, 3, 1}};
  ChainStats Stats;
  for (auto _ : State)
    Stats = runChain({makeChangRobertsOneShotIS(Params)},
                     makeChangRobertsInitialStore(Params));
  report(State, Stats);
}
BENCHMARK(BM_ChangRobertsOneShot)->Unit(benchmark::kMillisecond);

void BM_ChangRobertsTwoStage(benchmark::State &State) {
  ChangRobertsParams Params{3, {2, 3, 1}};
  ChainStats Stats;
  for (auto _ : State) {
    ISApplication Stage1 = makeChangRobertsStage1IS(Params);
    ISApplication Stage2 =
        makeChangRobertsStage2IS(Params, applyIS(Stage1));
    Stats =
        runChain({Stage1, Stage2}, makeChangRobertsInitialStore(Params));
  }
  report(State, Stats);
}
BENCHMARK(BM_ChangRobertsTwoStage)->Unit(benchmark::kMillisecond);

void BM_NBuyerOneShot(benchmark::State &State) {
  NBuyerParams Params{3, 2, {0, 1}};
  ChainStats Stats;
  for (auto _ : State)
    Stats = runChain({makeNBuyerOneShotIS(Params)},
                     makeNBuyerInitialStore(Params));
  report(State, Stats);
}
BENCHMARK(BM_NBuyerOneShot)->Unit(benchmark::kMillisecond);

void BM_NBuyerFourStage(benchmark::State &State) {
  NBuyerParams Params{3, 2, {0, 1}};
  ChainStats Stats;
  for (auto _ : State) {
    std::vector<ISApplication> Apps;
    Program Current = makeNBuyerProgram(Params);
    for (size_t Stage = 0; Stage < kNBuyerStages; ++Stage) {
      Apps.push_back(makeNBuyerStageIS(Params, Stage, Current));
      Current = applyIS(Apps.back());
    }
    Stats = runChain(Apps, makeNBuyerInitialStore(Params));
  }
  report(State, Stats);
}
BENCHMARK(BM_NBuyerFourStage)->Unit(benchmark::kMillisecond);

void BM_TwoPhaseCommitOneShot(benchmark::State &State) {
  TwoPhaseCommitParams Params{3};
  ChainStats Stats;
  for (auto _ : State)
    Stats = runChain({makeTwoPhaseCommitOneShotIS(Params)},
                     makeTwoPhaseCommitInitialStore(Params));
  report(State, Stats);
}
BENCHMARK(BM_TwoPhaseCommitOneShot)->Unit(benchmark::kMillisecond);

void BM_TwoPhaseCommitFourStage(benchmark::State &State) {
  TwoPhaseCommitParams Params{3};
  ChainStats Stats;
  for (auto _ : State) {
    std::vector<ISApplication> Apps;
    Program Current = makeTwoPhaseCommitProgram(Params);
    for (size_t Stage = 0; Stage < kTwoPhaseCommitStages; ++Stage) {
      Apps.push_back(makeTwoPhaseCommitStageIS(Params, Stage, Current));
      Current = applyIS(Apps.back());
    }
    Stats = runChain(Apps, makeTwoPhaseCommitInitialStore(Params));
  }
  report(State, Stats);
}
BENCHMARK(BM_TwoPhaseCommitFourStage)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
