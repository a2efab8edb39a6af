//===- bench/bench_movers.cpp - Mover-engine experiment ---------------------------===//
///
/// \file
/// Regenerates the paper's §5.1 observation that mover conditions are
/// discharged automatically by a dedicated engine: classifies every action
/// of every protocol (Both/Left/Right/None) over its reachable
/// configurations and reports the obligation counts and timing of the
/// pairwise commutativity checks.
///
//===----------------------------------------------------------------------===//

#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"
#include "reference/MoverCheck.h"

#include <benchmark/benchmark.h>

using namespace isq;
using namespace isq::protocols;

namespace {

/// Classifies every non-Main action of \p P over the reachable universe
/// and reports a bitmask-free summary through counters.
void classifyAll(benchmark::State &State, const Program &P,
                 const Store &Init) {
  ExploreResult R = explore(P, initialConfiguration(Init));
  size_t NumLeft = 0, NumRight = 0, NumBoth = 0, NumNone = 0;
  size_t Obligations = 0;
  for (auto _ : State) {
    NumLeft = NumRight = NumBoth = NumNone = 0;
    Obligations = 0;
    for (Symbol Name : P.actionNames()) {
      if (Name == Program::mainSymbol())
        continue;
      CheckResult L = checkLeftMover(Name, P.action(Name), P, R.Reachable);
      CheckResult Rt = checkRightMover(Name, P.action(Name), P, R.Reachable);
      Obligations += L.obligations() + Rt.obligations();
      if (L.ok() && Rt.ok())
        ++NumBoth;
      else if (L.ok())
        ++NumLeft;
      else if (Rt.ok())
        ++NumRight;
      else
        ++NumNone;
    }
  }
  State.counters["both"] = static_cast<double>(NumBoth);
  State.counters["left"] = static_cast<double>(NumLeft);
  State.counters["right"] = static_cast<double>(NumRight);
  State.counters["none"] = static_cast<double>(NumNone);
  State.counters["obligations"] = static_cast<double>(Obligations);
  State.counters["universe"] = static_cast<double>(R.Reachable.size());
}

void BM_MoversBroadcast(benchmark::State &State) {
  BroadcastParams Params{State.range(0), {}};
  classifyAll(State, makeBroadcastProgram(Params),
              makeBroadcastInitialStore(Params));
}
BENCHMARK(BM_MoversBroadcast)->DenseRange(2, 4)->Unit(benchmark::kMillisecond);

void BM_MoversPingPong(benchmark::State &State) {
  PingPongParams Params{State.range(0)};
  classifyAll(State, makePingPongProgram(Params),
              makePingPongInitialStore(Params));
}
BENCHMARK(BM_MoversPingPong)->DenseRange(2, 4)->Unit(benchmark::kMillisecond);

void BM_MoversProducerConsumer(benchmark::State &State) {
  ProducerConsumerParams Params{State.range(0)};
  classifyAll(State, makeProducerConsumerProgram(Params),
              makeProducerConsumerInitialStore(Params));
}
BENCHMARK(BM_MoversProducerConsumer)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

void BM_MoversChangRoberts(benchmark::State &State) {
  ChangRobertsParams Params{State.range(0), {}};
  classifyAll(State, makeChangRobertsProgram(Params),
              makeChangRobertsInitialStore(Params));
}
BENCHMARK(BM_MoversChangRoberts)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

void BM_MoversTwoPhaseCommit(benchmark::State &State) {
  TwoPhaseCommitParams Params{State.range(0)};
  classifyAll(State, makeTwoPhaseCommitProgram(Params),
              makeTwoPhaseCommitInitialStore(Params));
}
BENCHMARK(BM_MoversTwoPhaseCommit)
    ->DenseRange(2, 3)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
