//===- bench/bench_rewriter.cpp - Fig. 2 soundness-construction experiment -----------===//
///
/// \file
/// Regenerates the induction argument of Fig. 2 mechanically: enumerates
/// terminating executions of the asynchronous protocols and rewrites each
/// into a P'-execution with the same final configuration via the
/// Lemma-4.2/4.3 procedure (replace-by-abstraction, commute left, absorb
/// into the invariant). Counters report how many executions were
/// rewritten, the total commute and absorption steps, and validate that
/// every rewrite preserved the final configuration.
///
//===----------------------------------------------------------------------===//

#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "reference/Rewriter.h"
#include "reference/Trace.h"

#include <benchmark/benchmark.h>

using namespace isq;
using namespace isq::protocols;

namespace {

void rewriteAll(benchmark::State &State, const ISApplication &App,
                const Store &Init, size_t MaxExecutions) {
  size_t Rewritten = 0, Commutes = 0, Absorptions = 0, Preserved = 0;
  for (auto _ : State) {
    Rewritten = Commutes = Absorptions = Preserved = 0;
    auto Execs = enumerateExecutions(App.P, initialConfiguration(Init),
                                     MaxExecutions, 200);
    for (const Execution &Pi : Execs) {
      if (!Pi.isTerminating())
        continue;
      RewriteResult R = rewriteExecution(App, Pi);
      if (!R.Ok)
        continue;
      ++Rewritten;
      Commutes += R.NumCommutes;
      Absorptions += R.NumAbsorptions;
      if (R.Rewritten.finalConfiguration() == Pi.finalConfiguration())
        ++Preserved;
    }
  }
  State.counters["executions_rewritten"] = static_cast<double>(Rewritten);
  State.counters["commutes"] = static_cast<double>(Commutes);
  State.counters["absorptions"] = static_cast<double>(Absorptions);
  State.counters["final_state_preserved"] = static_cast<double>(Preserved);
}

void BM_RewriteBroadcast(benchmark::State &State) {
  BroadcastParams Params{State.range(0), {}};
  rewriteAll(State, makeBroadcastIS(Params),
             makeBroadcastInitialStore(Params), 2000);
}
BENCHMARK(BM_RewriteBroadcast)->DenseRange(2, 3)->Unit(benchmark::kMillisecond);

void BM_RewritePingPong(benchmark::State &State) {
  PingPongParams Params{State.range(0)};
  rewriteAll(State, makePingPongIS(Params),
             makePingPongInitialStore(Params), 2000);
}
BENCHMARK(BM_RewritePingPong)->DenseRange(2, 4)->Unit(benchmark::kMillisecond);

void BM_RewriteProducerConsumer(benchmark::State &State) {
  ProducerConsumerParams Params{State.range(0)};
  rewriteAll(State, makeProducerConsumerIS(Params),
             makeProducerConsumerInitialStore(Params), 2000);
}
BENCHMARK(BM_RewriteProducerConsumer)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

void BM_RewriteChangRoberts(benchmark::State &State) {
  ChangRobertsParams Params{State.range(0), {}};
  rewriteAll(State, makeChangRobertsOneShotIS(Params),
             makeChangRobertsInitialStore(Params), 2000);
}
BENCHMARK(BM_RewriteChangRoberts)
    ->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
