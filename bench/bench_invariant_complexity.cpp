//===- bench/bench_invariant_complexity.cpp - §2 invariant comparison ---------------===//
///
/// \file
/// Regenerates the paper's §2 motivation: proving the broadcast consensus
/// protocol with the flat "asynchrony-aware" inductive invariant (formula
/// (2)) versus the IS proof. The flat invariant must describe *every*
/// intermediate configuration of every interleaving — its instantiation
/// count grows as 2^n (one per subset D of nodes, per disjunct) — while
/// the IS artifacts only describe the 2n+1 prefixes of one fixed
/// schedule. Both proofs are checked mechanically; the counters report
/// the number of invariant instantiations versus IS sequential prefixes,
/// inductiveness obligations, and wall time.
///
//===----------------------------------------------------------------------===//

#include "protocols/Broadcast.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "support/Timer.h"

#include <benchmark/benchmark.h>

using namespace isq;
using namespace isq::protocols;

namespace {

/// Does \p C satisfy invariant (2) of the paper (plus the untouched
/// initial-variable frame)?
bool satisfiesFlatInvariant(const Configuration &C,
                            const BroadcastParams &Params) {
  if (C.isFailure())
    return false;
  const Store &G = C.global();
  int64_t N = Params.NumNodes;
  int64_t Max = INT64_MIN;
  for (int64_t I = 1; I <= N; ++I)
    Max = std::max(Max, Params.value(I));

  auto ChannelIs = [&](int64_t I, const std::vector<int64_t> &Senders) {
    std::vector<Value> Msgs;
    for (int64_t J : Senders)
      Msgs.push_back(Value::integer(Params.value(J)));
    return G.get("CH").mapAt(Value::integer(I)) == Value::bag(Msgs);
  };
  auto Decided = [&](int64_t I) {
    const Value &D = G.get("decision").mapAt(Value::integer(I));
    return D.isSome() && D.getSome().getInt() == Max;
  };
  auto Undecided = [&](int64_t I) {
    return G.get("decision").mapAt(Value::integer(I)).isNone();
  };
  auto PaCount = [&](const char *Name, std::vector<Value> Args) {
    return C.pendingAsyncs().count(PendingAsync(Name, std::move(Args)));
  };

  // Disjunct 1: initial configuration with a single Main PA.
  {
    bool Ok = C.pendingAsyncs().size() == 1 && PaCount("Main", {}) == 1;
    for (int64_t I = 1; I <= N && Ok; ++I)
      Ok = ChannelIs(I, {}) && Undecided(I);
    if (Ok)
      return true;
  }
  // Disjunct 2: the nodes in D broadcast; everything else still pending.
  // Disjunct 3: all broadcast; the nodes in D collected and decided.
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << N); ++Mask) {
    std::vector<int64_t> D, NotD;
    for (int64_t I = 1; I <= N; ++I)
      ((Mask >> (I - 1)) & 1 ? D : NotD).push_back(I);

    bool Ok2 = true;
    for (int64_t I = 1; I <= N && Ok2; ++I)
      Ok2 = ChannelIs(I, D) && Undecided(I);
    if (Ok2 && C.pendingAsyncs().size() ==
                   static_cast<uint64_t>(N + static_cast<int64_t>(
                                                 NotD.size()))) {
      bool PasOk = true;
      for (int64_t I : NotD)
        PasOk = PasOk && PaCount("Broadcast", {Value::integer(I)}) == 1;
      for (int64_t I = 1; I <= N; ++I)
        PasOk = PasOk && PaCount("Collect", {Value::integer(I)}) == 1;
      if (PasOk)
        return true;
    }

    std::vector<int64_t> All;
    for (int64_t I = 1; I <= N; ++I)
      All.push_back(I);
    bool Ok3 = true;
    for (int64_t I : NotD)
      Ok3 = Ok3 && ChannelIs(I, All) && Undecided(I);
    for (int64_t I : D)
      Ok3 = Ok3 && ChannelIs(I, {}) && Decided(I);
    if (Ok3 &&
        C.pendingAsyncs().size() == static_cast<uint64_t>(NotD.size())) {
      bool PasOk = true;
      for (int64_t I : NotD)
        PasOk = PasOk && PaCount("Collect", {Value::integer(I)}) == 1;
      if (PasOk)
        return true;
    }
  }
  return false;
}

/// Checks the flat invariant the classical way: every reachable
/// configuration satisfies it (covering: it is implied at initialization
/// and inductive along every transition of every interleaving), and the
/// terminal instantiation implies the agreement property. Returns the
/// number of obligations (configuration membership checks).
size_t checkFlatInvariantProof(const BroadcastParams &Params, bool &Ok) {
  Program P = makeBroadcastProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeBroadcastInitialStore(Params)));
  Ok = !R.FailureReachable;
  size_t Obligations = 0;
  for (const Configuration &C : R.Reachable) {
    ++Obligations;
    Ok = Ok && satisfiesFlatInvariant(C, Params);
    if (C.isTerminating())
      Ok = Ok && checkBroadcastSpec(C.global(), Params);
  }
  return Obligations;
}

void BM_FlatInvariant(benchmark::State &State) {
  BroadcastParams Params{State.range(0), {}};
  bool Ok = false;
  size_t Obligations = 0;
  for (auto _ : State)
    Obligations = checkFlatInvariantProof(Params, Ok);
  State.counters["obligations"] = static_cast<double>(Obligations);
  // One instantiation per (disjunct, subset D): the artifact the user must
  // invent quantifies over all 2^n subsets, twice, plus the initial case.
  State.counters["invariant_instantiations"] =
      static_cast<double>(1 + 2 * (uint64_t(1) << Params.NumNodes));
  State.counters["verified"] = Ok ? 1 : 0;
}
BENCHMARK(BM_FlatInvariant)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

void BM_InductiveSequentialization(benchmark::State &State) {
  BroadcastParams Params{State.range(0), {}};
  size_t Obligations = 0;
  bool Ok = false;
  for (auto _ : State) {
    ISApplication App = makeBroadcastIS(Params);
    ISCheckReport Report =
        checkIS(App, {{makeBroadcastInitialStore(Params), {}}});
    Obligations = Report.totalObligations();
    Ok = Report.ok();
  }
  State.counters["obligations"] = static_cast<double>(Obligations);
  // The IS artifact describes only the prefixes of one schedule:
  // k = 0..n broadcasts, then l = 0..n collects.
  State.counters["invariant_instantiations"] =
      static_cast<double>(2 * Params.NumNodes + 1);
  State.counters["verified"] = Ok ? 1 : 0;
}
BENCHMARK(BM_InductiveSequentialization)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
