//===- examples/quickstart.cpp - Library tour on the Fig. 1 protocol -------------===//
///
/// \file
/// A guided tour of the library on the paper's running example (Fig. 1):
/// build the broadcast consensus protocol, watch its interleaving
/// explosion, apply the Inductive Sequentialization proof rule, and check
/// the agreement property on the sequential reduction.
///
/// Run: ./quickstart [num_nodes]
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/Broadcast.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace isq;
using namespace isq::protocols;

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 3;
  if (N < 1 || N > 6) {
    std::fprintf(stderr, "num_nodes must be in [1, 6]\n");
    return 1;
  }
  BroadcastParams Params{N, {}};

  std::printf("== Broadcast consensus (Fig. 1), n = %lld ==\n\n",
              static_cast<long long>(N));

  // 1. The asynchronous program P: Main spawns n Broadcast and n Collect
  //    tasks communicating over bag channels.
  Program P = makeBroadcastProgram(Params);
  Store Init = makeBroadcastInitialStore(Params);
  Timer T1;
  ExploreResult Concurrent = explore(P, initialConfiguration(Init));
  std::printf("P  (asynchronous): %zu reachable configurations, "
              "%zu transitions (%.3fs)\n",
              Concurrent.Stats.NumConfigurations,
              Concurrent.Stats.NumTransitions, T1.elapsed());

  // 2. The IS application of Example 4.1: invariant Inv (Fig. 1-⑤),
  //    abstraction CollectAbs (Fig. 1-④), smallest-index choice function,
  //    |Ω| measure.
  ISApplication App = makeBroadcastIS(Params);
  Timer T2;
  ISCheckReport Report = checkIS(App, {{Init, {}}});
  std::printf("\nIS proof rule: %zu verification obligations (%.3fs)\n",
              Report.totalObligations(), T2.elapsed());
  std::printf("%s\n", Report.str().c_str());
  if (!Report.ok())
    return 1;

  // 3. The sequential reduction P' = P[Main -> Main'].
  Program PPrime = applyIS(App);
  Timer T3;
  ExploreResult Sequential = explore(PPrime, initialConfiguration(Init));
  std::printf("P' (sequentialized): %zu reachable configurations (%.3fs)\n",
              Sequential.Stats.NumConfigurations, T3.elapsed());

  // 4. The agreement property (1) now needs only sequential reasoning.
  bool Agreement = true;
  for (const Store &Final : Sequential.TerminalStores)
    Agreement = Agreement && checkBroadcastSpec(Final, Params);
  std::printf("\nagreement on P': %s\n", Agreement ? "HOLDS" : "VIOLATED");

  // 5. Cross-check the rule's formal guarantee P ≼ P' on this instance.
  CheckResult Refines = checkProgramRefinement(P, PPrime, {{Init, {}}});
  std::printf("P ≼ P' (empirical): %s\n", Refines.str().c_str());

  return Agreement && Refines.ok() ? 0 : 1;
}
