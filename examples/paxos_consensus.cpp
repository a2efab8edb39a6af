//===- examples/paxos_consensus.cpp - Verifying Paxos with IS ------------------------===//
///
/// \file
/// The paper's flagship case study (§5.2) as a library walk-through: build
/// single-decree Paxos over unreliable rounds, show that overlapping
/// rounds really interleave (and that later rounds adopt earlier
/// decisions), run the single IS application of Fig. 4(c), and check the
/// consensus specification Paxos' on the sequential reduction.
///
/// Run: ./paxos_consensus [rounds] [nodes]
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/Paxos.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace isq;
using namespace isq::protocols;

int main(int argc, char **argv) {
  PaxosParams Params;
  Params.NumRounds = argc > 1 ? std::atoll(argv[1]) : 2;
  Params.NumNodes = argc > 2 ? std::atoll(argv[2]) : 3;
  if (Params.NumRounds < 1 || Params.NumRounds > 3 ||
      Params.NumNodes < 2 || Params.NumNodes > 5) {
    std::fprintf(stderr, "usage: paxos_consensus [rounds 1-3] [nodes 2-5]\n");
    return 1;
  }
  std::printf("== Single-decree Paxos: %lld rounds, %lld acceptors ==\n\n",
              static_cast<long long>(Params.NumRounds),
              static_cast<long long>(Params.NumNodes));

  Program P = makePaxosProgram(Params);
  Store Init = makePaxosInitialStore(Params);

  // 1. The asynchronous protocol: rounds overlap, messages drop.
  Timer T1;
  ExploreResult R = explore(P, initialConfiguration(Init));
  std::printf("P: %zu configurations, %zu outcomes (%.2fs)\n",
              R.Stats.NumConfigurations, R.TerminalStores.size(),
              T1.elapsed());
  size_t Decided = 0, AgreementViolations = 0;
  for (const Store &Final : R.TerminalStores) {
    if (paxosDecided(Final))
      ++Decided;
    if (!checkPaxosSpec(Final, Params))
      ++AgreementViolations;
  }
  std::printf("   outcomes with a decision: %zu, agreement violations: "
              "%zu\n\n",
              Decided, AgreementViolations);

  // 2. The IS application of Fig. 4(c): round-by-round sequentialization
  //    with the lower-round-quiescence abstractions.
  ISApplication App = makePaxosIS(Params);
  Timer T2;
  ISCheckReport Report = checkIS(App, {{Init, {}}});
  std::printf("IS proof rule (%zu obligations, %.2fs):\n%s\n",
              Report.totalObligations(), T2.elapsed(),
              Report.str().c_str());
  if (!Report.ok())
    return 1;

  // 3. Paxos' — one atomic action; consensus now follows by sequential
  //    reasoning over one round at a time.
  Program PPrime = applyIS(App);
  ExploreResult RS = explore(PPrime, initialConfiguration(Init));
  bool Safe = true;
  for (const Store &Final : RS.TerminalStores)
    Safe = Safe && checkPaxosSpec(Final, Params);
  std::printf("Paxos': %zu configurations, %zu outcomes — consensus %s\n",
              RS.Stats.NumConfigurations, RS.TerminalStores.size(),
              Safe ? "HOLDS" : "VIOLATED");
  return Safe ? 0 : 1;
}
