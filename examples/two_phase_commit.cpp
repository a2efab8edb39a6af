//===- examples/two_phase_commit.cpp - Iterated IS on optimized 2PC ------------------===//
///
/// \file
/// Derives the sequential reduction of the optimized two-phase commit
/// protocol (early abort; decisions that overtake vote requests) through
/// the paper's chain of four IS applications, printing what each stage
/// eliminates and how the pool of concurrent actions shrinks. Finishes by
/// checking agreement and commit-validity on the fully sequentialized
/// program and cross-checking the refinement guarantee.
///
/// Run: ./two_phase_commit [participants]
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Refinement.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace isq;
using namespace isq::protocols;

int main(int argc, char **argv) {
  TwoPhaseCommitParams Params;
  Params.NumParticipants = argc > 1 ? std::atoll(argv[1]) : 3;
  if (Params.NumParticipants < 1 || Params.NumParticipants > 4) {
    std::fprintf(stderr, "usage: two_phase_commit [participants 1-4]\n");
    return 1;
  }
  std::printf("== Two-phase commit with early abort, %lld participants ==\n\n",
              static_cast<long long>(Params.NumParticipants));

  Store Init = makeTwoPhaseCommitInitialStore(Params);
  Program Original = makeTwoPhaseCommitProgram(Params);

  ExploreResult R0 = explore(Original, initialConfiguration(Init));
  std::printf("asynchronous P: %zu configurations, %zu outcomes\n\n",
              R0.Stats.NumConfigurations, R0.TerminalStores.size());

  static const char *StageNames[kTwoPhaseCommitStages] = {
      "RequestVotes", "Vote", "Decide", "Finalize"};
  Program Current = Original;
  for (size_t Stage = 0; Stage < kTwoPhaseCommitStages; ++Stage) {
    ISApplication App = makeTwoPhaseCommitStageIS(Params, Stage, Current);
    Timer T;
    ISCheckReport Report = checkIS(App, {{Init, {}}});
    std::printf("IS stage %zu: eliminate %-12s %s (%zu obligations, "
                "%.3fs)\n",
                Stage + 1, StageNames[Stage],
                Report.ok() ? "ACCEPTED" : "REJECTED",
                Report.totalObligations(), T.elapsed());
    if (!Report.ok()) {
      std::printf("%s\n", Report.str().c_str());
      return 1;
    }
    Current = applyIS(App);
    ExploreResult RS = explore(Current, initialConfiguration(Init));
    std::printf("           remaining configurations: %zu\n",
                RS.Stats.NumConfigurations);
  }

  ExploreResult RFinal = explore(Current, initialConfiguration(Init));
  bool Ok = true;
  for (const Store &Final : RFinal.TerminalStores)
    Ok = Ok && checkTwoPhaseCommitSpec(Final, Params);
  std::printf("\nagreement + commit-validity on the sequential reduction: "
              "%s\n",
              Ok ? "HOLD" : "VIOLATED");

  CheckResult Refines =
      checkProgramRefinement(Original, Current, {{Init, {}}});
  std::printf("P ≼ P'''' (empirical): %s\n", Refines.str().c_str());
  return Ok && Refines.ok() ? 0 : 1;
}
