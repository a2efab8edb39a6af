//===- examples/leader_election.cpp - Chang-Roberts on a ring ------------------------===//
///
/// \file
/// Verifies the Chang-Roberts leader election protocol for every ID
/// placement on the ring: builds the protocol with messages as pending
/// asyncs, derives the sequentialization in which nodes run to completion
/// starting from the successor of the maximum-ID node (§5.3), applies IS
/// twice (Init, then Handle), and checks the unique-leader property on
/// every resulting schedule.
///
/// Run: ./leader_election [nodes]
///
//===----------------------------------------------------------------------===//

#include "is/Sequentialize.h"
#include "protocols/ChangRoberts.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

using namespace isq;
using namespace isq::protocols;

int main(int argc, char **argv) {
  int64_t N = argc > 1 ? std::atoll(argv[1]) : 3;
  if (N < 2 || N > 5) {
    std::fprintf(stderr, "usage: leader_election [nodes 2-5]\n");
    return 1;
  }
  std::printf("== Chang-Roberts leader election, ring of %lld nodes ==\n\n",
              static_cast<long long>(N));

  std::vector<int64_t> Ids(static_cast<size_t>(N));
  std::iota(Ids.begin(), Ids.end(), 1);

  size_t Checked = 0, Accepted = 0;
  Timer T;
  do {
    ChangRobertsParams Params{N, Ids};
    Store Init = makeChangRobertsInitialStore(Params);
    ++Checked;

    // Two IS applications: eliminate the Init fan-out, then the handlers.
    ISApplication Stage1 = makeChangRobertsStage1IS(Params);
    ISCheckReport R1 = checkIS(Stage1, {{Init, {}}});
    ISApplication Stage2 =
        makeChangRobertsStage2IS(Params, applyIS(Stage1));
    ISCheckReport R2 = checkIS(Stage2, {{Init, {}}});

    ExploreResult R =
        explore(applyIS(Stage2), initialConfiguration(Init));
    bool UniqueLeader = !R.TerminalStores.empty();
    for (const Store &Final : R.TerminalStores)
      UniqueLeader =
          UniqueLeader && checkChangRobertsSpec(Final, Params);

    bool Ok = R1.ok() && R2.ok() && UniqueLeader;
    Accepted += Ok;
    std::printf("ids [");
    for (size_t I = 0; I < Ids.size(); ++I)
      std::printf("%s%lld", I ? " " : "",
                  static_cast<long long>(Ids[I]));
    std::printf("]: IS %s/%s, leader = node %lld (max ID) %s\n",
                R1.ok() ? "ok" : "REJ", R2.ok() ? "ok" : "REJ",
                static_cast<long long>(Params.maxNode()),
                UniqueLeader ? "unique" : "NOT UNIQUE");
  } while (std::next_permutation(Ids.begin(), Ids.end()));

  std::printf("\n%zu/%zu ID placements verified (%.2fs)\n", Accepted,
              Checked, T.elapsed());
  return Accepted == Checked ? 0 : 1;
}
