//===- explorer/Explorer.cpp - Program summaries ----------------------------===//

#include "explorer/Explorer.h"

#include "semantics/Symmetry.h"

#include <algorithm>
#include <iterator>

using namespace isq;

ProgramSummary isq::summarizeGraph(const Program &P,
                                   const engine::StateGraph &G) {
  ProgramSummary S;
  S.Good = !G.failureReachable();
  S.Engine = G.stats();
  const engine::StateArena &A = G.arena();
  const SymmetrySpec *Sym = G.stats().SymmetryReduced ? P.symmetry().get()
                                                      : nullptr;
  for (engine::StoreId Id : G.terminalStores()) {
    if (!Sym) {
      S.Trans.push_back(A.store(Id));
      continue;
    }
    std::vector<Store> Orbit = Sym->storeOrbit(A.store(Id));
    S.Trans.insert(S.Trans.end(), std::make_move_iterator(Orbit.begin()),
                   std::make_move_iterator(Orbit.end()));
  }
  std::sort(S.Trans.begin(), S.Trans.end());
  return S;
}
