//===- explorer/Explorer.cpp - Explicit-state exploration --------------------===//

#include "explorer/Explorer.h"

#include "semantics/Symmetry.h"

#include <algorithm>
#include <iterator>

using namespace isq;

namespace {

/// Canonical orders promised by the ExploreResult contract.
void sortResults(ExploreResult &R) {
  std::sort(R.TerminalStores.begin(), R.TerminalStores.end());
  std::sort(R.Deadlocks.begin(), R.Deadlocks.end());
}

/// Reconstructs the failing execution ending at \p NodeIdx + \p FailVia
/// from the graph's parent links.
Execution traceFromLinks(engine::StateGraph &G,
                         const std::vector<Configuration> &Reachable,
                         uint32_t NodeIdx, engine::PaId FailVia) {
  const std::vector<engine::StateGraph::Link> &Links = G.links();
  std::vector<uint32_t> Chain;
  for (uint32_t I = NodeIdx; I != UINT32_MAX; I = Links[I].Parent)
    Chain.push_back(I);
  Execution E;
  E.Initial = Reachable[Chain.back()];
  for (size_t I = Chain.size() - 1; I > 0; --I) {
    uint32_t Node = Chain[I - 1];
    E.Steps.push_back({G.arena().pa(Links[Node].Via), Reachable[Node]});
  }
  E.Steps.push_back({G.arena().pa(FailVia), Configuration::failure()});
  return E;
}

/// Materializes an engine StateGraph into the value-level ExploreResult.
ExploreResult fromGraph(engine::StateGraph G, const ExploreOptions &Opts) {
  ExploreResult R;
  engine::StateArena &A = G.arena();
  R.Reachable.reserve(G.nodes().size());
  for (engine::ConfigId Cid : G.nodes())
    R.Reachable.push_back(A.configuration(Cid));
  R.FailureReachable = G.failureReachable();
  if (G.failureAt() && Opts.RecordParents)
    R.FailureTrace = traceFromLinks(G, R.Reachable, G.failureAt()->first,
                                    G.failureAt()->second);
  R.TerminalStores.reserve(G.terminalStores().size());
  for (engine::StoreId S : G.terminalStores())
    R.TerminalStores.push_back(A.store(S));
  R.Deadlocks.reserve(G.deadlockNodes().size());
  for (uint32_t Node : G.deadlockNodes())
    R.Deadlocks.push_back(R.Reachable[Node]);
  R.Engine = G.stats();
  R.Stats.NumConfigurations = R.Engine.NumConfigurations;
  R.Stats.NumTransitions = R.Engine.NumTransitions;
  R.Stats.Truncated = R.Engine.Truncated;
  sortResults(R);
  return R;
}

} // namespace

ExploreResult isq::explore(const Program &P, const Configuration &Init,
                           const ExploreOptions &Opts) {
  return exploreAll(P, {Init}, Opts);
}

ExploreResult isq::exploreAll(const Program &P,
                              const std::vector<Configuration> &Inits,
                              const ExploreOptions &Opts) {
  engine::EngineOptions EO;
  EO.MaxConfigurations = Opts.MaxConfigurations;
  EO.RecordParents = Opts.RecordParents;
  EO.Config = Opts.Config;
  return fromGraph(engine::exploreGraph(P, Inits, nullptr, EO), Opts);
}

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

ProgramSummary isq::summarize(const Program &P, const Store &Init,
                              std::vector<Value> MainArgs,
                              const ExploreOptions &Opts) {
  engine::EngineOptions EO;
  EO.MaxConfigurations = Opts.MaxConfigurations;
  EO.RecordParents = false; // a summary never reports a trace
  EO.Config = Opts.Config;
  return summarizeGraph(
      P, engine::exploreGraph(
             P, {initialConfiguration(Init, std::move(MainArgs))}, nullptr,
             EO));
}
