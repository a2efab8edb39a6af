//===- reference/Explorer.cpp - Value-level exploration --------------------===//

#include "reference/Explorer.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>

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
ExploreResult fromGraph(engine::StateGraph G,
                        const engine::EngineOptions &Opts) {
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

/// Internal state of the value-level BFS.
struct Bfs {
  const Program &P;
  const engine::EngineOptions &Opts;
  ExploreResult Result;

  // Configuration -> index into Result.Reachable.
  std::unordered_map<Configuration, size_t> Seen;
  // Parent index and executed PA per reachable configuration (index-aligned
  // with Result.Reachable); parent == SIZE_MAX for roots.
  std::vector<std::pair<size_t, PendingAsync>> Parents;
  std::unordered_set<Store> TerminalSeen;
  std::deque<size_t> Worklist;

  Bfs(const Program &P, const engine::EngineOptions &Opts) : P(P), Opts(Opts) {}

  /// Registers \p C if new; returns its index or SIZE_MAX when capped.
  size_t add(const Configuration &C, size_t Parent, const PendingAsync &Via) {
    auto It = Seen.find(C);
    if (It != Seen.end())
      return It->second;
    if (Result.Reachable.size() >= Opts.MaxConfigurations) {
      Result.Stats.Truncated = true;
      return SIZE_MAX;
    }
    size_t Index = Result.Reachable.size();
    Seen.emplace(C, Index);
    Result.Reachable.push_back(C);
    if (Opts.RecordParents)
      Parents.emplace_back(Parent, Via);
    Worklist.push_back(Index);
    if (C.isTerminating() && TerminalSeen.insert(C.global()).second)
      Result.TerminalStores.push_back(C.global());
    return Index;
  }

  /// Reconstructs the execution ending at reachable index \p Index,
  /// optionally appending a final failing step via \p FailVia.
  Execution traceTo(size_t Index, const PendingAsync *FailVia) {
    std::vector<size_t> Chain;
    for (size_t I = Index; I != SIZE_MAX; I = Parents[I].first)
      Chain.push_back(I);
    Execution E;
    E.Initial = Result.Reachable[Chain.back()];
    for (size_t I = Chain.size() - 1; I > 0; --I) {
      size_t Node = Chain[I - 1];
      E.Steps.push_back({Parents[Node].second, Result.Reachable[Node]});
    }
    if (FailVia)
      E.Steps.push_back({*FailVia, Configuration::failure()});
    return E;
  }

  void run() {
    while (!Worklist.empty()) {
      size_t Index = Worklist.front();
      Worklist.pop_front();
      // Copy: Result.Reachable may reallocate while expanding.
      Configuration C = Result.Reachable[Index];
      bool AnyMove = false;
      for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
        (void)Count;
        const Action &A = P.action(PA.Action);
        if (!A.evalGate(C.global(), PA.Args, C.pendingAsyncs())) {
          Result.Stats.NumTransitions++;
          AnyMove = true;
          if (!Result.FailureReachable) {
            Result.FailureReachable = true;
            if (Opts.RecordParents)
              Result.FailureTrace = traceTo(Index, &PA);
          }
          continue;
        }
        PaMultiset Rest = C.pendingAsyncs();
        Rest.erase(PA);
        for (const Transition &T : A.transitions(C.global(), PA.Args)) {
          Result.Stats.NumTransitions++;
          AnyMove = true;
          PaMultiset Omega = Rest;
          for (const PendingAsync &New : T.Created)
            Omega.insert(New);
          add(Configuration(T.Global, std::move(Omega)), Index, PA);
        }
      }
      if (!AnyMove && !C.isTerminating())
        Result.Deadlocks.push_back(C);
    }
  }
};

} // namespace

ExploreResult reference::exploreAll(const Program &P,
                                   const std::vector<Configuration> &Inits,
                                   const engine::EngineOptions &Opts) {
  Bfs B(P, Opts);
  for (const Configuration &Init : Inits) {
    assert(!Init.isFailure() && "initial configuration cannot be failure");
    B.add(Init, SIZE_MAX, PendingAsync());
  }
  B.run();
  B.Result.Stats.NumConfigurations = B.Result.Reachable.size();
  sortResults(B.Result);
  return std::move(B.Result);
}

ExploreResult isq::explore(const Program &P, const Configuration &Init,
                           const engine::EngineOptions &Opts) {
  return exploreAll(P, {Init}, Opts);
}

ExploreResult isq::exploreAll(const Program &P,
                              const std::vector<Configuration> &Inits,
                              const engine::EngineOptions &Opts) {
  return fromGraph(engine::exploreGraph(P, Inits, nullptr, Opts), Opts);
}

ProgramSummary isq::summarize(const Program &P, const Store &Init,
                              std::vector<Value> MainArgs,
                              const engine::EngineOptions &Opts) {
  engine::EngineOptions EO = Opts;
  EO.RecordParents = false; // a summary never reports a trace
  return summarizeGraph(
      P, engine::exploreGraph(
             P, {initialConfiguration(Init, std::move(MainArgs))}, nullptr,
             EO));
}
