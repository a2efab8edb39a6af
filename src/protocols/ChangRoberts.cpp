//===- protocols/ChangRoberts.cpp - Chang-Roberts leader election ----------------===//

#include "protocols/ChangRoberts.h"

#include "protocols/ProtocolUtil.h"
#include "is/ScheduleInvariant.h"

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarN = "n";
const char *VarId = "id";
const char *VarLeader = "leader";

int64_t numNodes(const Store &G) { return G.get(VarN).getInt(); }

int64_t nextNode(const Store &G, int64_t Node) {
  return Node % numNodes(G) + 1;
}

int64_t idOf(const Store &G, int64_t Node) {
  return G.get(VarId).mapAt(intV(Node)).getInt();
}

Action makeMain() {
  return Action("Main", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  for (int64_t I = 1; I <= numNodes(G); ++I)
                    T.Created.emplace_back("Init", args({I}));
                  return std::vector<Transition>{std::move(T)};
                });
}

/// Init(i): node i starts the election by sending its ID to its successor.
Action makeInit() {
  return Action("Init", 1, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &Args) {
                  int64_t I = Args[0].getInt();
                  Transition T(G);
                  T.Created.emplace_back(
                      "Handle", args({nextNode(G, I), idOf(G, I)}));
                  return std::vector<Transition>{std::move(T)};
                });
}

/// Handle(i, v): node i processes ID v — forward if greater than its own,
/// declare leadership if equal, drop otherwise.
Action makeHandle() {
  return Action(
      "Handle", 2, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        int64_t I = Args[0].getInt();
        int64_t V = Args[1].getInt();
        int64_t Own = idOf(G, I);
        Transition T(G);
        if (V > Own)
          T.Created.emplace_back("Handle", args({nextNode(G, I), V}));
        else if (V == Own)
          T.Global = G.set(
              VarLeader, G.get(VarLeader).mapSet(intV(I), boolV(true)));
        return std::vector<Transition>{std::move(T)};
      });
}

/// Turn of node \p U in the sequential order starting at m's successor.
int64_t turnOf(const ChangRobertsParams &Params, int64_t U) {
  int64_t M = Params.maxNode();
  return ((U - (M + 1)) % Params.NumNodes + Params.NumNodes) %
         Params.NumNodes;
}

/// Ranks for the one-shot schedule: during node u's turn, Init(u) comes
/// first, then the messages pending at u (smaller IDs first). The maximum
/// ID's full-ring traversal naturally runs after the last turn (its
/// handles are only created then).
RankFn makeRank(const ChangRobertsParams &Params, bool RankInit,
                bool RankHandle) {
  return [Params, RankInit,
          RankHandle](const PendingAsync &PA)
             -> std::optional<std::vector<int64_t>> {
    if (RankInit && PA.Action == Symbol::get("Init"))
      return std::vector<int64_t>{turnOf(Params, PA.Args[0].getInt()), 0,
                                  0};
    if (RankHandle && PA.Action == Symbol::get("Handle"))
      return std::vector<int64_t>{turnOf(Params, PA.Args[0].getInt()), 1,
                                  PA.Args[1].getInt()};
    return std::nullopt;
  };
}

/// The well-founded measure: an Init is worth n+1; a message is worth its
/// remaining travel distance to the node owning its ID (inclusive).
/// Every action strictly decreases the sum.
Measure makeDistanceMeasure(const ChangRobertsParams &Params) {
  return Measure("Σ travel-distance", [Params](const Configuration &C) {
    if (C.isFailure())
      return std::vector<uint64_t>{0};
    uint64_t Total = 0;
    int64_t N = Params.NumNodes;
    for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
      uint64_t W = 0;
      if (PA.Action == Symbol::get("Init"))
        W = static_cast<uint64_t>(N + 1);
      else if (PA.Action == Symbol::get("Handle")) {
        int64_t I = PA.Args[0].getInt();
        int64_t V = PA.Args[1].getInt();
        // Owner of V in the fixed ID assignment.
        int64_t Owner = 0;
        for (int64_t U = 1; U <= N; ++U)
          if (Params.id(U) == V)
            Owner = U;
        W = static_cast<uint64_t>(((Owner - I) % N + N) % N + 1);
      }
      Total += W * Count;
    }
    return std::vector<uint64_t>{Total};
  });
}

} // namespace

int64_t ChangRobertsParams::maxNode() const {
  int64_t Best = 1;
  for (int64_t U = 2; U <= NumNodes; ++U)
    if (id(U) > id(Best))
      Best = U;
  return Best;
}

Program protocols::makeChangRobertsProgram(const ChangRobertsParams &) {
  Program P;
  P.addAction(makeMain());
  P.addAction(makeInit());
  P.addAction(makeHandle());
  return P;
}

Store
protocols::makeChangRobertsInitialStore(const ChangRobertsParams &Params) {
  int64_t N = Params.NumNodes;
  return Store::make(
      {{Symbol::get(VarN), intV(N)},
       {Symbol::get(VarId),
        mapOfRange(1, N, [&](int64_t I) { return intV(Params.id(I)); })},
       {Symbol::get(VarLeader),
        mapOfRange(1, N, [](int64_t) { return boolV(false); })}});
}

ISApplication
protocols::makeChangRobertsStage1IS(const ChangRobertsParams &Params) {
  ISApplication App;
  App.P = makeChangRobertsProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Init")};
  RankFn Rank = makeRank(Params, /*RankInit=*/true, /*RankHandle=*/false);
  App.Invariant =
      makeScheduleInvariant("ChangRobertsInitInv", App.P, App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  App.WfMeasure = makeDistanceMeasure(Params);
  return App;
}

ISApplication
protocols::makeChangRobertsStage2IS(const ChangRobertsParams &Params,
                                    const Program &AfterStage1) {
  ISApplication App;
  App.P = AfterStage1;
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Handle")};
  RankFn Rank = makeRank(Params, /*RankInit=*/false, /*RankHandle=*/true);
  App.Invariant = makeScheduleInvariant("ChangRobertsHandleInv", App.P,
                                        App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  App.WfMeasure = makeDistanceMeasure(Params);
  return App;
}

ISApplication
protocols::makeChangRobertsOneShotIS(const ChangRobertsParams &Params) {
  ISApplication App;
  App.P = makeChangRobertsProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Init"), Symbol::get("Handle")};
  RankFn Rank = makeRank(Params, /*RankInit=*/true, /*RankHandle=*/true);
  App.Invariant =
      makeScheduleInvariant("ChangRobertsInv", App.P, App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  App.WfMeasure = makeDistanceMeasure(Params);
  return App;
}

bool protocols::checkChangRobertsSpec(const Store &Final,
                                      const ChangRobertsParams &Params) {
  int64_t M = Params.maxNode();
  for (int64_t U = 1; U <= Params.NumNodes; ++U) {
    bool IsLeader = Final.get(VarLeader).mapAt(intV(U)).getBool();
    if (IsLeader != (U == M))
      return false;
  }
  return true;
}
