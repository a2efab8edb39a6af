//===- protocols/Broadcast.cpp - Broadcast consensus (Fig. 1) -------------------===//

#include "protocols/Broadcast.h"

#include "protocols/Measures.h"
#include "protocols/ProtocolUtil.h"

#include <algorithm>

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarN = "n";
const char *VarValue = "value";
const char *VarDecision = "decision";
const char *VarChannels = "CH";

int64_t numNodes(const Store &G) { return G.get(VarN).getInt(); }

int64_t maxValue(const Store &G) {
  int64_t Max = INT64_MIN;
  for (const auto &[Node, Val] : G.get(VarValue).mapEntries()) {
    (void)Node;
    Max = std::max(Max, Val.getInt());
  }
  return Max;
}

/// Counts pending Broadcast PAs in Ω (the ∀j. Broadcast(j) ∉ Ω gate).
bool hasPendingBroadcast(const PaMultiset &Omega) {
  Symbol Broadcast = Symbol::get("Broadcast");
  for (const auto &[PA, Count] : Omega.entries()) {
    (void)Count;
    if (PA.Action == Broadcast)
      return true;
  }
  return false;
}

/// Fig. 1-②: Main atomically creates 2n threads.
Action makeMain(const BroadcastParams &) {
  return Action(
      "Main", 0, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &) {
        Transition T(G);
        int64_t N = numNodes(G);
        for (int64_t I = 1; I <= N; ++I) {
          T.Created.emplace_back("Broadcast", args({I}));
          T.Created.emplace_back("Collect", args({I}));
        }
        return std::vector<Transition>{std::move(T)};
      });
}

/// Fig. 1-②: Broadcast(i) atomically sends value[i] to every channel.
Action makeBroadcast(const BroadcastParams &) {
  return Action(
      "Broadcast", 1, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        int64_t I = Args[0].getInt();
        int64_t N = numNodes(G);
        Value Val = G.get(VarValue).mapAt(intV(I));
        Value Channels = G.get(VarChannels);
        for (int64_t J = 1; J <= N; ++J)
          Channels = Channels.mapSet(
              intV(J), Channels.mapAt(intV(J)).bagInsert(Val));
        return std::vector<Transition>{
            Transition(G.set(VarChannels, Channels))};
      });
}

/// Shared transition relation of Collect(i) and its abstractions:
/// atomically receive n values from CH[i] and decide their maximum. Blocks
/// (no transitions) while fewer than n messages are available.
std::vector<Transition> collectTransitions(const Store &G,
                                           const std::vector<Value> &Args) {
  int64_t I = Args[0].getInt();
  int64_t N = numNodes(G);
  Value Channel = G.get(VarChannels).mapAt(intV(I));
  std::vector<Transition> Out;
  if (Channel.bagSize() < static_cast<uint64_t>(N))
    return Out;
  for (const Value &Sub : Channel.bagSubBagsOfSize(static_cast<uint64_t>(N))) {
    int64_t Max = INT64_MIN;
    for (const auto &[Elem, Count] : Sub.bagEntries()) {
      (void)Count;
      Max = std::max(Max, Elem.getInt());
    }
    Value Rest = Channel;
    for (const auto &[Elem, Count] : Sub.bagEntries())
      Rest = Rest.bagErase(Elem, static_cast<uint64_t>(Count.getInt()));
    Store NG = G.set(VarChannels,
                     G.get(VarChannels).mapSet(intV(I), Rest));
    NG = NG.set(VarDecision,
                NG.get(VarDecision).mapSet(intV(I),
                                           Value::some(intV(Max))));
    Out.emplace_back(std::move(NG));
  }
  return Out;
}

Action makeCollect(const BroadcastParams &) {
  return Action("Collect", 1, Action::alwaysEnabled(), collectTransitions);
}

/// Fig. 1-④: CollectAbs strengthens the gate with the sequential-context
/// facts, which makes it non-blocking and a left mover.
Action makeCollectAbs(const BroadcastParams &, bool RequireNoBroadcasts) {
  return Action(
      "CollectAbs", 1,
      [RequireNoBroadcasts](const GateContext &Ctx) {
        if (RequireNoBroadcasts && hasPendingBroadcast(Ctx.Omega))
          return false;
        int64_t I = Ctx.Args[0].getInt();
        int64_t N = numNodes(Ctx.Global);
        return Ctx.Global.get(VarChannels).mapAt(intV(I)).bagSize() >=
               static_cast<uint64_t>(N);
      },
      collectTransitions, /*GateReadsOmega=*/RequireNoBroadcasts);
}

/// The store after the sequential prefix "Broadcast 1..K; Collect 1..L"
/// starting from \p G.
Store prefixStore(const Store &G, int64_t K, int64_t L) {
  int64_t N = numNodes(G);
  int64_t Max = maxValue(G);
  Value Channels = G.get(VarChannels);
  for (int64_t J = 1; J <= N; ++J) {
    std::vector<Value> Msgs;
    for (int64_t I = 1; I <= K; ++I)
      Msgs.push_back(G.get(VarValue).mapAt(intV(I)));
    // Collect(j) for j <= L drained channel j entirely (it held exactly n
    // messages in the sequential schedule, which requires K = n).
    Channels = Channels.mapSet(intV(J), J <= L ? emptyBag()
                                               : Value::bag(Msgs));
  }
  Value Decision = G.get(VarDecision);
  for (int64_t I = 1; I <= L; ++I)
    Decision = Decision.mapSet(intV(I), Value::some(intV(Max)));
  return G.set(VarChannels, Channels).set(VarDecision, Decision);
}

/// Fig. 1-⑤: the invariant action Inv summarizing every prefix of the
/// round-robin schedule (k Broadcasts, then — only when k = n — l
/// Collects); the not-yet-summarized operations stay pending.
Action makeInv(Symbol BroadcastName, Symbol CollectName) {
  return Action(
      "Inv", 0, Action::alwaysEnabled(),
      [BroadcastName, CollectName](const Store &G,
                                   const std::vector<Value> &) {
        int64_t N = numNodes(G);
        std::vector<Transition> Out;
        auto Emit = [&](int64_t K, int64_t L) {
          Transition T(prefixStore(G, K, L));
          for (int64_t I = K + 1; I <= N; ++I)
            T.Created.emplace_back(BroadcastName, args({I}));
          for (int64_t I = L + 1; I <= N; ++I)
            T.Created.emplace_back(CollectName, args({I}));
          Out.push_back(std::move(T));
        };
        for (int64_t K = 0; K <= N; ++K)
          Emit(K, 0);
        for (int64_t L = 1; L <= N; ++L)
          Emit(N, L);
        return Out;
      });
}

/// Stage-2 invariant: Broadcast is already sequentialized, only Collect
/// prefixes remain (k is pinned to n).
Action makeInvStage2(Symbol CollectName) {
  return Action(
      "InvCollect", 0, Action::alwaysEnabled(),
      [CollectName](const Store &G, const std::vector<Value> &) {
        int64_t N = numNodes(G);
        std::vector<Transition> Out;
        for (int64_t L = 0; L <= N; ++L) {
          Transition T(prefixStore(G, N, L));
          for (int64_t I = L + 1; I <= N; ++I)
            T.Created.emplace_back(CollectName, args({I}));
          Out.push_back(std::move(T));
        }
        return Out;
      });
}

} // namespace

Program protocols::makeBroadcastProgram(const BroadcastParams &Params) {
  Program P;
  P.addAction(makeMain(Params));
  P.addAction(makeBroadcast(Params));
  P.addAction(makeCollect(Params));
  return P;
}

Store protocols::makeBroadcastInitialStore(const BroadcastParams &Params) {
  int64_t N = Params.NumNodes;
  return Store::make(
      {{Symbol::get(VarN), intV(N)},
       {Symbol::get(VarValue),
        mapOfRange(1, N, [&](int64_t I) { return intV(Params.value(I)); })},
       {Symbol::get(VarDecision),
        mapOfRange(1, N, [](int64_t) { return Value::none(); })},
       {Symbol::get(VarChannels),
        mapOfRange(1, N, [](int64_t) { return emptyBag(); })}});
}

Action protocols::makeBroadcastSeqSpec(const BroadcastParams &Params) {
  (void)Params;
  return Action(
      "MainSeq", 0, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &) {
        // Fig. 1-③ run to completion: all broadcasts then all collects.
        return std::vector<Transition>{
            Transition(prefixStore(G, numNodes(G), numNodes(G)))};
      });
}

ISApplication protocols::makeBroadcastIS(const BroadcastParams &Params) {
  ISApplication App;
  App.P = makeBroadcastProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Broadcast"), Symbol::get("Collect")};
  App.Invariant = makeInv(Symbol::get("Broadcast"), Symbol::get("Collect"));
  App.Choice = ISApplication::chooseInOrder(
      {Symbol::get("Broadcast"), Symbol::get("Collect")});
  App.Abstractions.emplace(
      Symbol::get("Collect"),
      makeCollectAbs(Params, /*RequireNoBroadcasts=*/true));
  App.WfMeasure = pendingAsyncCount();
  App.SeqAction = makeBroadcastSeqSpec(Params);
  return App;
}

ISApplication
protocols::makeBroadcastStage1IS(const BroadcastParams &Params) {
  ISApplication App;
  App.P = makeBroadcastProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Broadcast")};
  App.Invariant = makeInv(Symbol::get("Broadcast"), Symbol::get("Collect"));
  App.Choice = ISApplication::chooseInOrder({Symbol::get("Broadcast")});
  App.WfMeasure = pendingAsyncCount();
  return App;
}

ISApplication
protocols::makeBroadcastStage2IS(const BroadcastParams &Params,
                                 const Program &AfterStage1) {
  ISApplication App;
  App.P = AfterStage1;
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Collect")};
  App.Invariant = makeInvStage2(Symbol::get("Collect"));
  App.Choice = ISApplication::chooseInOrder({Symbol::get("Collect")});
  // §5.3: after Broadcast is gone, CollectAbs no longer needs the
  // no-pending-Broadcast conjunct (Fig. 1-④ line 33).
  App.Abstractions.emplace(
      Symbol::get("Collect"),
      makeCollectAbs(Params, /*RequireNoBroadcasts=*/false));
  App.WfMeasure = pendingAsyncCount();
  App.SeqAction = makeBroadcastSeqSpec(Params);
  return App;
}

bool protocols::checkBroadcastSpec(const Store &Final,
                                   const BroadcastParams &Params) {
  int64_t Max = INT64_MIN;
  for (int64_t I = 1; I <= Params.NumNodes; ++I)
    Max = std::max(Max, Params.value(I));
  const Value &Decision = Final.get(VarDecision);
  for (int64_t I = 1; I <= Params.NumNodes; ++I) {
    const Value &D = Decision.mapAt(intV(I));
    if (D.isNone() || D.getSome().getInt() != Max)
      return false;
  }
  return true;
}
