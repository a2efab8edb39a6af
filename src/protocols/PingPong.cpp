//===- protocols/PingPong.cpp - Ping-Pong protocol (§5.3) ------------------------===//

#include "protocols/PingPong.h"

#include "protocols/ProtocolUtil.h"
#include "is/ScheduleInvariant.h"

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarT = "T";
const char *VarChPing = "chPing"; ///< acknowledgments Pong -> Ping
const char *VarChPong = "chPong"; ///< numbers Ping -> Pong
const char *VarPingAcked = "pingAcked";
const char *VarPongSeen = "pongSeen";

int64_t rounds(const Store &G) { return G.get(VarT).getInt(); }

/// True iff every message in \p Channel equals \p Expected.
bool allMessagesEqual(const Value &Channel, int64_t Expected) {
  for (const auto &[Msg, Count] : Channel.bagEntries()) {
    (void)Count;
    if (Msg.getInt() != Expected)
      return false;
  }
  return true;
}

Action makeMain() {
  return Action("Main", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  T.Created.emplace_back("Ping", args({1}));
                  T.Created.emplace_back("Pong", args({1}));
                  return std::vector<Transition>{std::move(T)};
                });
}

/// Ping(k): for k > 1 receive (and check) the acknowledgment of k-1; for
/// k <= T send k and continue with Ping(k+1). Ping(T+1) only receives the
/// final acknowledgment.
Action makePing() {
  return Action(
      "Ping", 1,
      [](const GateContext &Ctx) {
        int64_t K = Ctx.Args[0].getInt();
        // Assertion: acknowledgments are correct (equal to k-1).
        return K == 1 ||
               allMessagesEqual(Ctx.Global.get(VarChPing), K - 1);
      },
      [](const Store &G, const std::vector<Value> &Args) {
        int64_t K = Args[0].getInt();
        int64_t T = rounds(G);
        auto SendAndContinue = [&](Store NG) {
          Transition Tr(NG.set(VarChPong,
                               NG.get(VarChPong).bagInsert(intV(K))));
          Tr.Created.emplace_back("Ping", args({K + 1}));
          return Tr;
        };
        std::vector<Transition> Out;
        if (K == 1) {
          Out.push_back(SendAndContinue(G));
          return Out;
        }
        // Blocking receive of one acknowledgment.
        const Value &Acks = G.get(VarChPing);
        for (const auto &[Msg, Count] : Acks.bagEntries()) {
          (void)Count;
          Store NG = G.set(VarChPing, Acks.bagErase(Msg))
                         .set(VarPingAcked, intV(K - 1));
          if (K <= T)
            Out.push_back(SendAndContinue(NG));
          else
            Out.emplace_back(std::move(NG));
        }
        return Out;
      });
}

/// Pong(k): receive (and check) number k, acknowledge it, continue while
/// k < T. The \p AckOffset parameterizes the buggy variant.
Action makePong(int64_t AckOffset) {
  return Action(
      "Pong", 1,
      [](const GateContext &Ctx) {
        int64_t K = Ctx.Args[0].getInt();
        // Assertion: Pong receives increasing numbers (the next is k).
        return allMessagesEqual(Ctx.Global.get(VarChPong), K);
      },
      [AckOffset](const Store &G, const std::vector<Value> &Args) {
        int64_t K = Args[0].getInt();
        int64_t T = rounds(G);
        std::vector<Transition> Out;
        const Value &Msgs = G.get(VarChPong);
        for (const auto &[Msg, Count] : Msgs.bagEntries()) {
          (void)Count;
          Store NG =
              G.set(VarChPong, Msgs.bagErase(Msg))
                  .set(VarPongSeen, intV(K))
                  .set(VarChPing,
                       G.get(VarChPing).bagInsert(intV(K + AckOffset)));
          Transition Tr(std::move(NG));
          if (K < T)
            Tr.Created.emplace_back("Pong", args({K + 1}));
          Out.push_back(std::move(Tr));
        }
        return Out;
      });
}

/// The sequentialization order: Ping(1) < Pong(1) < Ping(2) < ...
std::optional<std::vector<int64_t>> rankOf(const PendingAsync &PA) {
  int64_t K = PA.Args[0].getInt();
  if (PA.Action == Symbol::get("Ping"))
    return std::vector<int64_t>{2 * K};
  if (PA.Action == Symbol::get("Pong"))
    return std::vector<int64_t>{2 * K + 1};
  return std::nullopt;
}

} // namespace

Program protocols::makePingPongProgram(const PingPongParams &) {
  Program P;
  P.addAction(makeMain());
  P.addAction(makePing());
  P.addAction(makePong(/*AckOffset=*/0));
  return P;
}

Program protocols::makeBuggyPingPongProgram(const PingPongParams &) {
  Program P;
  P.addAction(makeMain());
  P.addAction(makePing());
  P.addAction(makePong(/*AckOffset=*/1));
  return P;
}

Store protocols::makePingPongInitialStore(const PingPongParams &Params) {
  return Store::make({{Symbol::get(VarT), intV(Params.NumRounds)},
                      {Symbol::get(VarChPing), emptyBag()},
                      {Symbol::get(VarChPong), emptyBag()},
                      {Symbol::get(VarPingAcked), intV(0)},
                      {Symbol::get(VarPongSeen), intV(0)}});
}

ISApplication protocols::makePingPongIS(const PingPongParams &Params) {
  ISApplication App;
  App.P = makePingPongProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Ping"), Symbol::get("Pong")};
  App.Invariant =
      makeScheduleInvariant("PingPongInv", App.P, App.M, rankOf);
  App.Choice = chooseMinRank(rankOf);

  // Left-mover abstractions: strengthen the receive gates with channel
  // non-emptiness, which holds in the sequential context and makes the
  // actions non-blocking.
  App.Abstractions.emplace(
      Symbol::get("Ping"),
      Action("PingAbs", 1,
             [](const GateContext &Ctx) {
               int64_t K = Ctx.Args[0].getInt();
               const Value &Acks = Ctx.Global.get(VarChPing);
               if (K > 1 && Acks.bagSize() < 1)
                 return false;
               return K == 1 || allMessagesEqual(Acks, K - 1);
             },
             [P = App.P](const Store &G, const std::vector<Value> &Args) {
               return P.action("Ping").transitions(G, Args);
             }));
  App.Abstractions.emplace(
      Symbol::get("Pong"),
      Action("PongAbs", 1,
             [](const GateContext &Ctx) {
               int64_t K = Ctx.Args[0].getInt();
               const Value &Msgs = Ctx.Global.get(VarChPong);
               return Msgs.bagSize() >= 1 && allMessagesEqual(Msgs, K);
             },
             [P = App.P](const Store &G, const std::vector<Value> &Args) {
               return P.action("Pong").transitions(G, Args);
             }));

  // Remaining-work measure: Ping(k)/Pong(k) weigh by how much of the
  // alternation is still ahead of them; every step strictly decreases.
  int64_t T = Params.NumRounds;
  App.WfMeasure = Measure(
      "Σ remaining-work", [T](const Configuration &C) {
        if (C.isFailure())
          return std::vector<uint64_t>{0};
        uint64_t Total = 0;
        for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
          int64_t K = PA.Args.empty() ? 0 : PA.Args[0].getInt();
          uint64_t W = 0;
          if (PA.Action == Symbol::get("Ping"))
            W = static_cast<uint64_t>(2 * (T + 2) - 2 * K);
          else if (PA.Action == Symbol::get("Pong"))
            W = static_cast<uint64_t>(2 * (T + 2) - 2 * K - 1);
          Total += W * Count;
        }
        return std::vector<uint64_t>{Total};
      });
  return App;
}

bool protocols::checkPingPongSpec(const Store &Final,
                                  const PingPongParams &Params) {
  return Final.get(VarPingAcked).getInt() == Params.NumRounds &&
         Final.get(VarPongSeen).getInt() == Params.NumRounds &&
         Final.get(VarChPing).bagSize() == 0 &&
         Final.get(VarChPong).bagSize() == 0;
}
