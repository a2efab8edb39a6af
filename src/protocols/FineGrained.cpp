//===- protocols/FineGrained.cpp - Low-level broadcast layer (§5.2) ----------------===//

#include "protocols/FineGrained.h"

#include "protocols/ProtocolUtil.h"
#include "reference/Explorer.h"
#include "reference/Reduction.h"

#include <algorithm>

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarN = "n";
const char *VarValue = "value";
const char *VarDecision = "decision";
const char *VarChannels = "CH";
const char *VarAcc = "acc"; ///< scratch accumulator of the fused receive loop

/// The -∞ seed of the running maximum (Fig. 1-① line 9).
constexpr int64_t AccSeed = INT64_MIN / 4;

int64_t numNodes(const Store &G) { return G.get(VarN).getInt(); }

Store addMessage(const Store &G, int64_t To, const Value &Msg) {
  return G.set(VarChannels,
               G.get(VarChannels)
                   .mapSet(intV(To),
                           G.get(VarChannels).mapAt(intV(To)).bagInsert(
                               Msg)));
}

/// Main of the fine-grained layer: one send chain and one receive chain
/// per node.
Action makeFineMain() {
  return Action(
      "Main", 0, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &) {
        Transition T(G);
        for (int64_t I = 1; I <= numNodes(G); ++I) {
          T.Created.emplace_back("BSend", args({I, 1}));
          T.Created.emplace_back("CRecv",
                                 args({I, 1, AccSeed}));
        }
        return std::vector<Transition>{std::move(T)};
      });
}

/// BSend(i, j): one primitive send — value[i] to CH[j] — continuing the
/// loop of Fig. 1-① lines 6-7 as a pending async.
Action makeBSend() {
  return Action(
      "BSend", 2, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        int64_t I = Args[0].getInt();
        int64_t J = Args[1].getInt();
        Transition T(
            addMessage(G, J, G.get(VarValue).mapAt(intV(I))));
        if (J < numNodes(G))
          T.Created.emplace_back("BSend", args({I, J + 1}));
        return std::vector<Transition>{std::move(T)};
      });
}

/// CRecv(i, j, acc): one primitive blocking receive, folding the running
/// maximum through the PA arguments (Fig. 1-① lines 9-13); the final step
/// publishes the decision.
Action makeCRecv() {
  return Action(
      "CRecv", 3, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        int64_t I = Args[0].getInt();
        int64_t J = Args[1].getInt();
        int64_t Acc = Args[2].getInt();
        std::vector<Transition> Out;
        const Value &Chan = G.get(VarChannels).mapAt(intV(I));
        for (const auto &[Msg, Count] : Chan.bagEntries()) {
          (void)Count;
          int64_t NewAcc = std::max(Acc, Msg.getInt());
          Store NG = G.set(VarChannels, G.get(VarChannels)
                                            .mapSet(intV(I),
                                                    Chan.bagErase(Msg)));
          if (J < numNodes(G)) {
            Transition T(std::move(NG));
            T.Created.emplace_back("CRecv", args({I, J + 1, NewAcc}));
            Out.push_back(std::move(T));
          } else {
            Out.emplace_back(
                NG.set(VarDecision,
                       NG.get(VarDecision)
                           .mapSet(intV(I), Value::some(intV(NewAcc)))));
          }
        }
        return Out;
      });
}

/// One primitive send step of the fused broadcast loop: CH[j] += value[i]
/// (the loop index j is baked into the op; i is the action parameter).
Action makeSendStep(int64_t J) {
  return Action(
      "SendStep" + std::to_string(J), 1, Action::alwaysEnabled(),
      [J](const Store &G, const std::vector<Value> &Args) {
        return std::vector<Transition>{Transition(
            addMessage(G, J, G.get(VarValue).mapAt(Args[0])))};
      });
}

/// Seeds the scratch accumulator (decision[i] := -∞ of Fig. 1-① line 9).
Action makeAccBegin() {
  return Action("AccBegin", 1, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &Args) {
                  return std::vector<Transition>{Transition(G.set(
                      VarAcc, G.get(VarAcc).mapSet(Args[0],
                                                   intV(AccSeed))))};
                });
}

/// One primitive receive step of the fused collect loop: take any message
/// from CH[i] and fold it into acc[i].
Action makeRecvStep(int64_t StepIndex) {
  return Action(
      "RecvStep" + std::to_string(StepIndex), 1, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        std::vector<Transition> Out;
        const Value &Chan = G.get(VarChannels).mapAt(Args[0]);
        int64_t Acc = G.get(VarAcc).mapAt(Args[0]).getInt();
        for (const auto &[Msg, Count] : Chan.bagEntries()) {
          (void)Count;
          Store NG =
              G.set(VarChannels,
                    G.get(VarChannels).mapSet(Args[0], Chan.bagErase(Msg)))
                  .set(VarAcc,
                       G.get(VarAcc).mapSet(
                           Args[0],
                           intV(std::max(Acc, Msg.getInt()))));
          Out.emplace_back(std::move(NG));
        }
        return Out;
      });
}

/// Publishes the decision and resets the scratch accumulator so the fused
/// action leaves no trace of the intermediate state.
Action makeAccFinish() {
  return Action(
      "AccFinish", 1, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        Store NG =
            G.set(VarDecision,
                  G.get(VarDecision)
                      .mapSet(Args[0],
                              Value::some(G.get(VarAcc).mapAt(Args[0]))))
                .set(VarAcc, G.get(VarAcc).mapSet(Args[0], intV(0)));
        return std::vector<Transition>{Transition(std::move(NG))};
      });
}

} // namespace

Program protocols::makeFineBroadcastProgram(const BroadcastParams &) {
  Program P;
  P.addAction(makeFineMain());
  P.addAction(makeBSend());
  P.addAction(makeCRecv());
  return P;
}

Store
protocols::makeFineBroadcastInitialStore(const BroadcastParams &Params) {
  return makeBroadcastInitialStore(Params).set(
      VarAcc, mapOfRange(1, Params.NumNodes,
                         [](int64_t) { return intV(0); }));
}

Program
protocols::makeReducedBroadcastProgram(const BroadcastParams &Params) {
  int64_t N = Params.NumNodes;

  // The fused broadcast loop: n left-moving sends.
  std::vector<PrimitiveOp> SendOps;
  for (int64_t J = 1; J <= N; ++J)
    SendOps.push_back({makeSendStep(J), MoverType::Left});

  // The fused collect loop: seed, n right-moving receives, publish.
  std::vector<PrimitiveOp> RecvOps;
  RecvOps.push_back({makeAccBegin(), MoverType::Both});
  for (int64_t J = 1; J <= N; ++J)
    RecvOps.push_back({makeRecvStep(J), MoverType::Right});
  RecvOps.push_back({makeAccFinish(), MoverType::Both});

  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       Transition T(G);
                       for (int64_t I = 1; I <= numNodes(G); ++I) {
                         T.Created.emplace_back("Broadcast", args({I}));
                         T.Created.emplace_back("Collect", args({I}));
                       }
                       return std::vector<Transition>{std::move(T)};
                     }));
  P.addAction(fuseSequence("Broadcast", 1, SendOps));
  P.addAction(fuseSequence("Collect", 1, RecvOps));
  return P;
}

CheckResult protocols::checkFineBroadcastMoverAnnotations(
    const BroadcastParams &Params) {
  Program P = makeFineBroadcastProgram(Params);
  ExploreResult R = explore(
      P, initialConfiguration(makeFineBroadcastInitialStore(Params)));
  CheckResult Result;
  // The per-message send is a left mover; the per-message receive is a
  // right mover (§2: over bag channels, "receive is a right mover and
  // send is a left mover"). This justifies the Lipton pattern of both
  // fused loops.
  CheckResult Send =
      checkLeftMover(Symbol::get("BSend"), P.action("BSend"), P,
                     R.Reachable);
  if (!Send.ok())
    Result.fail("BSend is not a left mover");
  Result.merge(Send);
  CheckResult Recv =
      checkRightMover(Symbol::get("CRecv"), P.action("CRecv"), P,
                      R.Reachable);
  if (!Recv.ok())
    Result.fail("CRecv is not a right mover");
  Result.merge(Recv);
  return Result;
}
