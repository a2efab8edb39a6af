//===- protocols/ProducerConsumer.cpp - Producer-Consumer (§5.3) ------------------===//

#include "protocols/ProducerConsumer.h"

#include "protocols/ProtocolUtil.h"
#include "is/ScheduleInvariant.h"

#include <algorithm>

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarT = "T";
const char *VarQueue = "queue";
const char *VarProduced = "produced";
const char *VarConsumed = "consumed";

Action makeMain() {
  return Action("Main", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  T.Created.emplace_back("Producer", args({1}));
                  T.Created.emplace_back("Consumer", args({1}));
                  return std::vector<Transition>{std::move(T)};
                });
}

/// Producer(k): enqueue k; continue while k < T. Never blocks — this is
/// what lets the producer run arbitrarily far ahead of the consumer.
Action makeProducer() {
  return Action(
      "Producer", 1, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        int64_t K = Args[0].getInt();
        Store NG = G.set(VarQueue, G.get(VarQueue).seqPushBack(intV(K)))
                       .set(VarProduced, intV(K));
        Transition T(std::move(NG));
        if (K < G.get(VarT).getInt())
          T.Created.emplace_back("Producer", args({K + 1}));
        return std::vector<Transition>{std::move(T)};
      });
}

/// Shared transition relation of Consumer and its abstraction: dequeue the
/// front element (blocking on an empty queue).
std::vector<Transition> consumerTransitions(const Store &G,
                                            const std::vector<Value> &Args) {
  int64_t K = Args[0].getInt();
  std::vector<Transition> Out;
  const Value &Q = G.get(VarQueue);
  if (Q.seqSize() == 0)
    return Out;
  Store NG = G.set(VarQueue, Q.seqPopFront()).set(VarConsumed, intV(K));
  Transition T(std::move(NG));
  if (K < G.get(VarT).getInt())
    T.Created.emplace_back("Consumer", args({K + 1}));
  Out.push_back(std::move(T));
  return Out;
}

/// Consumer(k): the gate asserts the FIFO order (front element, when
/// present, is exactly k).
Action makeConsumer() {
  return Action(
      "Consumer", 1,
      [](const GateContext &Ctx) {
        const Value &Q = Ctx.Global.get(VarQueue);
        return Q.seqSize() == 0 ||
               Q.seqFront().getInt() == Ctx.Args[0].getInt();
      },
      consumerTransitions);
}

std::optional<std::vector<int64_t>> rankOf(const PendingAsync &PA) {
  int64_t K = PA.Args[0].getInt();
  if (PA.Action == Symbol::get("Producer"))
    return std::vector<int64_t>{2 * K};
  if (PA.Action == Symbol::get("Consumer"))
    return std::vector<int64_t>{2 * K + 1};
  return std::nullopt;
}

} // namespace

Program
protocols::makeProducerConsumerProgram(const ProducerConsumerParams &) {
  Program P;
  P.addAction(makeMain());
  P.addAction(makeProducer());
  P.addAction(makeConsumer());
  return P;
}

Store protocols::makeProducerConsumerInitialStore(
    const ProducerConsumerParams &Params) {
  return Store::make({{Symbol::get(VarT), intV(Params.NumItems)},
                      {Symbol::get(VarQueue), emptySeq()},
                      {Symbol::get(VarProduced), intV(0)},
                      {Symbol::get(VarConsumed), intV(0)}});
}

ISApplication
protocols::makeProducerConsumerIS(const ProducerConsumerParams &Params) {
  ISApplication App;
  App.P = makeProducerConsumerProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Producer"), Symbol::get("Consumer")};
  App.Invariant =
      makeScheduleInvariant("ProducerConsumerInv", App.P, App.M, rankOf);
  App.Choice = chooseMinRank(rankOf);

  // Producer is a left mover as-is: push-back commutes to the left of
  // pop-front on the queues reachable here. Only Consumer needs an
  // abstraction (non-blocking: the queue is non-empty with k in front in
  // the sequential context).
  App.Abstractions.emplace(
      Symbol::get("Consumer"),
      Action("ConsumerAbs", 1,
             [](const GateContext &Ctx) {
               const Value &Q = Ctx.Global.get(VarQueue);
               return Q.seqSize() >= 1 &&
                      Q.seqFront().getInt() == Ctx.Args[0].getInt();
             },
             consumerTransitions));

  int64_t T = Params.NumItems;
  App.WfMeasure =
      Measure("Σ remaining-work", [T](const Configuration &C) {
        if (C.isFailure())
          return std::vector<uint64_t>{0};
        uint64_t Total = 0;
        for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
          int64_t K = PA.Args.empty() ? 0 : PA.Args[0].getInt();
          uint64_t W = 0;
          if (PA.Action == Symbol::get("Producer"))
            W = static_cast<uint64_t>(2 * (T + 1) - 2 * K);
          else if (PA.Action == Symbol::get("Consumer"))
            W = static_cast<uint64_t>(2 * (T + 1) - 2 * K - 1);
          Total += W * Count;
        }
        return std::vector<uint64_t>{Total};
      });
  return App;
}

bool protocols::checkProducerConsumerSpec(
    const Store &Final, const ProducerConsumerParams &Params) {
  return Final.get(VarProduced).getInt() == Params.NumItems &&
         Final.get(VarConsumed).getInt() == Params.NumItems &&
         Final.get(VarQueue).seqSize() == 0;
}

uint64_t protocols::maxQueueLength(const std::vector<Store> &Stores) {
  uint64_t Max = 0;
  for (const Store &S : Stores)
    Max = std::max(Max, S.get(VarQueue).seqSize());
  return Max;
}
