//===- protocols/NBuyer.cpp - N-Buyer coordination (§5.3) -------------------------===//

#include "protocols/NBuyer.h"

#include "protocols/ProtocolUtil.h"
#include "is/ScheduleInvariant.h"

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarN = "n";
const char *VarPrice = "price";
const char *VarQuoteCh = "quoteCh";     ///< request tokens, buyer 1 -> seller
const char *VarPriceCh = "priceCh";     ///< per-buyer price quotes
const char *VarContribCh = "contribCh"; ///< (buyer, amount) tuples
const char *VarContrib = "contrib";     ///< recorded promises
const char *VarOrder = "order";

int64_t numBuyers(const Store &G) { return G.get(VarN).getInt(); }

Action makeMain() {
  return Action("Main", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  T.Created.emplace_back("Request", std::vector<Value>{});
                  return std::vector<Transition>{std::move(T)};
                });
}

/// Request: buyer 1 asks the seller for a quote.
Action makeRequest() {
  return Action("Request", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G.set(
                      VarQuoteCh, G.get(VarQuoteCh).bagInsert(intV(1))));
                  T.Created.emplace_back("Quote", std::vector<Value>{});
                  return std::vector<Transition>{std::move(T)};
                });
}

/// Quote: the seller receives the request (blocking) and broadcasts the
/// price to every buyer; buyers and the aggregator start concurrently.
Action makeQuote() {
  return Action(
      "Quote", 0, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &) {
        std::vector<Transition> Out;
        const Value &Tokens = G.get(VarQuoteCh);
        if (Tokens.bagSize() == 0)
          return Out; // blocked until the request arrives
        Store NG = G.set(VarQuoteCh, Tokens.bagErase(intV(1)));
        Value Prices = NG.get(VarPriceCh);
        int64_t Price = G.get(VarPrice).getInt();
        for (int64_t I = 1; I <= numBuyers(G); ++I)
          Prices = Prices.mapSet(
              intV(I), Prices.mapAt(intV(I)).bagInsert(intV(Price)));
        Transition T(NG.set(VarPriceCh, Prices));
        for (int64_t I = 1; I <= numBuyers(G); ++I)
          T.Created.emplace_back("Contribute", args({I}));
        T.Created.emplace_back("Place", std::vector<Value>{});
        Out.push_back(std::move(T));
        return Out;
      });
}

/// Contribute(i): buyer i receives the price (blocking), promises one of
/// the allowed amounts, records it, and reports it to the aggregator.
Action makeContribute(std::vector<int64_t> Choices) {
  return Action(
      "Contribute", 1, Action::alwaysEnabled(),
      [Choices](const Store &G, const std::vector<Value> &Args) {
        int64_t I = Args[0].getInt();
        std::vector<Transition> Out;
        const Value &MyPrices = G.get(VarPriceCh).mapAt(intV(I));
        for (const auto &[Quoted, Count] : MyPrices.bagEntries()) {
          (void)Count;
          Store Received = G.set(
              VarPriceCh,
              G.get(VarPriceCh).mapSet(intV(I), MyPrices.bagErase(Quoted)));
          for (int64_t C : Choices) {
            Store NG =
                Received
                    .set(VarContrib, Received.get(VarContrib)
                                         .mapSet(intV(I),
                                                 Value::some(intV(C))))
                    .set(VarContribCh,
                         Received.get(VarContribCh)
                             .bagInsert(Value::tuple({intV(I), intV(C)})));
            Out.emplace_back(std::move(NG));
          }
        }
        return Out;
      });
}

/// Place: the aggregator receives all n promises (blocking) and places the
/// order iff they cover the price.
Action makePlace() {
  return Action(
      "Place", 0, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &) {
        std::vector<Transition> Out;
        const Value &Reports = G.get(VarContribCh);
        uint64_t N = static_cast<uint64_t>(numBuyers(G));
        if (Reports.bagSize() < N)
          return Out; // blocked until every buyer reported
        for (const Value &Sub : Reports.bagSubBagsOfSize(N)) {
          int64_t Sum = 0;
          for (const auto &[Tuple, Count] : Sub.bagEntries())
            Sum += Tuple.elem(1).getInt() * Count.getInt();
          Value Rest = Reports;
          for (const auto &[Tuple, Count] : Sub.bagEntries())
            Rest = Rest.bagErase(Tuple,
                                 static_cast<uint64_t>(Count.getInt()));
          Store NG = G.set(VarContribCh, Rest);
          if (Sum >= G.get(VarPrice).getInt())
            NG = NG.set(VarOrder, Value::some(intV(Sum)));
          Out.emplace_back(std::move(NG));
        }
        return Out;
      });
}

/// Per-stage rank: only the stage's action is scheduled; phases are
/// ordered Request < Quote < Contribute(1..n) < Place.
RankFn makeStageRank(Symbol Target) {
  return [Target](const PendingAsync &PA)
             -> std::optional<std::vector<int64_t>> {
    if (PA.Action != Target)
      return std::nullopt;
    int64_t Sub = PA.Args.empty() ? 0 : PA.Args[0].getInt();
    return std::vector<int64_t>{Sub};
  };
}

/// One measure shared by all four stages: weights ordered so that every
/// phase strictly decreases the pending sum even when it spawns the next
/// phase's PAs.
Measure makeNBuyerMeasure(const NBuyerParams &Params) {
  int64_t N = Params.NumBuyers;
  return Measure("Σ phase-weight", [N](const Configuration &C) {
    if (C.isFailure())
      return std::vector<uint64_t>{0};
    uint64_t Total = 0;
    for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
      uint64_t W = 0;
      if (PA.Action == Symbol::get("Request"))
        W = static_cast<uint64_t>(N + 4);
      else if (PA.Action == Symbol::get("Quote"))
        W = static_cast<uint64_t>(N + 3);
      else if (PA.Action == Symbol::get("Contribute"))
        W = 1;
      else if (PA.Action == Symbol::get("Place"))
        W = 2;
      Total += W * Count;
    }
    return std::vector<uint64_t>{Total};
  });
}

} // namespace

Program protocols::makeNBuyerProgram(const NBuyerParams &Params) {
  Program P;
  P.addAction(makeMain());
  P.addAction(makeRequest());
  P.addAction(makeQuote());
  P.addAction(makeContribute(Params.ContributionChoices));
  P.addAction(makePlace());
  return P;
}

Store protocols::makeNBuyerInitialStore(const NBuyerParams &Params) {
  int64_t N = Params.NumBuyers;
  return Store::make(
      {{Symbol::get(VarN), intV(N)},
       {Symbol::get(VarPrice), intV(Params.Price)},
       {Symbol::get(VarQuoteCh), emptyBag()},
       {Symbol::get(VarPriceCh),
        mapOfRange(1, N, [](int64_t) { return emptyBag(); })},
       {Symbol::get(VarContribCh), emptyBag()},
       {Symbol::get(VarContrib),
        mapOfRange(1, N, [](int64_t) { return Value::none(); })},
       {Symbol::get(VarOrder), Value::none()}});
}

ISApplication protocols::makeNBuyerStageIS(const NBuyerParams &Params,
                                           size_t Stage,
                                           const Program &Current) {
  static const char *StageActions[kNBuyerStages] = {"Request", "Quote",
                                                    "Contribute", "Place"};
  assert(Stage < kNBuyerStages && "N-Buyer has exactly four stages");
  Symbol Target = Symbol::get(StageActions[Stage]);

  ISApplication App;
  App.P = Current;
  App.M = Program::mainSymbol();
  App.E = {Target};
  RankFn Rank = makeStageRank(Target);
  App.Invariant = makeScheduleInvariant(
      std::string("NBuyerInv") + StageActions[Stage], App.P, App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  App.WfMeasure = makeNBuyerMeasure(Params);

  // Left-mover abstractions for the blocking receives: their gates assert
  // the message availability that holds in the sequential context.
  if (Target == Symbol::get("Quote")) {
    App.Abstractions.emplace(
        Target, Action("QuoteAbs", 0,
                       [](const GateContext &Ctx) {
                         return Ctx.Global.get(VarQuoteCh).bagSize() >= 1;
                       },
                       [P = App.P](const Store &G,
                                   const std::vector<Value> &Args) {
                         return P.action("Quote").transitions(G, Args);
                       }));
  } else if (Target == Symbol::get("Contribute")) {
    App.Abstractions.emplace(
        Target,
        Action("ContributeAbs", 1,
               [](const GateContext &Ctx) {
                 const Value &Mine = Ctx.Global.get(VarPriceCh)
                                         .mapAt(Ctx.Args[0]);
                 return Mine.bagSize() >= 1;
               },
               [P = App.P](const Store &G, const std::vector<Value> &Args) {
                 return P.action("Contribute").transitions(G, Args);
               }));
  } else if (Target == Symbol::get("Place")) {
    App.Abstractions.emplace(
        Target,
        Action("PlaceAbs", 0,
               [](const GateContext &Ctx) {
                 return Ctx.Global.get(VarContribCh).bagSize() >=
                        static_cast<uint64_t>(numBuyers(Ctx.Global));
               },
               [P = App.P](const Store &G, const std::vector<Value> &Args) {
                 return P.action("Place").transitions(G, Args);
               }));
  }
  return App;
}

ISApplication protocols::makeNBuyerOneShotIS(const NBuyerParams &Params) {
  ISApplication App;
  App.P = makeNBuyerProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Request"), Symbol::get("Quote"),
           Symbol::get("Contribute"), Symbol::get("Place")};
  RankFn Rank = [](const PendingAsync &PA)
      -> std::optional<std::vector<int64_t>> {
    if (PA.Action == Symbol::get("Request"))
      return std::vector<int64_t>{0, 0};
    if (PA.Action == Symbol::get("Quote"))
      return std::vector<int64_t>{1, 0};
    if (PA.Action == Symbol::get("Contribute"))
      return std::vector<int64_t>{2, PA.Args[0].getInt()};
    if (PA.Action == Symbol::get("Place"))
      return std::vector<int64_t>{3, 0};
    return std::nullopt;
  };
  App.Invariant =
      makeScheduleInvariant("NBuyerInv", App.P, App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  App.WfMeasure = makeNBuyerMeasure(Params);
  // Only Place needs an abstraction: it is the one action that blocks
  // while other eliminated actions are still pending.
  App.Abstractions.emplace(
      Symbol::get("Place"),
      Action("PlaceAbs", 0,
             [](const GateContext &Ctx) {
               return Ctx.Global.get(VarContribCh).bagSize() >=
                      static_cast<uint64_t>(numBuyers(Ctx.Global));
             },
             [P = App.P](const Store &G, const std::vector<Value> &Args) {
               return P.action("Place").transitions(G, Args);
             }));
  return App;
}

bool protocols::checkNBuyerSpec(const Store &Final,
                                const NBuyerParams &Params) {
  int64_t Sum = 0;
  for (int64_t I = 1; I <= Params.NumBuyers; ++I) {
    const Value &C = Final.get(VarContrib).mapAt(intV(I));
    if (C.isNone())
      return false;
    Sum += C.getSome().getInt();
  }
  const Value &Order = Final.get(VarOrder);
  if (Sum >= Params.Price)
    return Order.isSome() && Order.getSome().getInt() == Sum;
  return Order.isNone();
}
