//===- protocols/Pathological.cpp - Cooperation counterexample -------------------===//

#include "protocols/Pathological.h"

#include "protocols/Measures.h"
#include "protocols/ProtocolUtil.h"

using namespace isq;
using namespace isq::protocols;

Store protocols::makeCooperationCounterexampleStore() {
  return Store::make({{Symbol::get("dummy"), intV(0)}});
}

Program protocols::makeCooperationCounterexampleProgram() {
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       Transition T(G);
                       T.Created.emplace_back("Rec", std::vector<Value>{});
                       T.Created.emplace_back("Fail", std::vector<Value>{});
                       return std::vector<Transition>{std::move(T)};
                     }));
  P.addAction(Action("Rec", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       Transition T(G);
                       T.Created.emplace_back("Rec", std::vector<Value>{});
                       return std::vector<Transition>{std::move(T)};
                     }));
  P.addAction(Action("Fail", 0,
                     [](const GateContext &) { return false; },
                     [](const Store &, const std::vector<Value> &) {
                       return std::vector<Transition>{};
                     }));
  return P;
}

ISApplication protocols::makeCooperationCounterexampleIS() {
  ISApplication App;
  App.P = makeCooperationCounterexampleProgram();
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("Rec")};
  // I = Main, as in the paper's discussion.
  App.Invariant = App.P.action("Main").withName("Inv");
  App.Choice = ISApplication::chooseInOrder({Symbol::get("Rec")});
  App.WfMeasure = pendingAsyncCount();
  return App;
}
