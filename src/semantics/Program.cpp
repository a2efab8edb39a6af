//===- semantics/Program.cpp - Programs over atomic actions -----------------===//

#include "semantics/Program.h"

using namespace isq;

void Program::addAction(Action A) {
  assert(A.isValid() && "adding invalid action");
  auto It = Index.find(A.name());
  if (It != Index.end()) {
    Actions[It->second] = std::move(A);
    return;
  }
  Index.emplace(A.name(), Actions.size());
  Actions.push_back(std::move(A));
}

const Action &Program::action(Symbol Name) const {
  auto It = Index.find(Name);
  assert(It != Index.end() && "unknown action name");
  return Actions[It->second];
}

std::vector<Symbol> Program::actionNames() const {
  std::vector<Symbol> Names;
  Names.reserve(Actions.size());
  for (const Action &A : Actions)
    Names.push_back(A.name());
  return Names;
}

Program Program::withAction(Action A) const {
  assert(hasAction(A.name()) && "withAction expects an existing action name");
  Program P = *this;
  // The substituted action may not be equivariant under the declared
  // symmetry (schedule invariants rank by node ID); the substituted
  // program is conservatively treated as asymmetric.
  P.Sym.reset();
  P.addAction(std::move(A));
  return P;
}

Configuration isq::initialConfiguration(Store Global,
                                        std::vector<Value> MainArgs) {
  PaMultiset Omega;
  Omega.insert(PendingAsync(Program::mainSymbol(), std::move(MainArgs)));
  return Configuration(std::move(Global), std::move(Omega));
}
