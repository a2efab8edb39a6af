//===- protocols/TwoPhaseCommit.cpp - 2PC with early abort -----------------------===//

#include "protocols/TwoPhaseCommit.h"

#include "protocols/ProtocolUtil.h"
#include "is/ScheduleInvariant.h"
#include "semantics/Symmetry.h"

#include <memory>

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarN = "n";
const char *VarReqCh = "reqCh";     ///< per-participant vote requests
const char *VarVoteCh = "voteCh";   ///< (participant, vote) tuples
const char *VarDecCh = "decCh";     ///< per-participant decisions
const char *VarVoted = "voted";     ///< vote each participant sent
const char *VarDecision = "decision";
const char *VarFinalized = "finalized";

int64_t numParticipants(const Store &G) { return G.get(VarN).getInt(); }

Action makeMain() {
  return Action("Main", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  T.Created.emplace_back("RequestVotes",
                                         std::vector<Value>{});
                  return std::vector<Transition>{std::move(T)};
                });
}

/// RequestVotes: the coordinator broadcasts a request to every participant
/// and starts the vote handlers plus its own collection task.
Action makeRequestVotes() {
  return Action(
      "RequestVotes", 0, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &) {
        Value Reqs = G.get(VarReqCh);
        for (int64_t I = 1; I <= numParticipants(G); ++I)
          Reqs = Reqs.mapSet(intV(I),
                             Reqs.mapAt(intV(I)).bagInsert(intV(1)));
        Transition T(G.set(VarReqCh, Reqs));
        for (int64_t I = 1; I <= numParticipants(G); ++I)
          T.Created.emplace_back("Vote", args({I}));
        T.Created.emplace_back("Decide", std::vector<Value>{});
        return std::vector<Transition>{std::move(T)};
      });
}

/// Vote(i): participant i receives the request (blocking) and votes yes
/// or no nondeterministically.
Action makeVote() {
  return Action(
      "Vote", 1, Action::alwaysEnabled(),
      [](const Store &G, const std::vector<Value> &Args) {
        int64_t I = Args[0].getInt();
        std::vector<Transition> Out;
        const Value &MyReqs = G.get(VarReqCh).mapAt(intV(I));
        if (MyReqs.bagSize() == 0)
          return Out; // request not yet delivered
        Store Received = G.set(
            VarReqCh, G.get(VarReqCh).mapSet(intV(I),
                                             MyReqs.bagErase(intV(1))));
        for (bool Yes : {true, false}) {
          Store NG =
              Received
                  .set(VarVoted, Received.get(VarVoted)
                                     .mapSet(intV(I),
                                             Value::some(boolV(Yes))))
                  .set(VarVoteCh,
                       Received.get(VarVoteCh)
                           .bagInsert(Value::tuple({intV(I), boolV(Yes)})));
          Out.emplace_back(std::move(NG));
        }
        return Out;
      });
}

/// Shared transitions of Decide and its abstraction. Branch A: all n
/// votes arrived and all are yes — commit. Branch B (early abort): some
/// negative vote arrived — consume only that vote and abort immediately;
/// the remaining votes stay in flight forever.
std::vector<Transition> decideTransitions(const Store &G,
                                          const std::vector<Value> &) {
  std::vector<Transition> Out;
  int64_t N = numParticipants(G);
  const Value &Votes = G.get(VarVoteCh);

  auto Broadcast = [&](Store NG, bool Commit) {
    NG = NG.set(VarDecision, Value::some(boolV(Commit)));
    Value Decs = NG.get(VarDecCh);
    for (int64_t I = 1; I <= N; ++I)
      Decs = Decs.mapSet(intV(I),
                         Decs.mapAt(intV(I)).bagInsert(boolV(Commit)));
    Transition T(NG.set(VarDecCh, Decs));
    for (int64_t I = 1; I <= N; ++I)
      T.Created.emplace_back("Finalize", args({I}));
    return T;
  };

  // Branch A: unanimous commit.
  if (Votes.bagSize() == static_cast<uint64_t>(N)) {
    bool AllYes = true;
    for (const auto &[Tuple, Count] : Votes.bagEntries()) {
      (void)Count;
      AllYes = AllYes && Tuple.elem(1).getBool();
    }
    if (AllYes)
      Out.push_back(Broadcast(G.set(VarVoteCh, emptyBag()), true));
  }
  // Branch B: early abort on any negative vote.
  for (const auto &[Tuple, Count] : Votes.bagEntries()) {
    (void)Count;
    if (Tuple.elem(1).getBool())
      continue;
    Out.push_back(
        Broadcast(G.set(VarVoteCh, Votes.bagErase(Tuple)), false));
  }
  return Out;
}

Action makeDecide() {
  return Action("Decide", 0, Action::alwaysEnabled(), decideTransitions);
}

/// Finalize(i): participant i receives the decision (blocking) and
/// finalizes the transaction — possibly before processing the request.
std::vector<Transition> finalizeTransitions(const Store &G,
                                            const std::vector<Value> &Args) {
  int64_t I = Args[0].getInt();
  std::vector<Transition> Out;
  const Value &MyDecs = G.get(VarDecCh).mapAt(intV(I));
  for (const auto &[Dec, Count] : MyDecs.bagEntries()) {
    (void)Count;
    Store NG =
        G.set(VarDecCh,
              G.get(VarDecCh).mapSet(intV(I), MyDecs.bagErase(Dec)))
            .set(VarFinalized,
                 G.get(VarFinalized).mapSet(intV(I), Value::some(Dec)));
    Out.emplace_back(std::move(NG));
  }
  return Out;
}

Action makeFinalize() {
  return Action("Finalize", 1, Action::alwaysEnabled(),
                finalizeTransitions);
}

/// Phase order of the sequentialization (the "natural flow" of §5.3):
/// RequestVotes < Vote(1..n) < Decide < Finalize(1..n).
std::optional<std::vector<int64_t>> phaseRank(const PendingAsync &PA) {
  if (PA.Action == Symbol::get("RequestVotes"))
    return std::vector<int64_t>{0, 0};
  if (PA.Action == Symbol::get("Vote"))
    return std::vector<int64_t>{1, PA.Args[0].getInt()};
  if (PA.Action == Symbol::get("Decide"))
    return std::vector<int64_t>{2, 0};
  if (PA.Action == Symbol::get("Finalize"))
    return std::vector<int64_t>{3, PA.Args[0].getInt()};
  return std::nullopt;
}

Measure makeTwoPhaseCommitMeasure(const TwoPhaseCommitParams &Params) {
  int64_t N = Params.NumParticipants;
  return Measure("Σ phase-weight", [N](const Configuration &C) {
    if (C.isFailure())
      return std::vector<uint64_t>{0};
    uint64_t Total = 0;
    for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
      uint64_t W = 0;
      if (PA.Action == Symbol::get("RequestVotes"))
        W = static_cast<uint64_t>(3 * N + 4);
      else if (PA.Action == Symbol::get("Vote"))
        W = 1;
      else if (PA.Action == Symbol::get("Decide"))
        W = static_cast<uint64_t>(N + 2);
      else if (PA.Action == Symbol::get("Finalize"))
        W = 1;
      Total += W * Count;
    }
    return std::vector<uint64_t>{Total};
  });
}

/// The Decide abstraction: non-blocking in the sequential context where
/// all n votes have arrived.
Action makeDecideAbs(const Program &P) {
  return Action("DecideAbs", 0,
                [](const GateContext &Ctx) {
                  return Ctx.Global.get(VarVoteCh).bagSize() >=
                         static_cast<uint64_t>(
                             numParticipants(Ctx.Global));
                },
                [P](const Store &G, const std::vector<Value> &Args) {
                  return P.action("Decide").transitions(G, Args);
                });
}

/// The Finalize abstraction: the decision has been delivered.
Action makeFinalizeAbs(const Program &P) {
  return Action("FinalizeAbs", 1,
                [](const GateContext &Ctx) {
                  return Ctx.Global.get(VarDecCh)
                             .mapAt(Ctx.Args[0])
                             .bagSize() >= 1;
                },
                [P](const Store &G, const std::vector<Value> &Args) {
                  return P.action("Finalize").transitions(G, Args);
                });
}

} // namespace

Program
protocols::makeTwoPhaseCommitProgram(const TwoPhaseCommitParams &Params) {
  Program P;
  P.addAction(makeMain());
  P.addAction(makeRequestVotes());
  P.addAction(makeVote());
  P.addAction(makeDecide());
  P.addAction(makeFinalize());

  // Participants 1..n are interchangeable: votes and decisions flow
  // through per-participant channels addressed only by the ID itself, so
  // the engine may explore the quotient under participant permutations.
  int64_t N = Params.NumParticipants;
  if (N >= 1 && static_cast<size_t>(N) <= SymmetrySpec::MaxDomainSize) {
    std::vector<int64_t> Domain;
    for (int64_t I = 1; I <= N; ++I)
      Domain.push_back(I);
    auto Sym = std::make_shared<SymmetrySpec>("participant",
                                              std::move(Domain));
    ValueShape IdToBag =
        ValueShape::mapOf(ValueShape::id(), ValueShape::bagOf(ValueShape::plain()));
    ValueShape IdToOption =
        ValueShape::mapOf(ValueShape::id(),
                          ValueShape::option(ValueShape::plain()));
    Sym->setGlobalShape(Symbol::get(VarReqCh), IdToBag);
    Sym->setGlobalShape(
        Symbol::get(VarVoteCh),
        ValueShape::bagOf(
            ValueShape::tuple({ValueShape::id(), ValueShape::plain()})));
    Sym->setGlobalShape(Symbol::get(VarDecCh), IdToBag);
    Sym->setGlobalShape(Symbol::get(VarVoted), IdToOption);
    Sym->setGlobalShape(Symbol::get(VarFinalized), IdToOption);
    Sym->setActionShape(Symbol::get("Vote"), {ValueShape::id()});
    Sym->setActionShape(Symbol::get("Finalize"), {ValueShape::id()});
    P.setSymmetry(std::move(Sym));
  }
  return P;
}

Store protocols::makeTwoPhaseCommitInitialStore(
    const TwoPhaseCommitParams &Params) {
  int64_t N = Params.NumParticipants;
  auto EmptyBags = [](int64_t) { return emptyBag(); };
  auto Nones = [](int64_t) { return Value::none(); };
  return Store::make({{Symbol::get(VarN), intV(N)},
                      {Symbol::get(VarReqCh), mapOfRange(1, N, EmptyBags)},
                      {Symbol::get(VarVoteCh), emptyBag()},
                      {Symbol::get(VarDecCh), mapOfRange(1, N, EmptyBags)},
                      {Symbol::get(VarVoted), mapOfRange(1, N, Nones)},
                      {Symbol::get(VarDecision), Value::none()},
                      {Symbol::get(VarFinalized),
                       mapOfRange(1, N, Nones)}});
}

ISApplication
protocols::makeTwoPhaseCommitStageIS(const TwoPhaseCommitParams &Params,
                                     size_t Stage, const Program &Current) {
  static const char *StageActions[kTwoPhaseCommitStages] = {
      "RequestVotes", "Vote", "Decide", "Finalize"};
  assert(Stage < kTwoPhaseCommitStages && "2PC has exactly four stages");
  Symbol Target = Symbol::get(StageActions[Stage]);

  ISApplication App;
  App.P = Current;
  App.M = Program::mainSymbol();
  App.E = {Target};
  RankFn Rank = [Target](const PendingAsync &PA)
      -> std::optional<std::vector<int64_t>> {
    if (PA.Action != Target)
      return std::nullopt;
    return std::vector<int64_t>{PA.Args.empty() ? 0
                                                : PA.Args[0].getInt()};
  };
  App.Invariant = makeScheduleInvariant(
      std::string("TwoPhaseCommitInv") + StageActions[Stage], App.P, App.M,
      Rank);
  App.Choice = chooseMinRank(Rank);
  App.WfMeasure = makeTwoPhaseCommitMeasure(Params);
  if (Target == Symbol::get("Decide"))
    App.Abstractions.emplace(Target, makeDecideAbs(App.P));
  else if (Target == Symbol::get("Finalize"))
    App.Abstractions.emplace(Target, makeFinalizeAbs(App.P));
  return App;
}

ISApplication protocols::makeTwoPhaseCommitOneShotIS(
    const TwoPhaseCommitParams &Params) {
  ISApplication App;
  App.P = makeTwoPhaseCommitProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("RequestVotes"), Symbol::get("Vote"),
           Symbol::get("Decide"), Symbol::get("Finalize")};
  App.Invariant =
      makeScheduleInvariant("TwoPhaseCommitInv", App.P, App.M, phaseRank);
  App.Choice = chooseMinRank(phaseRank);
  App.WfMeasure = makeTwoPhaseCommitMeasure(Params);
  App.Abstractions.emplace(Symbol::get("Decide"), makeDecideAbs(App.P));
  App.Abstractions.emplace(Symbol::get("Finalize"),
                           makeFinalizeAbs(App.P));
  return App;
}

bool protocols::checkTwoPhaseCommitSpec(const Store &Final,
                                        const TwoPhaseCommitParams &Params) {
  const Value &Decision = Final.get(VarDecision);
  if (Decision.isNone())
    return false;
  bool Commit = Decision.getSome().getBool();
  for (int64_t I = 1; I <= Params.NumParticipants; ++I) {
    const Value &Fin = Final.get(VarFinalized).mapAt(intV(I));
    if (Fin.isNone() || Fin.getSome().getBool() != Commit)
      return false;
    if (Commit) {
      const Value &Voted = Final.get(VarVoted).mapAt(intV(I));
      if (Voted.isNone() || !Voted.getSome().getBool())
        return false;
    }
  }
  return true;
}
