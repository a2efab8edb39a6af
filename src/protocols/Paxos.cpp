//===- protocols/Paxos.cpp - Single-decree Paxos (§5.2, Fig. 4) -------------------===//

#include "protocols/Paxos.h"

#include "protocols/ProtocolUtil.h"
#include "is/ScheduleInvariant.h"
#include "semantics/Symmetry.h"

#include <algorithm>
#include <memory>

using namespace isq;
using namespace isq::protocols;

namespace {

const char *VarR = "R";
const char *VarN = "N";
const char *VarLastJoined = "lastJoined";   ///< node -> highest round heard
const char *VarJoinedNodes = "joinedNodes"; ///< round -> set of nodes
const char *VarVoteInfo = "voteInfo"; ///< round -> option (value, voters)
const char *VarDecision = "decision"; ///< round -> option value

int64_t numRounds(const Store &G) { return G.get(VarR).getInt(); }
int64_t numNodes(const Store &G) { return G.get(VarN).getInt(); }

bool isQuorum(const Store &G, uint64_t Size) {
  return 2 * Size > static_cast<uint64_t>(numNodes(G));
}

/// The proposer's own value for round r (a fresh value per round, so
/// conflicts are real).
int64_t ownValue(int64_t Round) { return Round; }

/// voteInfo accessors.
bool hasVoteInfo(const Store &G, int64_t Round) {
  return G.get(VarVoteInfo).mapAt(intV(Round)).isSome();
}
int64_t voteValue(const Store &G, int64_t Round) {
  return G.get(VarVoteInfo).mapAt(intV(Round)).getSome().elem(0).getInt();
}
Value voteNodes(const Store &G, int64_t Round) {
  return G.get(VarVoteInfo).mapAt(intV(Round)).getSome().elem(1);
}

Store setVoteInfo(const Store &G, int64_t Round, int64_t Val,
                  const Value &Nodes) {
  return G.set(VarVoteInfo,
               G.get(VarVoteInfo)
                   .mapSet(intV(Round),
                           Value::some(Value::tuple({intV(Val), Nodes}))));
}

Action makeMain() {
  return Action("Main", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  for (int64_t R = 1; R <= numRounds(G); ++R)
                    T.Created.emplace_back("StartRound", args({R}));
                  return std::vector<Transition>{std::move(T)};
                });
}

Action makeStartRound() {
  return Action("StartRound", 1, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &Args) {
                  int64_t R = Args[0].getInt();
                  Transition T(G);
                  for (int64_t Node = 1; Node <= numNodes(G); ++Node)
                    T.Created.emplace_back("Join", args({R, Node}));
                  T.Created.emplace_back("Propose", args({R}));
                  return std::vector<Transition>{std::move(T)};
                });
}

/// Join(r, n): acceptor n promises round r if it has not heard a higher
/// one; the message may also be dropped (the `if (*)` of Fig. 4(b)).
std::vector<Transition> joinTransitions(const Store &G,
                                        const std::vector<Value> &Args) {
  int64_t R = Args[0].getInt();
  int64_t Node = Args[1].getInt();
  std::vector<Transition> Out;
  if (G.get(VarLastJoined).mapAt(intV(Node)).getInt() < R) {
    Store NG =
        G.set(VarLastJoined,
              G.get(VarLastJoined).mapSet(intV(Node), intV(R)))
            .set(VarJoinedNodes,
                 G.get(VarJoinedNodes)
                     .mapSet(intV(R), G.get(VarJoinedNodes)
                                          .mapAt(intV(R))
                                          .setInsert(intV(Node))));
    Out.emplace_back(std::move(NG));
  }
  Out.emplace_back(G); // dropped / stale
  return Out;
}

/// Propose(r): with a join quorum ns, propose the value of the highest
/// round < r that some member of ns voted in (or the proposer's own
/// value); the round may also fail (no quorum collected in time).
std::vector<Transition> proposeTransitions(const Store &G,
                                           const std::vector<Value> &Args) {
  int64_t R = Args[0].getInt();
  std::vector<Transition> Out;
  const Value &Joined = G.get(VarJoinedNodes).mapAt(intV(R));

  // Enumerate quorum subsets ns of joinedNodes[r]; distinct subsets can
  // select distinct values, so collect the distinct proposals.
  std::vector<int64_t> Members;
  for (const Value &MemberV : Joined.elems())
    Members.push_back(MemberV.getInt());
  std::vector<int64_t> ProposedValues;
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << Members.size()); ++Mask) {
    uint64_t Size = 0;
    for (size_t I = 0; I < Members.size(); ++I)
      if (Mask & (uint64_t(1) << I))
        ++Size;
    if (!isQuorum(G, Size))
      continue;
    // v := value of the highest round r' < r visible through ns.
    int64_t V = ownValue(R);
    for (int64_t Prev = R - 1; Prev >= 1; --Prev) {
      if (!hasVoteInfo(G, Prev))
        continue;
      Value Voters = voteNodes(G, Prev);
      bool Visible = false;
      for (size_t I = 0; I < Members.size(); ++I)
        if ((Mask & (uint64_t(1) << I)) &&
            Voters.setContains(intV(Members[I])))
          Visible = true;
      if (Visible) {
        V = voteValue(G, Prev);
        break;
      }
    }
    if (std::find(ProposedValues.begin(), ProposedValues.end(), V) ==
        ProposedValues.end())
      ProposedValues.push_back(V);
  }
  for (int64_t V : ProposedValues) {
    Transition T(setVoteInfo(G, R, V, emptySet()));
    for (int64_t Node = 1; Node <= numNodes(G); ++Node)
      T.Created.emplace_back("Vote", args({R, Node, V}));
    T.Created.emplace_back("Conclude", args({R, V}));
    Out.push_back(std::move(T));
  }
  Out.emplace_back(G); // round fails: no quorum reached
  return Out;
}

/// Vote(r, n, v): acceptor n accepts the proposal if it has not promised
/// a higher round; may also be dropped.
std::vector<Transition> voteTransitions(const Store &G,
                                        const std::vector<Value> &Args) {
  int64_t R = Args[0].getInt();
  int64_t Node = Args[1].getInt();
  std::vector<Transition> Out;
  if (G.get(VarLastJoined).mapAt(intV(Node)).getInt() <= R &&
      hasVoteInfo(G, R)) {
    Store NG = G.set(VarLastJoined,
                     G.get(VarLastJoined).mapSet(intV(Node), intV(R)));
    NG = setVoteInfo(NG, R, voteValue(G, R),
                     voteNodes(G, R).setInsert(intV(Node)));
    Out.emplace_back(std::move(NG));
  }
  Out.emplace_back(G); // dropped / stale
  return Out;
}

/// Conclude(r, v): decide v if a vote quorum materialized; may also fail.
std::vector<Transition>
concludeTransitions(const Store &G, const std::vector<Value> &Args) {
  int64_t R = Args[0].getInt();
  int64_t V = Args[1].getInt();
  std::vector<Transition> Out;
  if (hasVoteInfo(G, R) && voteValue(G, R) == V &&
      isQuorum(G, voteNodes(G, R).setSize())) {
    Store NG = G.set(
        VarDecision,
        G.get(VarDecision).mapSet(intV(R), Value::some(intV(V))));
    Out.emplace_back(std::move(NG));
  }
  Out.emplace_back(G); // no quorum heard from
  return Out;
}

// --- Pending-async inspection helpers for the abstraction gates ----------------

bool anyPending(const PaMultiset &Omega, Symbol Action,
                const std::function<bool(const PendingAsync &)> &Pred) {
  for (const auto &[PA, Count] : Omega.entries()) {
    (void)Count;
    if (PA.Action == Action && Pred(PA))
      return true;
  }
  return false;
}

int64_t paRound(const PendingAsync &PA) { return PA.Args[0].getInt(); }

/// Gate of JoinAbs(r, n): nothing that could interfere with this join is
/// pending at lower rounds — no StartRound(r' < r), no Propose(r' < r),
/// and for the same acceptor no Join/Vote at a lower round.
bool joinAbsGate(const GateContext &Ctx) {
  int64_t R = Ctx.Args[0].getInt();
  const Value &Node = Ctx.Args[1];
  auto LowerRound = [R](const PendingAsync &PA) { return paRound(PA) < R; };
  auto LowerSameNode = [R, &Node](const PendingAsync &PA) {
    return paRound(PA) < R && PA.Args[1] == Node;
  };
  return !anyPending(Ctx.Omega, Symbol::get("StartRound"), LowerRound) &&
         !anyPending(Ctx.Omega, Symbol::get("Propose"), LowerRound) &&
         !anyPending(Ctx.Omega, Symbol::get("Join"), LowerSameNode) &&
         !anyPending(Ctx.Omega, Symbol::get("Vote"), LowerSameNode);
}

/// Gate of ProposeAbs(r) (Fig. 4(c) lines 23-24): no StartRound(r' ≤ r)
/// and no Join(r' ≤ r, ·) still pending — in the sequentialization, all
/// joining at or below round r is finished when round r proposes.
bool proposeAbsGate(const GateContext &Ctx) {
  int64_t R = Ctx.Args[0].getInt();
  auto AtOrBelow = [R](const PendingAsync &PA) { return paRound(PA) <= R; };
  return !anyPending(Ctx.Omega, Symbol::get("StartRound"), AtOrBelow) &&
         !anyPending(Ctx.Omega, Symbol::get("Join"), AtOrBelow) &&
         !hasVoteInfo(Ctx.Global, R);
}

/// Gate of VoteAbs(r, n, v): joining at or below r is finished for this
/// acceptor, and no lower-round activity can still reach it.
bool voteAbsGate(const GateContext &Ctx) {
  int64_t R = Ctx.Args[0].getInt();
  const Value &Node = Ctx.Args[1];
  auto AtOrBelow = [R](const PendingAsync &PA) { return paRound(PA) <= R; };
  auto Below = [R](const PendingAsync &PA) { return paRound(PA) < R; };
  auto AtOrBelowSameNode = [R, &Node](const PendingAsync &PA) {
    return paRound(PA) <= R && PA.Args[1] == Node;
  };
  auto BelowSameNode = [R, &Node](const PendingAsync &PA) {
    return paRound(PA) < R && PA.Args[1] == Node;
  };
  return !anyPending(Ctx.Omega, Symbol::get("StartRound"), AtOrBelow) &&
         !anyPending(Ctx.Omega, Symbol::get("Propose"), Below) &&
         !anyPending(Ctx.Omega, Symbol::get("Join"), AtOrBelowSameNode) &&
         !anyPending(Ctx.Omega, Symbol::get("Vote"), BelowSameNode);
}

/// Gate of ConcludeAbs(r, v): all round-r voting is finished.
bool concludeAbsGate(const GateContext &Ctx) {
  int64_t R = Ctx.Args[0].getInt();
  return !anyPending(Ctx.Omega, Symbol::get("Vote"),
                     [R](const PendingAsync &PA) {
                       return paRound(PA) == R;
                     });
}

/// Sequentialization rank (§5.2): rounds in increasing order; within a
/// round S < J(·) < P < V(·) < C.
std::optional<std::vector<int64_t>> paxosRank(const PendingAsync &PA) {
  if (PA.Action == Symbol::get("StartRound"))
    return std::vector<int64_t>{paRound(PA), 0, 0};
  if (PA.Action == Symbol::get("Join"))
    return std::vector<int64_t>{paRound(PA), 1, PA.Args[1].getInt()};
  if (PA.Action == Symbol::get("Propose"))
    return std::vector<int64_t>{paRound(PA), 2, 0};
  if (PA.Action == Symbol::get("Vote"))
    return std::vector<int64_t>{paRound(PA), 3, PA.Args[1].getInt()};
  if (PA.Action == Symbol::get("Conclude"))
    return std::vector<int64_t>{paRound(PA), 4, 0};
  return std::nullopt;
}

} // namespace

Program protocols::makePaxosProgram(const PaxosParams &Params) {
  Program P;
  P.addAction(makeMain());
  P.addAction(makeStartRound());
  P.addAction(Action("Join", 2, Action::alwaysEnabled(), joinTransitions));
  P.addAction(Action("Propose", 1,
                     [](const GateContext &Ctx) {
                       // Fig. 4(b) line 15: round r proposes at most once.
                       return !hasVoteInfo(Ctx.Global,
                                           Ctx.Args[0].getInt());
                     },
                     proposeTransitions));
  P.addAction(Action("Vote", 3, Action::alwaysEnabled(), voteTransitions));
  P.addAction(
      Action("Conclude", 2, Action::alwaysEnabled(), concludeTransitions));

  // Acceptors 1..N are interchangeable: every action treats node IDs
  // uniformly (quorums are counted, never enumerated by identity), so the
  // engine may explore the quotient under node permutations. Rounds and
  // values are NOT symmetric (ownValue(r) = r ties values to rounds).
  int64_t N = Params.NumNodes;
  if (N >= 1 && static_cast<size_t>(N) <= SymmetrySpec::MaxDomainSize) {
    std::vector<int64_t> Domain;
    for (int64_t Node = 1; Node <= N; ++Node)
      Domain.push_back(Node);
    auto Sym = std::make_shared<SymmetrySpec>("node", std::move(Domain));
    Sym->setGlobalShape(
        Symbol::get(VarLastJoined),
        ValueShape::mapOf(ValueShape::id(), ValueShape::plain()));
    Sym->setGlobalShape(
        Symbol::get(VarJoinedNodes),
        ValueShape::mapOf(ValueShape::plain(),
                          ValueShape::setOf(ValueShape::id())));
    Sym->setGlobalShape(
        Symbol::get(VarVoteInfo),
        ValueShape::mapOf(
            ValueShape::plain(),
            ValueShape::option(ValueShape::tuple(
                {ValueShape::plain(),
                 ValueShape::setOf(ValueShape::id())}))));
    Sym->setActionShape(Symbol::get("Join"),
                        {ValueShape::plain(), ValueShape::id()});
    Sym->setActionShape(
        Symbol::get("Vote"),
        {ValueShape::plain(), ValueShape::id(), ValueShape::plain()});
    P.setSymmetry(std::move(Sym));
  }
  return P;
}

Store protocols::makePaxosInitialStore(const PaxosParams &Params) {
  int64_t R = Params.NumRounds;
  int64_t N = Params.NumNodes;
  return Store::make(
      {{Symbol::get(VarR), intV(R)},
       {Symbol::get(VarN), intV(N)},
       {Symbol::get(VarLastJoined),
        mapOfRange(1, N, [](int64_t) { return intV(0); })},
       {Symbol::get(VarJoinedNodes),
        mapOfRange(1, R, [](int64_t) { return emptySet(); })},
       {Symbol::get(VarVoteInfo),
        mapOfRange(1, R, [](int64_t) { return Value::none(); })},
       {Symbol::get(VarDecision),
        mapOfRange(1, R, [](int64_t) { return Value::none(); })}});
}

ISApplication protocols::makePaxosIS(const PaxosParams &Params) {
  ISApplication App;
  App.P = makePaxosProgram(Params);
  App.M = Program::mainSymbol();
  App.E = {Symbol::get("StartRound"), Symbol::get("Join"),
           Symbol::get("Propose"), Symbol::get("Vote"),
           Symbol::get("Conclude")};
  App.Invariant =
      makeScheduleInvariant("PaxosInv", App.P, App.M, paxosRank);
  App.Choice = chooseMinRank(paxosRank);

  // The Fig. 4(c)-style abstractions: gates assert the lower-round
  // quiescence that holds along the sequentialization and makes every
  // eliminated action a non-blocking left mover. StartRound only creates
  // PAs and needs no abstraction.
  App.Abstractions.emplace(
      Symbol::get("Join"), Action("JoinAbs", 2, joinAbsGate,
                                  joinTransitions, /*GateReadsOmega=*/true));
  App.Abstractions.emplace(
      Symbol::get("Propose"),
      Action("ProposeAbs", 1, proposeAbsGate, proposeTransitions,
             /*GateReadsOmega=*/true));
  App.Abstractions.emplace(
      Symbol::get("Vote"), Action("VoteAbs", 3, voteAbsGate,
                                  voteTransitions, /*GateReadsOmega=*/true));
  App.Abstractions.emplace(
      Symbol::get("Conclude"),
      Action("ConcludeAbs", 2, concludeAbsGate, concludeTransitions,
             /*GateReadsOmega=*/true));

  // Phase-weight measure: every action strictly decreases the weighted
  // pending sum even when it spawns the next phase's PAs.
  int64_t N = Params.NumNodes;
  App.WfMeasure = Measure("Σ phase-weight", [N](const Configuration &C) {
    if (C.isFailure())
      return std::vector<uint64_t>{0};
    uint64_t Total = 0;
    for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
      uint64_t W = 0;
      if (PA.Action == Symbol::get("StartRound"))
        W = static_cast<uint64_t>(2 * N + 5);
      else if (PA.Action == Symbol::get("Join"))
        W = 1;
      else if (PA.Action == Symbol::get("Propose"))
        W = static_cast<uint64_t>(N + 3);
      else if (PA.Action == Symbol::get("Vote"))
        W = 1;
      else if (PA.Action == Symbol::get("Conclude"))
        W = 2;
      Total += W * Count;
    }
    return std::vector<uint64_t>{Total};
  });
  return App;
}

bool protocols::checkPaxosSpec(const Store &Final,
                               const PaxosParams &Params) {
  // Paxos' (Fig. 4(c)): any two decisions agree.
  std::optional<int64_t> Decided;
  for (int64_t R = 1; R <= Params.NumRounds; ++R) {
    const Value &D = Final.get(VarDecision).mapAt(intV(R));
    if (D.isNone())
      continue;
    int64_t V = D.getSome().getInt();
    if (Decided && *Decided != V)
      return false;
    Decided = V;
  }
  return true;
}

bool protocols::paxosDecided(const Store &Final) {
  for (const auto &[Round, D] : Final.get(VarDecision).mapEntries()) {
    (void)Round;
    if (D.isSome())
      return true;
  }
  return false;
}
