//===- is/ScheduleInvariant.cpp - Schedule-derived invariants --------------------===//

#include "is/ScheduleInvariant.h"

#include "support/Hashing.h"

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>

using namespace isq;

namespace {

/// A schedule-tree node: the store and pending PAs after some prefix of
/// the fixed-priority sequential schedule.
struct Node {
  Store G;
  PaMultiset Omega;

  bool operator==(const Node &O) const {
    return G == O.G && Omega == O.Omega;
  }
};

struct NodeHash {
  size_t operator()(const Node &N) const {
    size_t Seed = N.G.hash();
    hashCombine(Seed, N.Omega.hash());
    return Seed;
  }
};

/// The minimum-rank ranked PA in \p Omega, or nullopt when none is ranked.
std::optional<PendingAsync> minRankPending(const PaMultiset &Omega,
                                           const RankFn &Rank) {
  std::optional<PendingAsync> Best;
  std::optional<std::vector<int64_t>> BestRank;
  for (const auto &[PA, Count] : Omega.entries()) {
    (void)Count;
    std::optional<std::vector<int64_t>> R = Rank(PA);
    if (!R)
      continue;
    if (!BestRank || *R < *BestRank) {
      Best = PA;
      BestRank = R;
    }
  }
  return Best;
}

} // namespace

Action isq::makeScheduleInvariant(const std::string &Name, const Program &P,
                                  Symbol M, RankFn Rank, size_t MaxNodes) {
  // The schedule tree is enumerated with P's own transition relations, so
  // the derived invariant may run from concurrent checker jobs exactly
  // when every action of P may (e.g. compiled ASL modules). Distinct
  // (store, args) points then expand their trees in parallel.
  bool ThreadSafe = true;
  for (Symbol A : P.actionNames())
    ThreadSafe = ThreadSafe && P.action(A).transitionsThreadSafe();
  // Memoized per (store, args); the cache is shared by all copies of the
  // returned action (captured shared_ptr). Guarded by a mutex: the same
  // action instance may be enumerated from concurrent explorer workers
  // (a racing double-compute is resolved by keeping the first result).
  using Key = std::pair<Store, std::vector<Value>>;
  struct KeyLess {
    bool operator()(const Key &A, const Key &B) const {
      if (A.first != B.first)
        return A.first < B.first;
      return A.second < B.second;
    }
  };
  auto Cache =
      std::make_shared<std::map<Key, std::vector<Transition>, KeyLess>>();
  auto CacheMutex = std::make_shared<std::mutex>();

  Action MAction = P.action(M);
  Action::TransitionsFn Transitions = [P, MAction, Rank, MaxNodes, Cache,
                                       CacheMutex](
                                          const Store &G,
                                          const std::vector<Value> &Args) {
    Key K{G, Args};
    {
      // Map nodes are stable and values immutable once inserted, so the
      // (potentially large) result copy happens outside the lock.
      const std::vector<Transition> *Found = nullptr;
      {
        std::lock_guard<std::mutex> Lock(*CacheMutex);
        auto It = Cache->find(K);
        if (It != Cache->end())
          Found = &It->second;
      }
      if (Found)
        return *Found;
    }

    std::unordered_set<Node, NodeHash> Seen;
    std::deque<Node> Worklist;
    std::vector<Transition> Out;

    auto Push = [&](Store NG, PaMultiset Omega) {
      Node N{std::move(NG), std::move(Omega)};
      if (Seen.size() >= MaxNodes)
        return;
      if (!Seen.insert(N).second)
        return;
      Out.emplace_back(N.G, N.Omega.flatten());
      Worklist.push_back(std::move(N));
    };

    // Roots: M's own transitions — the base case (I1) holds by
    // construction.
    for (const Transition &T : MAction.transitions(G, Args))
      Push(T.Global, T.createdMultiset());

    while (!Worklist.empty()) {
      Node N = std::move(Worklist.front());
      Worklist.pop_front();
      std::optional<PendingAsync> Next = minRankPending(N.Omega, Rank);
      if (!Next)
        continue; // schedule complete at this node
      const Action &A = P.action(Next->Action);
      // A failing or blocked scheduled PA means the declared order is not
      // a valid sequentialization; leave the node as a leaf — the (I3)
      // and (I2) conditions will then reject the application with a
      // diagnostic instead of crashing here.
      if (!A.evalGate(N.G, Next->Args, N.Omega))
        continue;
      std::vector<Transition> Steps = A.transitions(N.G, Next->Args);
      if (Steps.empty())
        continue;
      PaMultiset Rest = N.Omega;
      Rest.erase(*Next);
      for (const Transition &T : Steps) {
        PaMultiset Omega = Rest;
        for (const PendingAsync &New : T.Created)
          Omega.insert(New);
        Push(T.Global, std::move(Omega));
      }
    }

    const std::vector<Transition> *Inserted;
    {
      std::lock_guard<std::mutex> Lock(*CacheMutex);
      // A racing double-compute keeps the first result.
      Inserted = &Cache->emplace(std::move(K), std::move(Out)).first->second;
    }
    return *Inserted;
  };

  return Action(Name, MAction.arity(), Action::alwaysEnabled(),
                std::move(Transitions), /*GateReadsOmega=*/false,
                ThreadSafe);
}

ChoiceFn isq::chooseMinRank(RankFn Rank) {
  return [Rank](const Store &, const std::vector<Value> &,
                const Transition &T) {
    std::optional<PendingAsync> Best;
    std::optional<std::vector<int64_t>> BestRank;
    for (const PendingAsync &PA : T.Created) {
      std::optional<std::vector<int64_t>> R = Rank(PA);
      if (!R)
        continue;
      if (!BestRank || *R < *BestRank) {
        Best = PA;
        BestRank = R;
      }
    }
    assert(Best && "chooseMinRank: no ranked PA among created PAs");
    return *Best;
  };
}
