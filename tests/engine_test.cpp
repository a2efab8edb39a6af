//===- tests/engine_test.cpp - Hash-consed engine tests ----------------------===//
//
// Tests for the interning arena (engine/StateArena.h) and the parallel
// frontier engine (engine/StateGraph.h): interning round-trips, racing
// interns through index growth (under -DISQ_SANITIZE=thread, the arena's
// race check), determinism of parallel exploration across thread counts,
// differential equivalence with the value-level reference BFS
// (reference/Explorer.h), and truncation reporting.
//
//===----------------------------------------------------------------------===//

#include "engine/ActionCaches.h"
#include "engine/StateArena.h"
#include "explorer/Explorer.h"
#include "protocols/Broadcast.h"
#include "protocols/PingPong.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

using namespace isq;
using namespace isq::engine;
using namespace isq::protocols;

namespace {

Store makeStore(std::initializer_list<std::pair<std::string, int64_t>> KVs) {
  Store S;
  for (const auto &[K, V] : KVs)
    S = S.set(Symbol::get(K), Value::integer(V));
  return S;
}

//===----------------------------------------------------------------------===//
// Interning round-trips
//===----------------------------------------------------------------------===//

TEST(StateArenaTest, StoreInterningRoundTrips) {
  StateArena Arena;
  Store A = makeStore({{"x", 1}, {"y", 2}});
  Store B = makeStore({{"y", 2}, {"x", 1}}); // same contents, other order
  Store C = makeStore({{"x", 1}, {"y", 3}});

  StoreId IdA = Arena.internStore(A);
  StoreId IdB = Arena.internStore(B);
  StoreId IdC = Arena.internStore(C);

  EXPECT_EQ(IdA, IdB) << "equal stores must intern to the same handle";
  EXPECT_NE(IdA, IdC);
  EXPECT_EQ(Arena.store(IdA), A);
  EXPECT_EQ(Arena.store(IdC), C);
}

TEST(StateArenaTest, PendingAsyncInterningRoundTrips) {
  StateArena Arena;
  PendingAsync P1(Symbol::get("Ping"), {Value::integer(1)});
  PendingAsync P2(Symbol::get("Ping"), {Value::integer(2)});

  PaId Id1 = Arena.internPa(P1);
  PaId Id1Again = Arena.internPa(PendingAsync(Symbol::get("Ping"),
                                              {Value::integer(1)}));
  PaId Id2 = Arena.internPa(P2);

  EXPECT_EQ(Id1, Id1Again);
  EXPECT_NE(Id1, Id2);
  EXPECT_EQ(Arena.pa(Id1), P1);
  EXPECT_EQ(Arena.pa(Id2), P2);
}

TEST(StateArenaTest, PaSetInterningRoundTrips) {
  StateArena Arena;
  PendingAsync P1(Symbol::get("A"), {Value::integer(1)});
  PendingAsync P2(Symbol::get("B"), {});
  PaMultiset Omega;
  Omega.insert(P1);
  Omega.insert(P1);
  Omega.insert(P2);

  PaSetId Id = Arena.internPaSet(Omega);
  PaSetId IdAgain = Arena.internPaSet(Omega);
  EXPECT_EQ(Id, IdAgain);
  EXPECT_NE(Id, Arena.emptyPaSet());

  // Round-trip through the value form.
  EXPECT_EQ(Arena.paSet(Id), Omega);

  // The engine form is sorted by PaId with summed multiplicities.
  const PaCountVec &Vec = Arena.paVec(Id);
  ASSERT_EQ(Vec.size(), 2u);
  EXPECT_TRUE(Vec[0].first < Vec[1].first);
  uint64_t Total = 0;
  for (const auto &[Pa, Count] : Vec) {
    (void)Pa;
    Total += Count;
  }
  EXPECT_EQ(Total, 3u);
}

TEST(StateArenaTest, ConfigInterningRoundTrips) {
  StateArena Arena;
  Store G = makeStore({{"x", 7}});
  PaMultiset Omega;
  Omega.insert(PendingAsync(Symbol::get("A"), {}));
  Configuration C(G, Omega);

  ConfigId Id = Arena.internConfig(C);
  ConfigId IdAgain =
      Arena.internConfig(Arena.internStore(G), Arena.internPaSet(Omega));
  EXPECT_EQ(Id, IdAgain);
  EXPECT_EQ(Arena.configuration(Id), C);

  auto [StoreHandle, OmegaHandle] = Arena.config(Id);
  EXPECT_EQ(Arena.store(StoreHandle), G);
  EXPECT_EQ(Arena.paSet(OmegaHandle), Omega);
}

TEST(StateArenaTest, HashConsHitsAreCounted) {
  StateArena Arena;
  Store G = makeStore({{"x", 1}});
  Arena.internStore(G);
  size_t Before = Arena.stats().Hits;
  Arena.internStore(G);
  ArenaStats Stats = Arena.stats();
  EXPECT_EQ(Stats.Hits, Before + 1);
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_GE(Stats.Lookups, 2u);
}

TEST(OmegaGateCacheTest, CountsLookupsAndHits) {
  StateArena Arena;
  // An Ω-observing gate: enabled while anything is still pending. Counting
  // its evaluations pins the memoization: each distinct (store, args, Ω)
  // point runs the gate once; repeats are hits.
  size_t Evals = 0;
  Action A(
      "Guard", 0,
      [&Evals](const GateContext &Ctx) {
        ++Evals;
        return Ctx.Omega.size() > 0;
      },
      [](const Store &, const std::vector<Value> &) {
        return std::vector<Transition>{};
      },
      /*GateReadsOmega=*/true);

  StoreId G = Arena.internStore(makeStore({{"x", 1}}));
  PaId Args = Arena.internPa(PendingAsync(Symbol::get("Guard"), {}));
  PaMultiset Pending;
  Pending.insert(PendingAsync(Symbol::get("Guard"), {}));
  PaSetId NonEmpty = Arena.internPaSet(Pending);
  PaSetId Empty = Arena.emptyPaSet();

  OmegaGateCache Cache(Arena);
  EXPECT_EQ(Cache.lookups(), 0u);
  EXPECT_EQ(Cache.hits(), 0u);

  EXPECT_TRUE(Cache.get(A, G, Args, NonEmpty));   // miss
  EXPECT_FALSE(Cache.get(A, G, Args, Empty));     // distinct Ω: miss
  EXPECT_EQ(Cache.lookups(), 2u);
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Evals, 2u);

  EXPECT_TRUE(Cache.get(A, G, Args, NonEmpty));   // hit
  EXPECT_FALSE(Cache.get(A, G, Args, Empty));     // hit
  EXPECT_TRUE(Cache.get(A, G, Args, NonEmpty));   // hit
  EXPECT_EQ(Cache.lookups(), 5u);
  EXPECT_EQ(Cache.hits(), 3u);
  EXPECT_EQ(Evals, 2u) << "hits must not re-run the gate";

  // A different store misses again under the same Ω.
  StoreId G2 = Arena.internStore(makeStore({{"x", 2}}));
  EXPECT_TRUE(Cache.get(A, G2, Args, NonEmpty));
  EXPECT_EQ(Cache.lookups(), 6u);
  EXPECT_EQ(Cache.hits(), 3u);
  EXPECT_EQ(Evals, 3u);
}

/// Runs \p Body(ThreadIndex) on four threads at once.
template <typename F> void onFourThreads(F Body) {
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < 4; ++T)
    Pool.emplace_back([&Body, T] { Body(T); });
  for (std::thread &T : Pool)
    T.join();
}

TEST(StateArenaTest, HashConsHitsAreCountedAcrossThreads) {
  // The counters are striped per thread and summed on read; the sums must
  // be exactly what one shared counter would have reported. Every store
  // is interned once up front, so each threaded call is a lookup and a
  // hit.
  constexpr int64_t NumStores = 64;
  constexpr size_t Rounds = 50;
  StateArena Arena;
  std::vector<Store> Stores;
  for (int64_t I = 0; I < NumStores; ++I) {
    Stores.push_back(makeStore({{"x", I}}));
    Arena.internStore(Stores.back());
  }
  ArenaStats Before = Arena.stats();
  onFourThreads([&](unsigned T) {
    for (size_t R = 0; R < Rounds; ++R)
      for (size_t I = 0; I < Stores.size(); ++I)
        Arena.internStore(Stores[(I + T) % Stores.size()]);
  });
  ArenaStats After = Arena.stats();
  EXPECT_EQ(After.Lookups - Before.Lookups, 4 * Rounds * NumStores);
  EXPECT_EQ(After.Hits - Before.Hits, 4 * Rounds * NumStores);
  EXPECT_EQ(After.Stores, static_cast<size_t>(NumStores));
}

TEST(StateArenaTest, ConcurrentInternsAgreeThroughGrowth) {
  // Every thread interns every value, each in its own order (the strides
  // are prime to NumValues), so first interns race hits and each other
  // on every table. A shard's index starts at 16 slots and grows at 60%
  // occupancy: 4 000 values of each kind put about 250 in each of 16
  // shards (16 → 512 slots, five growths) and all of them in the one
  // shard at shards=1 (16 → 8 192 slots, nine growths).
  constexpr int64_t NumValues = 4000;
  constexpr unsigned NumThreads = 4;
  constexpr int64_t Stride[NumThreads] = {1, 7, 11, 13};
  for (unsigned Shards : {1u, 16u}) {
    StateArena Arena(Shards);
    ArenaStats Before = Arena.stats(); // holds the empty PA set
    using Ids = std::vector<uint32_t>;
    std::vector<Ids> StoreIds(NumThreads, Ids(NumValues)),
        PaIds(NumThreads, Ids(NumValues)), SetIds(NumThreads, Ids(NumValues)),
        ConfigIds(NumThreads, Ids(NumValues));
    std::atomic<unsigned> Ready{0};
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < NumThreads; ++T)
      Pool.emplace_back([&, T] {
        Ready.fetch_add(1);
        while (Ready.load() < NumThreads)
          std::this_thread::yield();
        for (int64_t K = 0; K < NumValues; ++K) {
          int64_t I = (K * Stride[T] + T * NumValues / NumThreads) % NumValues;
          StoreId G = Arena.internStore(makeStore({{"x", I}}));
          PaId Pa =
              Arena.internPa(PendingAsync(Symbol::get("P"), {Value::integer(I)}));
          PaSetId Set = Arena.internPaVec({{Pa, 1 + I % 3}});
          StoreIds[T][I] = G;
          PaIds[T][I] = Pa;
          SetIds[T][I] = Set;
          ConfigIds[T][I] = Arena.internConfig(G, Set);
        }
      });
    for (std::thread &T : Pool)
      T.join();

    for (unsigned T = 1; T < NumThreads; ++T) {
      EXPECT_EQ(StoreIds[T], StoreIds[0]) << "shards=" << Shards;
      EXPECT_EQ(PaIds[T], PaIds[0]) << "shards=" << Shards;
      EXPECT_EQ(SetIds[T], SetIds[0]) << "shards=" << Shards;
      EXPECT_EQ(ConfigIds[T], ConfigIds[0]) << "shards=" << Shards;
    }
    for (const Ids *Kind : {&StoreIds[0], &PaIds[0], &SetIds[0], &ConfigIds[0]})
      EXPECT_EQ(std::set<uint32_t>(Kind->begin(), Kind->end()).size(),
                static_cast<size_t>(NumValues))
          << "one id per distinct value, shards=" << Shards;
    for (int64_t I = 0; I < NumValues; ++I) {
      ASSERT_EQ(Arena.store(StoreIds[0][I]), makeStore({{"x", I}}));
      ASSERT_EQ(Arena.pa(PaIds[0][I]).Args[0], Value::integer(I));
      ASSERT_EQ(Arena.paVec(SetIds[0][I]),
                (PaCountVec{{PaIds[0][I], 1 + I % 3}}));
      ASSERT_EQ(Arena.config(ConfigIds[0][I]),
                std::make_pair(StoreIds[0][I], SetIds[0][I]));
    }

    ArenaStats After = Arena.stats();
    const size_t N = NumValues;
    EXPECT_EQ(After.Stores, N);
    EXPECT_EQ(After.Pas, N);
    EXPECT_EQ(After.PaSets, Before.PaSets + N);
    EXPECT_EQ(After.Configs, N);
    // Four intern calls per value and thread; all but the first of each
    // value's four calls per kind are hits.
    EXPECT_EQ(After.Lookups - Before.Lookups, 4 * NumThreads * N);
    EXPECT_EQ(After.Hits - Before.Hits, 4 * (NumThreads - 1) * N);
    EXPECT_EQ(After.ShardOccupancy, Shards);
  }
}

TEST(OmegaGateCacheTest, CountsLookupsAndHitsAcrossThreads) {
  // Same key sequence on four threads after a serial warm-up: every
  // threaded get is a lookup and a hit, none re-runs the gate.
  StateArena Arena;
  std::atomic<size_t> Evals{0};
  Action A(
      "Guard", 0,
      [&Evals](const GateContext &Ctx) {
        Evals.fetch_add(1);
        return Ctx.Omega.size() % 2 == 1;
      },
      [](const Store &, const std::vector<Value> &) {
        return std::vector<Transition>{};
      },
      /*GateReadsOmega=*/true);
  PaId Args = Arena.internPa(PendingAsync(Symbol::get("Guard"), {}));
  std::vector<std::pair<StoreId, PaSetId>> Points;
  PaMultiset Pending;
  for (int64_t Size = 0; Size < 8; ++Size) {
    PaSetId Omega = Arena.internPaSet(Pending);
    for (int64_t X = 0; X < 8; ++X)
      Points.emplace_back(Arena.internStore(makeStore({{"x", X}})), Omega);
    Pending.insert(PendingAsync(Symbol::get("Guard"), {}));
  }

  OmegaGateCache Cache(Arena);
  for (auto [G, Omega] : Points)
    Cache.get(A, G, Args, Omega);
  ASSERT_EQ(Cache.lookups(), Points.size());
  ASSERT_EQ(Cache.hits(), 0u);

  constexpr size_t Rounds = 50;
  std::atomic<size_t> Wrong{0};
  onFourThreads([&](unsigned T) {
    for (size_t R = 0; R < Rounds; ++R)
      for (size_t I = 0; I < Points.size(); ++I) {
        auto [G, Omega] = Points[(I + T) % Points.size()];
        bool Expected = Arena.paSet(Omega).size() % 2 == 1;
        if (Cache.get(A, G, Args, Omega) != Expected)
          Wrong.fetch_add(1);
      }
  });
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(Cache.lookups(), Points.size() * (1 + 4 * Rounds));
  EXPECT_EQ(Cache.hits(), Points.size() * 4 * Rounds);
  EXPECT_EQ(Evals.load(), Points.size()) << "hits must not re-run the gate";
}

TEST(OmegaGateCacheTest, MoreActionsThanIdsStayCorrect) {
  // Past the cache's dense action ids, gates are evaluated directly:
  // still correct, merely unmemoized.
  StateArena Arena;
  std::vector<Action> Actions;
  for (int I = 0; I < 80; ++I)
    Actions.emplace_back(
        std::string("G").append(std::to_string(I)), 0,
        [I](const GateContext &Ctx) { return (Ctx.Omega.size() + I) % 3 == 0; },
        [](const Store &, const std::vector<Value> &) {
          return std::vector<Transition>{};
        },
        /*GateReadsOmega=*/true);
  StoreId G = Arena.internStore(makeStore({{"x", 1}}));
  PaId Args = Arena.internPa(PendingAsync(Symbol::get("G0"), {}));
  PaMultiset Pending;
  Pending.insert(PendingAsync(Symbol::get("G0"), {}));
  PaSetId One = Arena.internPaSet(Pending);
  OmegaGateCache Cache(Arena);
  for (int Round = 0; Round < 2; ++Round)
    for (size_t I = 0; I < Actions.size(); ++I) {
      EXPECT_EQ(Cache.get(Actions[I], G, Args, One), (1 + I) % 3 == 0);
      EXPECT_EQ(Cache.get(Actions[I], G, Args, Arena.emptyPaSet()),
                I % 3 == 0);
    }
  EXPECT_EQ(Cache.lookups(), 4 * Actions.size());
}

TEST(StateArenaTest, PaCountVecOperations) {
  StateArena Arena;
  PaId A = Arena.internPa(PendingAsync(Symbol::get("A"), {}));
  PaId B = Arena.internPa(PendingAsync(Symbol::get("B"), {}));
  PaId Lo = std::min(A, B), Hi = std::max(A, B);

  PaCountVec X{{Lo, 2}, {Hi, 1}};
  PaCountVec Y{{Hi, 3}};
  PaCountVec U = paCountVecUnion(X, Y);
  ASSERT_EQ(U.size(), 2u);
  EXPECT_EQ(U[0], (std::pair<PaId, uint64_t>{Lo, 2}));
  EXPECT_EQ(U[1], (std::pair<PaId, uint64_t>{Hi, 4}));

  paCountVecErase(X, Lo);
  ASSERT_EQ(X.size(), 2u);
  EXPECT_EQ(X[0].second, 1u);
  paCountVecErase(X, Lo); // multiplicity drops to zero: entry removed
  ASSERT_EQ(X.size(), 1u);
  EXPECT_EQ(X[0].first, Hi);
}

//===----------------------------------------------------------------------===//
// Parallel determinism
//===----------------------------------------------------------------------===//

struct Instance {
  std::string Name;
  Program P;
  Store Init;
};

std::vector<Instance> tier1Instances() {
  std::vector<Instance> Out;
  PingPongParams PP{3};
  Out.push_back({"pingpong", makePingPongProgram(PP),
                 makePingPongInitialStore(PP)});
  BroadcastParams BC{3, {}};
  Out.push_back({"broadcast", makeBroadcastProgram(BC),
                 makeBroadcastInitialStore(BC)});
  TwoPhaseCommitParams TP{3};
  Out.push_back({"2pc", makeTwoPhaseCommitProgram(TP),
                 makeTwoPhaseCommitInitialStore(TP)});
  return Out;
}

void expectIdentical(const ExploreResult &A, const ExploreResult &B,
                     const std::string &Context) {
  EXPECT_EQ(A.Reachable, B.Reachable) << Context;
  EXPECT_EQ(A.FailureReachable, B.FailureReachable) << Context;
  EXPECT_EQ(A.TerminalStores, B.TerminalStores) << Context;
  EXPECT_EQ(A.Deadlocks, B.Deadlocks) << Context;
  EXPECT_EQ(A.Stats.NumConfigurations, B.Stats.NumConfigurations) << Context;
  EXPECT_EQ(A.Stats.NumTransitions, B.Stats.NumTransitions) << Context;
  EXPECT_EQ(A.Stats.Truncated, B.Stats.Truncated) << Context;
  ASSERT_EQ(A.FailureTrace.has_value(), B.FailureTrace.has_value()) << Context;
  if (A.FailureTrace) {
    EXPECT_EQ(A.FailureTrace->length(), B.FailureTrace->length()) << Context;
    EXPECT_EQ(A.FailureTrace->scheduleStr(), B.FailureTrace->scheduleStr())
        << Context;
  }
}

TEST(ParallelExploreTest, ThreadCountDoesNotChangeResults) {
  for (const Instance &I : tier1Instances()) {
    ExploreOptions Serial;
    Serial.Config.NumThreads = 1;
    ExploreResult Base = explore(I.P, initialConfiguration(I.Init), Serial);
    EXPECT_GT(Base.Stats.NumConfigurations, 1u) << I.Name;

    for (unsigned Threads : {2u, 8u}) {
      ExploreOptions Par;
      Par.Config.NumThreads = Threads;
      ExploreResult R = explore(I.P, initialConfiguration(I.Init), Par);
      EXPECT_EQ(R.Engine.Threads, Threads) << I.Name;
      expectIdentical(Base, R,
                      I.Name + " with " + std::to_string(Threads) +
                          " threads");
    }
  }
}

TEST(ParallelExploreTest, FailureTracesIdenticalAcrossThreadCounts) {
  PingPongParams PP{3};
  Program Buggy = makeBuggyPingPongProgram(PP);
  Configuration Init = initialConfiguration(makePingPongInitialStore(PP));

  ExploreOptions Serial;
  ExploreResult Base = explore(Buggy, Init, Serial);
  ASSERT_TRUE(Base.FailureReachable);
  ASSERT_TRUE(Base.FailureTrace.has_value());

  for (unsigned Threads : {2u, 8u}) {
    ExploreOptions Par;
    Par.Config.NumThreads = Threads;
    ExploreResult R = explore(Buggy, Init, Par);
    expectIdentical(Base, R,
                    "buggy pingpong with " + std::to_string(Threads) +
                        " threads");
  }
}

//===----------------------------------------------------------------------===//
// Differential testing against the value-level reference BFS
//===----------------------------------------------------------------------===//

TEST(EngineDifferentialTest, MatchesLegacyExplorer) {
  for (const Instance &I : tier1Instances()) {
    std::vector<Configuration> Inits{initialConfiguration(I.Init)};
    ExploreResult Reference = reference::exploreAll(I.P, Inits);
    // The reference explorer is always unreduced; compare like with like
    // (symmetry-vs-unreduced differentials live in symmetry_test.cpp).
    ExploreOptions Unreduced;
    Unreduced.Config.Symmetry = false;
    ExploreResult Engine = exploreAll(I.P, Inits, Unreduced);
    EXPECT_EQ(Engine.Reachable, Reference.Reachable) << I.Name;
    EXPECT_EQ(Engine.FailureReachable, Reference.FailureReachable) << I.Name;
    EXPECT_EQ(Engine.TerminalStores, Reference.TerminalStores) << I.Name;
    EXPECT_EQ(Engine.Deadlocks, Reference.Deadlocks) << I.Name;
    EXPECT_EQ(Engine.Stats.NumConfigurations,
              Reference.Stats.NumConfigurations)
        << I.Name;
    EXPECT_EQ(Engine.Stats.NumTransitions, Reference.Stats.NumTransitions)
        << I.Name;
  }
}

//===----------------------------------------------------------------------===//
// Work-stealing frontier
//===----------------------------------------------------------------------===//

TEST(WorkStealingTest, BitIdenticalAcrossThreadCounts) {
  for (const Instance &I : tier1Instances()) {
    ExploreOptions One;
    One.Config.NumThreads = 1;
    ExploreResult Base = explore(I.P, initialConfiguration(I.Init), One);

    for (unsigned Threads : {2u, 8u}) {
      ExploreOptions Par;
      Par.Config.NumThreads = Threads;
      ExploreResult R = explore(I.P, initialConfiguration(I.Init), Par);
      expectIdentical(Base, R,
                      I.Name + " work-stealing with " +
                          std::to_string(Threads) + " threads");
      // Interning and canonicalization counters are part of the
      // determinism contract too (only timings and steals may vary).
      EXPECT_EQ(Base.Engine.InternedStores, R.Engine.InternedStores)
          << I.Name;
      EXPECT_EQ(Base.Engine.InternedConfigs, R.Engine.InternedConfigs)
          << I.Name;
      EXPECT_EQ(Base.Engine.FrontierPeak, R.Engine.FrontierPeak) << I.Name;
    }
  }
}

TEST(WorkStealingTest, SmallChunksStealAndStayDeterministic) {
  BroadcastParams BC{3, {}};
  Program P = makeBroadcastProgram(BC);
  Configuration Init = initialConfiguration(makeBroadcastInitialStore(BC));

  ExploreOptions Base;
  Base.Config.NumThreads = 1;
  ExploreResult Expect = explore(P, Init, Base);

  // chunk=1 maximizes scheduling freedom — the strongest determinism
  // stress — and makes steals essentially certain with 4 threads.
  ExploreOptions Tiny;
  Tiny.Config.NumThreads = 4;
  Tiny.Config.StealChunk = 1;
  ExploreResult R = explore(P, Init, Tiny);
  expectIdentical(Expect, R, "broadcast steal-chunk=1");
  EXPECT_EQ(R.Engine.StealChunk, 1u);
}

TEST(WorkStealingTest, FailuresHandledWithoutStop) {
  PingPongParams PP{3};
  Program Buggy = makeBuggyPingPongProgram(PP);
  Configuration Init = initialConfiguration(makePingPongInitialStore(PP));

  ExploreResult Oracle = reference::exploreAll(Buggy, {Init});
  ASSERT_TRUE(Oracle.FailureReachable);

  // The reference explorer is always unreduced; compare like with like.
  ExploreOptions Ws;
  Ws.Config.NumThreads = 4;
  Ws.Config.Symmetry = false;
  ExploreResult R = explore(Buggy, Init, Ws);
  expectIdentical(Oracle, R, "buggy pingpong under work stealing");
}

//===----------------------------------------------------------------------===//
// Arena shards
//===----------------------------------------------------------------------===//

TEST(StateArenaTest, ShardCountIsObservableAndDeterministic) {
  BroadcastParams BC{3, {}};
  Program P = makeBroadcastProgram(BC);
  Configuration Init = initialConfiguration(makeBroadcastInitialStore(BC));

  ExploreOptions Opts;
  Opts.Config.Shards = 8;
  ExploreResult First = explore(P, Init, Opts);
  EXPECT_EQ(First.Engine.Shards, 8u);
  EXPECT_GT(First.Engine.ShardOccupancy, 0u);
  EXPECT_LE(First.Engine.ShardOccupancy, 8u);

  // Occupancy is a pure function of the reached value set, so it must not
  // wobble across thread counts.
  Opts.Config.NumThreads = 4;
  ExploreResult Second = explore(P, Init, Opts);
  EXPECT_EQ(First.Engine.ShardOccupancy, Second.Engine.ShardOccupancy);

  // Fewer shards must not change anything but the occupancy bound.
  ExploreOptions One;
  One.Config.Shards = 1;
  ExploreResult Single = explore(P, Init, One);
  expectIdentical(First, Single, "broadcast shards=1");
  EXPECT_EQ(Single.Engine.ShardOccupancy, 1u);
}

//===----------------------------------------------------------------------===//
// Truncation
//===----------------------------------------------------------------------===//

TEST(EngineTruncationTest, MaxConfigurationsSetsTruncatedFlag) {
  BroadcastParams BC{3, {}};
  Program P = makeBroadcastProgram(BC);
  Configuration Init = initialConfiguration(makeBroadcastInitialStore(BC));

  ExploreOptions Full;
  ExploreResult Complete = explore(P, Init, Full);
  ASSERT_FALSE(Complete.Stats.Truncated);
  ASSERT_GT(Complete.Stats.NumConfigurations, 4u);

  for (unsigned Threads : {1u, 4u}) {
    ExploreOptions Opts;
    Opts.MaxConfigurations = 4;
    Opts.Config.NumThreads = Threads;
    ExploreResult R = explore(P, Init, Opts);
    EXPECT_TRUE(R.Stats.Truncated)
        << Threads << " threads: cap must report truncation";
    EXPECT_LE(R.Stats.NumConfigurations, 4u) << Threads << " threads";
  }
}

TEST(EngineTruncationTest, CompleteExplorationIsNotTruncated) {
  PingPongParams PP{2};
  Program P = makePingPongProgram(PP);
  ExploreResult R = explore(P, initialConfiguration(makePingPongInitialStore(PP)));
  EXPECT_FALSE(R.Stats.Truncated);
}

//===----------------------------------------------------------------------===//
// Engine observability
//===----------------------------------------------------------------------===//

TEST(EngineStatsTest, StatsArePopulated) {
  BroadcastParams BC{3, {}};
  Program P = makeBroadcastProgram(BC);
  ExploreResult R =
      explore(P, initialConfiguration(makeBroadcastInitialStore(BC)));

  EXPECT_EQ(R.Engine.NumConfigurations, R.Stats.NumConfigurations);
  EXPECT_GT(R.Engine.InternedStores, 0u);
  EXPECT_GT(R.Engine.InternedPaSets, 0u);
  EXPECT_GT(R.Engine.FrontierPeak, 0u);
  EXPECT_EQ(R.Engine.Threads, 1u);
  EXPECT_GT(R.Engine.hashConsHitRate(), 0.0);
  std::string S = R.Engine.str();
  EXPECT_NE(S.find("configs="), std::string::npos);
  EXPECT_NE(S.find("hashcons-hit="), std::string::npos);
}

} // namespace
