//===- engine/StateGraph.cpp - Parallel frontier exploration -----------------===//
//
// The frontier is cut into chunks of steal-chunk node indices; each chunk
// copies its ConfigIds out of the merger-private node list at dispatch, is
// expanded by whichever worker pops or steals it (per-worker deques: owner
// pops newest, thieves take oldest), and publishes its results through a
// Done flag. A single merger folds chunks strictly in node-index order —
// the classical FIFO BFS order — so discovery order, counts, verdicts and
// diagnostics are independent of which worker expanded what when. The
// merger dispatches new full chunks as merging appends nodes, flushes a
// partial chunk only when it has nothing left to merge (so no chunk ever
// waits on nodes that cannot arrive), and helps expand while the next
// chunk in merge order is still in flight. The value-level
// reference::exploreAll (reference/Explorer.h) is the reference it is
// tested against.
//
// Workers never touch the node list; duplicate-pruning during expansion
// reads a lazily-allocated atomic seen-bitmap that the merger writes
// *after* interning, so the interned set — and every count derived from
// it — stays deterministic even though the pruning itself is racy (a
// missed prune only costs the merger a no-op fold).
//
//===----------------------------------------------------------------------===//

#include "engine/StateGraph.h"

#include "engine/ActionCaches.h"
#include "engine/Canonicalizer.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

using namespace isq;
using namespace isq::engine;

namespace isq {
namespace engine {
/// Grants the exploration engine mutable access to StateGraph's results.
struct GraphAccess {
  static std::shared_ptr<StateArena> &arena(StateGraph &G) { return G.Arena; }
  static std::vector<ConfigId> &nodes(StateGraph &G) { return G.Nodes; }
  static std::vector<StateGraph::Link> &links(StateGraph &G) {
    return G.Links;
  }
  static std::optional<std::pair<uint32_t, PaId>> &failureAt(StateGraph &G) {
    return G.FailureAt;
  }
  static std::vector<StoreId> &terminals(StateGraph &G) {
    return G.Terminals;
  }
  static std::vector<uint32_t> &deadlocks(StateGraph &G) {
    return G.Deadlocks;
  }
  static std::vector<uint32_t> &orbitSizes(StateGraph &G) {
    return G.OrbitSizes;
  }
  static EngineStats &stats(StateGraph &G) { return G.Stats; }
};
} // namespace engine
} // namespace isq

static std::string percent(double Fraction) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%", 100.0 * Fraction);
  return Buf;
}

void EngineStats::accumulate(const EngineStats &Other) {
  NumConfigurations += Other.NumConfigurations;
  NumTransitions += Other.NumTransitions;
  Truncated = Truncated || Other.Truncated;
  InternedStores = std::max(InternedStores, Other.InternedStores);
  InternedPas = std::max(InternedPas, Other.InternedPas);
  InternedPaSets = std::max(InternedPaSets, Other.InternedPaSets);
  InternedConfigs = std::max(InternedConfigs, Other.InternedConfigs);
  HashConsLookups += Other.HashConsLookups;
  HashConsHits += Other.HashConsHits;
  TransitionCacheLookups += Other.TransitionCacheLookups;
  TransitionCacheHits += Other.TransitionCacheHits;
  SymmetryReduced = SymmetryReduced || Other.SymmetryReduced;
  CanonCalls += Other.CanonCalls;
  CanonCacheHits += Other.CanonCacheHits;
  OrbitStatesRepresented += Other.OrbitStatesRepresented;
  FrontierPeak = std::max(FrontierPeak, Other.FrontierPeak);
  Threads = std::max(Threads, Other.Threads);
  StealChunk = std::max(StealChunk, Other.StealChunk);
  Steals += Other.Steals;
  Shards = std::max(Shards, Other.Shards);
  ShardOccupancy = std::max(ShardOccupancy, Other.ShardOccupancy);
  ExpandSeconds += Other.ExpandSeconds;
  MergeSeconds += Other.MergeSeconds;
  TotalSeconds += Other.TotalSeconds;
}

std::string EngineStats::str() const {
  std::string Out;
  Out += "configs=" + std::to_string(NumConfigurations);
  Out += " transitions=" + std::to_string(NumTransitions);
  if (Truncated)
    Out += " (truncated)";
  Out += " stores=" + std::to_string(InternedStores);
  Out += " pasets=" + std::to_string(InternedPaSets);
  Out += " hashcons-hit=" + percent(hashConsHitRate());
  Out += " transcache-hit=" + percent(transitionCacheHitRate());
  if (SymmetryReduced) {
    Out += " orbit-states=" + std::to_string(OrbitStatesRepresented);
    Out += " canon-hit=" + percent(canonHitRate());
  }
  Out += " frontier-peak=" + std::to_string(FrontierPeak);
  Out += " threads=" + std::to_string(Threads);
  if (StealChunk) { // 0 only when no exploration ran
    Out += " steal-chunk=" + std::to_string(StealChunk);
    Out += " steals=" + std::to_string(Steals);
  }
  if (Shards) {
    Out += " shards=" + std::to_string(ShardOccupancy) + "/" +
           std::to_string(Shards);
  }
  Out += " expand=" + formatSeconds(ExpandSeconds) + "s";
  Out += " merge=" + formatSeconds(MergeSeconds) + "s";
  Out += " total=" + formatSeconds(TotalSeconds) + "s";
  return Out;
}

namespace {

/// One ordered successor candidate of a node: the PA executed and the
/// interned child, or Child == InvalidId for a failing step.
struct Item {
  PaId Via;
  ConfigId Child;
  /// Orbit size of Child under the active symmetry (1 when unreduced).
  uint32_t Orbit = 1;
};

/// Everything a worker produces for one frontier node. Candidates are in
/// the exact order the classical FIFO BFS would visit them, which is what
/// makes the serial merge deterministic.
struct NodeOut {
  std::vector<Item> Items;
  uint64_t Transitions = 0;
  bool AnyMove = false;
};

/// A contiguous run of node indices dispatched as one unit of work. The
/// ConfigIds are copied out of the merger-private node list at dispatch
/// time, so expansion never reads shared graph state; results travel back
/// inside the chunk, published by the Done flag (release) and consumed by
/// the merger (acquire).
struct Chunk {
  size_t Begin = 0;
  std::vector<ConfigId> Cids;
  std::vector<NodeOut> Outs;
  std::atomic<bool> Done{false};
};

/// Lazily-allocated atomic bitmap over ConfigIds: the engine's racy
/// duplicate filter. Only the merger sets bits (after the node is interned
/// and appended); workers read without synchronization — a stale read is a
/// missed prune, never a wrong result.
class SeenBits {
  static constexpr size_t BlockLog = 16; // bits per block
  static constexpr size_t NumBlocks = size_t(1) << (32 - BlockLog);
  static constexpr size_t WordsPerBlock = (size_t(1) << BlockLog) / 64;

public:
  SeenBits() : Blocks(new std::atomic<std::atomic<uint64_t> *>[NumBlocks]) {
    for (size_t I = 0; I < NumBlocks; ++I)
      Blocks[I].store(nullptr, std::memory_order_relaxed);
  }
  ~SeenBits() {
    for (size_t I = 0; I < NumBlocks; ++I)
      delete[] Blocks[I].load(std::memory_order_relaxed);
  }

  bool test(uint32_t Id) const {
    const std::atomic<uint64_t> *Block =
        Blocks[Id >> BlockLog].load(std::memory_order_acquire);
    if (!Block)
      return false;
    uint64_t Word =
        Block[(Id & ((1u << BlockLog) - 1)) >> 6].load(
            std::memory_order_relaxed);
    return (Word >> (Id & 63)) & 1;
  }

  /// Merger-only.
  void set(uint32_t Id) {
    std::atomic<uint64_t> *Block =
        Blocks[Id >> BlockLog].load(std::memory_order_relaxed);
    if (!Block) {
      Block = new std::atomic<uint64_t>[WordsPerBlock]();
      Blocks[Id >> BlockLog].store(Block, std::memory_order_release);
    }
    Block[(Id & ((1u << BlockLog) - 1)) >> 6].fetch_or(
        uint64_t(1) << (Id & 63), std::memory_order_relaxed);
  }

private:
  std::unique_ptr<std::atomic<std::atomic<uint64_t> *>[]> Blocks;
};

/// The per-run exploration state behind exploreGraph().
struct Engine {
  const Program &P;
  const EngineOptions &Opts;
  StateArena &Arena;

  // Mutable views into the StateGraph under construction.
  std::vector<ConfigId> &Nodes;
  std::vector<StateGraph::Link> &Links;
  std::optional<std::pair<uint32_t, PaId>> &FailureAt;
  std::vector<StoreId> &Terminals;
  std::vector<uint32_t> &Deadlocks;
  std::vector<uint32_t> &OrbitSizes;
  EngineStats &Stats;

  InternedTransitionCache TransCache;
  GateCache Gates;
  /// Symbol → action resolution, hoisted out of the hot loop.
  std::unordered_map<Symbol, const Action *> Resolve;

  /// The active symmetry's canonicalizer (empty = unreduced run). Trivial
  /// groups (singleton domains) are treated as no symmetry.
  std::optional<Canonicalizer> Canon;

  /// ConfigId → node index (InvalidId when unexplored). Merger-only.
  std::vector<uint32_t> NodeOf;
  std::unordered_set<StoreId> TerminalSeen;

  SeenBits Seen;
  /// BFS depth per node index; derives the level widths (and hence
  /// FrontierPeak).
  std::vector<uint32_t> Depths;
  std::vector<size_t> LevelWidths;
  struct WorkerDeque {
    std::mutex M;
    std::deque<Chunk *> D;
  };
  std::vector<std::unique_ptr<WorkerDeque>> Deques;
  std::deque<std::unique_ptr<Chunk>> ChunkList;
  std::mutex IdleM;
  std::condition_variable IdleCv;
  std::atomic<size_t> PendingChunks{0};
  std::atomic<bool> Shutdown{false};
  std::atomic<bool> WorkerFailed{false};
  std::exception_ptr WorkerError;
  std::mutex ErrorM;
  std::atomic<uint64_t> StealCount{0};
  std::atomic<uint64_t> ExpandNanos{0};

  Engine(const Program &P, const EngineOptions &Opts, StateArena &Arena,
         StateGraph &G)
      : P(P), Opts(Opts), Arena(Arena), Nodes(GraphAccess::nodes(G)),
        Links(GraphAccess::links(G)), FailureAt(GraphAccess::failureAt(G)),
        Terminals(GraphAccess::terminals(G)),
        Deadlocks(GraphAccess::deadlocks(G)),
        OrbitSizes(GraphAccess::orbitSizes(G)),
        Stats(GraphAccess::stats(G)), TransCache(Arena), Gates(Arena) {
    for (Symbol Name : P.actionNames())
      Resolve.emplace(Name, &P.action(Name));
    if (Opts.Config.Symmetry && P.symmetry() &&
        P.symmetry()->numPermutations() > 1)
      Canon.emplace(Arena, *P.symmetry());
  }

  bool known(ConfigId Cid) const {
    return Cid < NodeOf.size() && NodeOf[Cid] != InvalidId;
  }

  /// Registers \p Cid if new; mirrors the classical BFS add() semantics
  /// (truncation flag set when the cap blocks an insertion). Merger-only.
  void add(ConfigId Cid, uint32_t Parent, PaId Via, uint32_t Orbit = 1) {
    if (known(Cid))
      return;
    if (Nodes.size() >= Opts.MaxConfigurations) {
      Stats.Truncated = true;
      return;
    }
    if (Cid >= NodeOf.size())
      NodeOf.resize(Cid + 1, InvalidId);
    uint32_t Index = static_cast<uint32_t>(Nodes.size());
    NodeOf[Cid] = Index;
    Nodes.push_back(Cid);
    if (Canon) {
      OrbitSizes.push_back(Orbit);
      Stats.OrbitStatesRepresented += Orbit;
    }
    if (Opts.RecordParents)
      Links.push_back({Parent, Via});
    auto [StoreIdOf, PaSetIdOf] = Arena.config(Cid);
    if (PaSetIdOf == Arena.emptyPaSet() &&
        TerminalSeen.insert(StoreIdOf).second)
      Terminals.push_back(StoreIdOf);
    // Publish to the racy duplicate filter only after interning and
    // registration, so the node set stays schedule-independent.
    Seen.set(Cid);
    uint32_t Depth = Parent == UINT32_MAX ? 0 : Depths[Parent] + 1;
    Depths.push_back(Depth);
    if (Depth >= LevelWidths.size())
      LevelWidths.resize(Depth + 1, 0);
    Stats.FrontierPeak = std::max(Stats.FrontierPeak, ++LevelWidths[Depth]);
  }

  /// Expands one node into its ordered successor candidates. Runs in
  /// worker threads; touches only the sharded arena/caches and the racy
  /// seen-bitmap.
  void expand(ConfigId Cid, NodeOut &Out) {
    auto [StoreIdOf, PaSetIdOf] = Arena.config(Cid);
    const PaCountVec &Entries = Arena.paVec(PaSetIdOf);
    if (Entries.empty())
      return; // terminating configuration
    const Store &Global = Arena.store(StoreIdOf);
    // Iterate PAs in canonical value order, not PaId order: PaIds depend
    // on interning order (racy under parallel interning), so value order
    // is what makes candidate order — and hence BFS discovery order —
    // identical for every thread count and equal to the classical BFS.
    for (PaId PaIdOf : Arena.paOrder(PaSetIdOf)) {
      const PendingAsync &PA = Arena.pa(PaIdOf);
      const Action &A = *Resolve.at(PA.Action);
      bool GateOk =
          A.gateReadsOmega()
              ? A.evalGate(Global, PA.Args, Arena.paSet(PaSetIdOf))
              : Gates.get(A, StoreIdOf, PaIdOf, PaSetIdOf);
      if (!GateOk) {
        ++Out.Transitions;
        Out.AnyMove = true;
        Out.Items.push_back({PaIdOf, InvalidId});
        continue;
      }
      const std::vector<InternedTransition> &Trans =
          TransCache.get(A, StoreIdOf, PaIdOf);
      if (Trans.empty())
        continue; // blocked
      PaCountVec Rest(Entries);
      paCountVecErase(Rest, PaIdOf);
      for (const InternedTransition &T : Trans) {
        ++Out.Transitions;
        Out.AnyMove = true;
        PaSetId SuccOmega =
            Arena.internPaVec(paCountVecUnion(Rest, T.Created));
        ConfigId Child;
        uint32_t Orbit = 1;
        if (Canon) {
          // Equivariance makes stepping the representative equivalent to
          // stepping any orbit member: intern the canonical image only.
          std::tie(Child, Orbit) = Canon->canon(T.Global, SuccOmega);
        } else {
          Child = Arena.internConfig(T.Global, SuccOmega);
        }
        // Duplicate pruning happens after interning, so the interned set
        // is identical whether or not the prune hits.
        if (Seen.test(Child))
          continue;
        Out.Items.push_back({PaIdOf, Child, Orbit});
      }
    }
  }

  /// Folds one node's candidates into the graph. The merger calls it in
  /// node-index order, the classical FIFO BFS order.
  void foldNode(uint32_t NodeIdx, const NodeOut &Out) {
    Stats.NumTransitions += Out.Transitions;
    for (const Item &It : Out.Items) {
      if (It.Child == InvalidId) { // failing step
        if (!FailureAt)
          FailureAt.emplace(NodeIdx, It.Via);
        continue;
      }
      add(It.Child, NodeIdx, It.Via, It.Orbit);
    }
    if (!Out.AnyMove &&
        Arena.config(Nodes[NodeIdx]).second != Arena.emptyPaSet())
      Deadlocks.push_back(NodeIdx);
  }

  void seed(const std::vector<Configuration> &Inits) {
    for (const Configuration &Init : Inits) {
      assert(!Init.isFailure() && "initial configuration cannot be failure");
      StoreId G = Arena.internStore(Init.global());
      PaSetId Omega = Arena.internPaSet(Init.pendingAsyncs());
      auto [Cid, Orbit] = Canon ? Canon->canon(G, Omega)
                                : std::pair(Arena.internConfig(G, Omega), 1u);
      add(Cid, UINT32_MAX, InvalidId, Orbit);
    }
  }

  /// Enqueues \p C on the next deque round-robin and wakes a sleeper.
  void pushChunk(Chunk *C, size_t &RoundRobin) {
    WorkerDeque &Q = *Deques[RoundRobin];
    RoundRobin = (RoundRobin + 1) % Deques.size();
    {
      std::lock_guard<std::mutex> Lock(Q.M);
      Q.D.push_back(C);
    }
    PendingChunks.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(IdleM);
    }
    IdleCv.notify_all();
  }

  /// Takes a chunk: the owner pops its own deque's newest entry; anyone
  /// else (including the merger, Self == SIZE_MAX) steals the oldest
  /// entry of another deque. Returns null when every deque is empty.
  Chunk *takeChunk(size_t Self) {
    if (Self != SIZE_MAX) {
      WorkerDeque &Own = *Deques[Self];
      std::lock_guard<std::mutex> Lock(Own.M);
      if (!Own.D.empty()) {
        Chunk *C = Own.D.back();
        Own.D.pop_back();
        PendingChunks.fetch_sub(1, std::memory_order_relaxed);
        return C;
      }
    }
    size_t N = Deques.size();
    size_t Start = Self == SIZE_MAX ? 0 : (Self + 1) % N;
    for (size_t I = 0; I < N; ++I) {
      size_t Victim = (Start + I) % N;
      if (Victim == Self)
        continue;
      WorkerDeque &Q = *Deques[Victim];
      std::lock_guard<std::mutex> Lock(Q.M);
      if (Q.D.empty())
        continue;
      Chunk *C = Q.D.front();
      Q.D.pop_front();
      PendingChunks.fetch_sub(1, std::memory_order_relaxed);
      StealCount.fetch_add(1, std::memory_order_relaxed);
      return C;
    }
    return nullptr;
  }

  void expandChunk(Chunk &C) {
    ThreadCpuTimer T;
    for (size_t I = 0; I < C.Cids.size(); ++I)
      expand(C.Cids[I], C.Outs[I]);
    ExpandNanos.fetch_add(static_cast<uint64_t>(T.elapsed() * 1e9),
                          std::memory_order_relaxed);
    C.Done.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> Lock(IdleM);
    }
    IdleCv.notify_all();
  }

  void workerLoop(size_t Self) {
    try {
      while (true) {
        if (Chunk *C = takeChunk(Self)) {
          expandChunk(*C);
          continue;
        }
        std::unique_lock<std::mutex> Lock(IdleM);
        IdleCv.wait(Lock, [&] {
          return Shutdown.load(std::memory_order_relaxed) ||
                 PendingChunks.load(std::memory_order_relaxed) > 0;
        });
        if (Shutdown.load(std::memory_order_relaxed))
          return;
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> Lock(ErrorM);
        if (!WorkerError)
          WorkerError = std::current_exception();
      }
      WorkerFailed.store(true, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> Lock(IdleM);
      }
      IdleCv.notify_all();
    }
  }

  /// Cuts [\p From, \p To) of the node list into one chunk.
  Chunk *makeChunk(size_t From, size_t To) {
    auto C = std::make_unique<Chunk>();
    C->Begin = From;
    C->Cids.assign(Nodes.begin() + From, Nodes.begin() + To);
    C->Outs.resize(To - From);
    ChunkList.push_back(std::move(C));
    return ChunkList.back().get();
  }

  void run(const std::vector<Configuration> &Inits) {
    Stats.StealChunk = Opts.Config.StealChunk;
    unsigned T = Opts.Config.NumThreads ? Opts.Config.NumThreads : 1;
    size_t ChunkSize = Opts.Config.StealChunk ? Opts.Config.StealChunk : 1;
    Deques.resize(std::max(1u, T - 1));
    for (auto &Q : Deques)
      Q = std::make_unique<WorkerDeque>();

    seed(Inits);

    std::vector<std::thread> Pool;
    Pool.reserve(T - 1);
    for (unsigned I = 0; I + 1 < T; ++I)
      Pool.emplace_back([this, I] { workerLoop(I); });

    size_t NextMerge = 0;  // index into ChunkList
    size_t Dispatched = 0; // nodes cut into chunks so far
    size_t RoundRobin = 0;
    std::exception_ptr MergerError;
    try {
      while (!WorkerFailed.load(std::memory_order_relaxed)) {
        // Cut full chunks eagerly so workers run ahead of the merger.
        while (Nodes.size() - Dispatched >= ChunkSize) {
          pushChunk(makeChunk(Dispatched, Dispatched + ChunkSize),
                    RoundRobin);
          Dispatched += ChunkSize;
        }
        if (NextMerge == ChunkList.size()) {
          if (Dispatched == Nodes.size())
            break; // every node dispatched, expanded and merged
          // Nothing left to merge, so no more nodes can arrive: flush the
          // partial tail chunk (this is what makes the loop deadlock-free).
          pushChunk(makeChunk(Dispatched, Nodes.size()), RoundRobin);
          Dispatched = Nodes.size();
          continue;
        }
        Chunk &C = *ChunkList[NextMerge];
        if (!C.Done.load(std::memory_order_acquire)) {
          // Help while the next chunk in merge order is in flight.
          if (Chunk *H = takeChunk(SIZE_MAX)) {
            expandChunk(*H);
            continue;
          }
          std::unique_lock<std::mutex> Lock(IdleM);
          IdleCv.wait(Lock, [&] {
            return C.Done.load(std::memory_order_acquire) ||
                   WorkerFailed.load(std::memory_order_relaxed) ||
                   PendingChunks.load(std::memory_order_relaxed) > 0;
          });
          continue;
        }
        Timer MergeT;
        for (size_t I = 0; I < C.Cids.size(); ++I)
          foldNode(static_cast<uint32_t>(C.Begin + I), C.Outs[I]);
        Stats.MergeSeconds += MergeT.elapsed();
        // The chunk is folded; release its payload before the run ends.
        C.Cids = {};
        C.Outs = {};
        ++NextMerge;
      }
    } catch (...) {
      MergerError = std::current_exception();
    }

    {
      std::lock_guard<std::mutex> Lock(IdleM);
      Shutdown.store(true, std::memory_order_relaxed);
    }
    IdleCv.notify_all();
    for (std::thread &W : Pool)
      W.join();
    if (MergerError)
      std::rethrow_exception(MergerError);
    {
      std::lock_guard<std::mutex> Lock(ErrorM);
      if (WorkerError)
        std::rethrow_exception(WorkerError);
    }
    Stats.ExpandSeconds +=
        static_cast<double>(ExpandNanos.load(std::memory_order_relaxed)) /
        1e9;
    Stats.Steals = StealCount.load(std::memory_order_relaxed);
  }
};

} // namespace

StateGraph engine::exploreGraph(const Program &P,
                                const std::vector<Configuration> &Inits,
                                std::shared_ptr<StateArena> Arena,
                                const EngineOptions &Opts) {
  if (!Arena)
    Arena = std::make_shared<StateArena>(Opts.Config.Shards);
  StateGraph G;
  GraphAccess::arena(G) = Arena;
  ArenaStats Before = Arena->stats();
  Timer Total;
  Engine E(P, Opts, *Arena, G);
  E.run(Inits);
  EngineStats &Stats = GraphAccess::stats(G);
  Stats.TotalSeconds = Total.elapsed();
  Stats.NumConfigurations = GraphAccess::nodes(G).size();
  Stats.Threads = Opts.Config.NumThreads ? Opts.Config.NumThreads : 1;
  ArenaStats After = Arena->stats();
  Stats.InternedStores = After.Stores;
  Stats.InternedPas = After.Pas;
  Stats.InternedPaSets = After.PaSets;
  Stats.InternedConfigs = After.Configs;
  Stats.HashConsLookups = After.Lookups - Before.Lookups;
  Stats.HashConsHits = After.Hits - Before.Hits;
  Stats.TransitionCacheLookups = E.TransCache.lookups();
  Stats.TransitionCacheHits = E.TransCache.hits();
  Stats.SymmetryReduced = E.Canon.has_value();
  if (E.Canon) {
    Stats.CanonCalls = E.Canon->calls();
    Stats.CanonCacheHits = E.Canon->hits();
  }
  Stats.Shards = After.Shards;
  Stats.ShardOccupancy = After.ShardOccupancy;
  if (!E.Canon)
    Stats.OrbitStatesRepresented = Stats.NumConfigurations;
  return G;
}
