//===- engine/StateGraph.h - Parallel frontier exploration -------*- C++ -*-===//
///
/// \file
/// The shared state-space core: a breadth-first expansion of a program's
/// configuration graph over interned ConfigIds. One engine serves every
/// enumeration-based check in the system (Explorer, mover checks, IS
/// conditions, refinement cross-checks).
///
/// The frontier is cut into chunks of discovered nodes that N worker
/// threads expand into per-node successor lists, stealing chunks from
/// one another's deques; a single merger folds the chunks strictly in
/// node-index order, registering new nodes in (node, successor
/// enumeration) order. Because that order is exactly the order the
/// classical FIFO BFS discovers nodes, the node list, failure verdict,
/// counterexample trace and truncation point are bit-identical for every
/// thread count and steal granularity — parallelism changes wall time,
/// never answers.
///
/// Thread safety: workers intern through the sharded StateArena and the
/// interned caches; the seen-bitmap used for early duplicate pruning is
/// written only by the merger, after a node is registered, and read
/// racily by workers (a missed prune costs the merger a no-op fold).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_STATEGRAPH_H
#define ISQ_ENGINE_STATEGRAPH_H

#include "engine/EngineConfig.h"
#include "engine/StateArena.h"
#include "semantics/Program.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace isq {
namespace engine {

/// Knobs for exploreGraph() and every exploration built on it.
struct EngineOptions {
  /// Hard cap on distinct configurations; exploration reports truncation
  /// when hit.
  size_t MaxConfigurations = 2'000'000;
  /// Keep parent links for counterexample extraction.
  bool RecordParents = true;
  /// Threads, symmetry, steal granularity, store shape.
  /// Results are identical for every setting (see engine/EngineConfig.h).
  EngineConfig Config;
};

/// Observability counters for one engine run (plus arena totals at the end
/// of the run when the arena is shared).
struct EngineStats {
  size_t NumConfigurations = 0;
  size_t NumTransitions = 0;
  bool Truncated = false;

  // Hash-consing (arena occupancy and hit rate at end of run).
  size_t InternedStores = 0;
  size_t InternedPas = 0;
  size_t InternedPaSets = 0;
  size_t InternedConfigs = 0;
  size_t HashConsLookups = 0;
  size_t HashConsHits = 0;

  // Transition memoization.
  size_t TransitionCacheLookups = 0;
  size_t TransitionCacheHits = 0;

  // Symmetry reduction. OrbitStatesRepresented is Σ orbit sizes over the
  // explored representatives — the number of unreduced configurations the
  // quotient graph stands for (equals NumConfigurations when reduction is
  // off or the program is asymmetric).
  bool SymmetryReduced = false;
  size_t CanonCalls = 0;
  size_t CanonCacheHits = 0;
  size_t OrbitStatesRepresented = 0;

  size_t FrontierPeak = 0;
  unsigned Threads = 1;

  // Frontier chunking. Steals counts chunks taken from another worker's
  // deque; it is scheduling telemetry (nondeterministic across runs at
  // > 1 thread), unlike every count above. StealChunk is 0 only when no
  // exploration ran.
  unsigned StealChunk = 0;
  size_t Steals = 0;

  // Interning arena. Shards is the configured arena shard count;
  // ShardOccupancy the number of non-empty configuration shards at end of
  // run.
  unsigned Shards = 0;
  unsigned ShardOccupancy = 0;

  // Phase times (support/Timer). ExpandSeconds is the workers' thread CPU
  // time spent expanding, summed across threads (it can exceed
  // TotalSeconds when threaded); MergeSeconds and TotalSeconds are wall
  // time.
  double ExpandSeconds = 0;
  double MergeSeconds = 0;
  double TotalSeconds = 0;

  /// Fraction of intern calls that found an existing entry.
  double hashConsHitRate() const {
    return HashConsLookups ? static_cast<double>(HashConsHits) /
                                 static_cast<double>(HashConsLookups)
                           : 0.0;
  }
  /// Fraction of transition enumerations answered from cache.
  double transitionCacheHitRate() const {
    return TransitionCacheLookups
               ? static_cast<double>(TransitionCacheHits) /
                     static_cast<double>(TransitionCacheLookups)
               : 0.0;
  }
  /// Fraction of canonicalization requests answered from the orbit memo.
  double canonHitRate() const {
    return CanonCalls ? static_cast<double>(CanonCacheHits) /
                            static_cast<double>(CanonCalls)
                      : 0.0;
  }

  /// Merges \p Other into this (sums counters, maxes peaks, ors flags).
  void accumulate(const EngineStats &Other);

  /// One-line human-readable rendering for drivers and tools.
  std::string str() const;
};

/// The result of one exploration: reachable nodes in deterministic BFS
/// order plus parent links, failure, terminal and deadlock information,
/// all expressed over the shared arena.
class StateGraph {
public:
  /// Parent link of a node: the node index it was first discovered from
  /// and the PA whose execution discovered it. Parent == UINT32_MAX for
  /// roots. Populated only when EngineOptions::RecordParents.
  struct Link {
    uint32_t Parent = UINT32_MAX;
    PaId Via = InvalidId;
  };

  StateArena &arena() { return *Arena; }
  const StateArena &arena() const { return *Arena; }

  /// Reachable non-failure configurations in BFS order.
  const std::vector<ConfigId> &nodes() const { return Nodes; }
  /// Parent links, index-aligned with nodes().
  const std::vector<Link> &links() const { return Links; }

  bool failureReachable() const { return FailureAt.has_value(); }
  /// The first failing step in BFS order: (node index, failing PA).
  const std::optional<std::pair<uint32_t, PaId>> &failureAt() const {
    return FailureAt;
  }

  /// Distinct final stores of terminating executions, in discovery order.
  const std::vector<StoreId> &terminalStores() const { return Terminals; }
  /// Node indices of reachable non-terminating dead ends.
  const std::vector<uint32_t> &deadlockNodes() const { return Deadlocks; }

  /// Orbit size of each node, index-aligned with nodes(). Empty when the
  /// run was unreduced (every orbit is then a singleton).
  const std::vector<uint32_t> &orbitSizes() const { return OrbitSizes; }

  const EngineStats &stats() const { return Stats; }

  /// The view of this graph's nodes as a checker universe.
  StateSpace space() const { return {Arena, Nodes}; }

private:
  /// Mutable access for the exploration engine (defined in StateGraph.cpp).
  friend struct GraphAccess;

  std::shared_ptr<StateArena> Arena;
  std::vector<ConfigId> Nodes;
  std::vector<Link> Links;
  std::optional<std::pair<uint32_t, PaId>> FailureAt;
  std::vector<StoreId> Terminals;
  std::vector<uint32_t> Deadlocks;
  std::vector<uint32_t> OrbitSizes;
  EngineStats Stats;
};

/// Explores all configurations reachable from \p Inits under \p P,
/// interning into \p Arena (a fresh arena is created when null). Passing
/// one arena to several explorations (e.g. P and P[M ↦ I]) shares every
/// interned store and multiset between them; ConfigIds then identify equal
/// configurations across the runs.
StateGraph exploreGraph(const Program &P,
                        const std::vector<Configuration> &Inits,
                        std::shared_ptr<StateArena> Arena = nullptr,
                        const EngineOptions &Opts = EngineOptions());

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_STATEGRAPH_H
