//===- explorer/Explorer.h - Explicit-state exploration ----------*- C++ -*-===//
///
/// \file
/// Breadth-first exploration of a program's configuration graph. Computes
/// the reachable configurations, whether the failure configuration is
/// reachable (the complement of Good(P) for the given initial store), the
/// terminal stores (the Trans(P) image), deadlocks, and counterexample
/// traces. This is the finite-instance substitute for the paper's SMT
/// discharge (see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_EXPLORER_EXPLORER_H
#define ISQ_EXPLORER_EXPLORER_H

#include "engine/EngineConfig.h"
#include "engine/StateGraph.h"
#include "explorer/Trace.h"
#include "semantics/Program.h"

#include <optional>
#include <vector>

namespace isq {

/// Knobs for explore().
struct ExploreOptions {
  /// Hard cap on distinct configurations; exploration reports truncation
  /// when hit.
  size_t MaxConfigurations = 2'000'000;
  /// Keep parent pointers for counterexample extraction.
  bool RecordParents = true;
  /// All engine knobs (threads, symmetry, steal granularity, store shape).
  /// Results are bit-identical for every setting; see
  /// engine/EngineConfig.h.
  engine::EngineConfig Config;
};

/// Exploration statistics.
struct ExploreStats {
  size_t NumConfigurations = 0;
  size_t NumTransitions = 0;
  bool Truncated = false;
};

/// Result of explore().
struct ExploreResult {
  /// All distinct reachable non-failure configurations (BFS order).
  std::vector<Configuration> Reachable;
  /// Whether the failure configuration is reachable.
  bool FailureReachable = false;
  /// Distinct final stores of terminating executions (g' with Ω = ∅).
  std::vector<Store> TerminalStores;
  /// Reachable non-terminating configurations with no successor (every PA
  /// blocked).
  std::vector<Configuration> Deadlocks;
  /// A shortest failing execution, if failures are reachable and parents
  /// were recorded.
  std::optional<Execution> FailureTrace;
  ExploreStats Stats;
  /// Detailed engine observability (interning, caching, phase times).
  engine::EngineStats Engine;
};

/// Explores all configurations reachable from \p Init under \p P.
/// Implemented on the hash-consed engine (engine/StateGraph.h); Reachable
/// is in deterministic BFS order, TerminalStores and Deadlocks are sorted
/// canonically.
ExploreResult explore(const Program &P, const Configuration &Init,
                      const ExploreOptions &Opts = ExploreOptions());

/// Explores from multiple initial configurations, merging results.
ExploreResult exploreAll(const Program &P,
                         const std::vector<Configuration> &Inits,
                         const ExploreOptions &Opts = ExploreOptions());

/// Definition 3.2's pair (Good, Trans) restricted to one initialized
/// configuration, plus the statistics of the exploration behind it.
struct ProgramSummary {
  /// "Cannot fail": the failure configuration is unreachable.
  bool Good = true;
  /// The distinct terminal stores, sorted. Trans is a semantic object, so
  /// it is orbit-closed: when the exploration ran on the symmetry quotient,
  /// each canonical terminal store is expanded back to its full orbit.
  std::vector<Store> Trans;
  /// Engine statistics of the exploration (NumConfigurations counts the
  /// explored nodes, orbit representatives when reduced).
  engine::EngineStats Engine;
};

/// Summarizes \p G, an exploration of \p P from one initialized
/// configuration. Orbits of distinct representatives are disjoint, so the
/// expanded Trans is exactly the unreduced terminal-store set.
ProgramSummary summarizeGraph(const Program &P, const engine::StateGraph &G);

/// Explores \p P from the initialized configuration with global store
/// \p Init and Main arguments \p MainArgs, and summarizes it. Records no
/// parents and builds no value-level configurations.
ProgramSummary summarize(const Program &P, const Store &Init,
                         std::vector<Value> MainArgs = {},
                         const ExploreOptions &Opts = ExploreOptions());

} // namespace isq

#endif // ISQ_EXPLORER_EXPLORER_H
