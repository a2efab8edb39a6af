//===- reference/Explorer.h - Value-level exploration ------------*- C++ -*-===//
///
/// \file
/// Value-level views of a program's configuration graph, for tests,
/// benches and examples: the reachable configurations, whether the failure
/// configuration is reachable, the terminal stores, deadlocks, and a
/// shortest failing execution. Production reads the interned graph
/// directly (engine/StateGraph.h, explorer/Explorer.h) and never
/// materializes these.
///
/// Two explorers produce the same ExploreResult:
///  - isq::exploreAll runs the interned engine and materializes its graph;
///  - reference::exploreAll is the pre-engine FIFO breadth-first search
///    over value-level configurations, with no interning, caching, threads
///    or symmetry reduction: the differential oracle of the engine. On the
///    same program and initial configurations it yields the same
///    ExploreResult as isq::exploreAll with symmetry reduction off,
///    whatever the engine's thread count.
///
/// Part of isq_reference, which only tests, benches and examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_EXPLORER_H
#define ISQ_REFERENCE_EXPLORER_H

#include "explorer/Explorer.h"
#include "reference/Trace.h"

#include <optional>
#include <vector>

namespace isq {

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

/// Explores all configurations reachable from \p Init under \p P on the
/// interned engine. Reachable is in deterministic BFS order,
/// TerminalStores and Deadlocks are sorted canonically.
ExploreResult explore(const Program &P, const Configuration &Init,
                      const engine::EngineOptions &Opts =
                          engine::EngineOptions());

/// Explores from multiple initial configurations, merging results.
ExploreResult exploreAll(const Program &P,
                         const std::vector<Configuration> &Inits,
                         const engine::EngineOptions &Opts =
                             engine::EngineOptions());

/// Explores \p P from the initialized configuration with global store
/// \p Init and Main arguments \p MainArgs, and summarizes it. Records no
/// parents whatever Opts.RecordParents says.
ProgramSummary summarize(const Program &P, const Store &Init,
                         std::vector<Value> MainArgs = {},
                         const engine::EngineOptions &Opts =
                             engine::EngineOptions());

namespace reference {

/// Explores all configurations reachable from \p Inits under \p P by the
/// value-level BFS. Reads Opts.MaxConfigurations and Opts.RecordParents;
/// Opts.Config is ignored (the search is serial and unreduced), and so
/// are the Engine statistics of the result.
ExploreResult exploreAll(const Program &P,
                         const std::vector<Configuration> &Inits,
                         const engine::EngineOptions &Opts =
                             engine::EngineOptions());

} // namespace reference
} // namespace isq

#endif // ISQ_REFERENCE_EXPLORER_H
