//===- explorer/Explorer.h - Program summaries --------------------*- C++ -*-===//
///
/// \file
/// Definition 3.2's (Good, Trans) summary of a program, read off an
/// exploration of its configuration graph (engine/StateGraph.h): whether
/// the failure configuration is reachable (the complement of Good(P) for
/// the given initial store) and the terminal stores (the Trans(P) image).
/// This is the finite-instance substitute for the paper's SMT discharge
/// (see DESIGN.md). The value-level ExploreResult view of an exploration
/// lives in isq_reference (reference/Explorer.h).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_EXPLORER_EXPLORER_H
#define ISQ_EXPLORER_EXPLORER_H

#include "engine/StateGraph.h"
#include "semantics/Program.h"

#include <vector>

namespace isq {

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

} // namespace isq

#endif // ISQ_EXPLORER_EXPLORER_H
