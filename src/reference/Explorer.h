//===- reference/Explorer.h - Value-level reference BFS ----------*- C++ -*-===//
///
/// \file
/// The pre-engine explorer: a FIFO breadth-first search over value-level
/// configurations, with no interning, caching, threads or symmetry
/// reduction. It is the differential oracle of the interned engine
/// (engine/StateGraph.h): on the same program and initial configurations
/// it yields the same ExploreResult as isq::exploreAll with symmetry
/// reduction off, whatever the engine's thread count. Part of
/// isq_reference, which only tests, benches and examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_EXPLORER_H
#define ISQ_REFERENCE_EXPLORER_H

#include "explorer/Explorer.h"

namespace isq {
namespace reference {

/// Explores all configurations reachable from \p Inits under \p P.
/// Reads Opts.MaxConfigurations and Opts.RecordParents; Opts.Config is
/// ignored (the search is serial and unreduced), and so are the Engine
/// statistics of the result.
ExploreResult exploreAll(const Program &P,
                         const std::vector<Configuration> &Inits,
                         const ExploreOptions &Opts = ExploreOptions());

} // namespace reference
} // namespace isq

#endif // ISQ_REFERENCE_EXPLORER_H
