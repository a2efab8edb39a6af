//===- protocols/Measures.h - Stock well-founded measures --------*- C++ -*-===//
///
/// \file
/// The measures the native protocols and tests pass to the cooperation
/// condition (CO): instances of the paper's "checking cooperation is easy"
/// pattern (§4) over PA counts and channel sizes.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_PROTOCOLS_MEASURES_H
#define ISQ_PROTOCOLS_MEASURES_H

#include "is/Measure.h"

#include <vector>

namespace isq {
namespace protocols {

/// The paper's generic pattern instantiated with the total PA count:
/// c ≫ c' iff c has more pending asyncs than c'. Sufficient whenever
/// eliminated actions do not create new PAs to E.
Measure pendingAsyncCount();

/// A measure that sums the sizes of all bag/seq-valued variables in
/// \p ChannelVars and then counts PAs (lexicographic).
Measure channelsThenPas(std::vector<Symbol> ChannelVars);

} // namespace protocols
} // namespace isq

#endif // ISQ_PROTOCOLS_MEASURES_H
