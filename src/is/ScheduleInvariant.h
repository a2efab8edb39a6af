//===- is/ScheduleInvariant.h - Schedule-derived invariants ------*- C++ -*-===//
///
/// \file
/// The paper observes (§5.2) that "the main creative task is the invention
/// of the sequentialization, while all required proof artifacts are derived
/// from it. In particular, the invariant action I and the choice function f
/// are determined from partial sequential executions." This header turns
/// that observation into a library facility: given a *rank function* that
/// fixes the sequential scheduling priority of pending asyncs, it derives
///
///  - the invariant action I whose transition relation consists of every
///    prefix of the fixed-priority sequential schedule (a tree when the
///    protocol branches nondeterministically, e.g. Paxos message drops),
///    rooted at M's own transitions — which makes the base case (I1) hold
///    by construction; and
///  - the matching choice function f selecting the minimum-rank created PA.
///
/// Protocols still supply the genuinely creative artifacts: the rank
/// function (the sequentialization idea), the left-mover abstractions α,
/// and the well-founded measure ≫.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_IS_SCHEDULEINVARIANT_H
#define ISQ_IS_SCHEDULEINVARIANT_H

#include "is/ISApplication.h"
#include "semantics/Program.h"

#include <functional>
#include <optional>
#include <vector>

namespace isq {

/// Scheduling priority: lexicographically smaller ranks execute first.
/// PAs with no rank (std::nullopt) are not scheduled by the
/// sequentialization (they are left pending, e.g. actions outside E).
using RankFn =
    std::function<std::optional<std::vector<int64_t>>(const PendingAsync &)>;

/// Derives the invariant action: τI(g, args) enumerates, for every node of
/// the fixed-priority schedule tree rooted at P(M)'s transitions from
/// (g, args), the transition (node store, node pending PAs). Scheduling
/// repeatedly executes the minimum-rank pending PA (enumerating all of its
/// transitions) until no ranked PA remains. Gates of scheduled PAs must
/// hold along the schedule (asserted). Results are memoized per (g, args).
Action makeScheduleInvariant(const std::string &Name, const Program &P,
                             Symbol M, RankFn Rank,
                             size_t MaxNodes = 200000);

/// The matching choice function: among a transition's created PAs, select
/// the ranked one with the smallest rank.
ChoiceFn chooseMinRank(RankFn Rank);

} // namespace isq

#endif // ISQ_IS_SCHEDULEINVARIANT_H
