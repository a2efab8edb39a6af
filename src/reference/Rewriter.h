//===- reference/Rewriter.h - Executable soundness construction --*- C++ -*-===//
///
/// \file
/// The execution-rewriting procedure underlying the soundness proof of the
/// IS rule (Lemmas 4.2/4.3, illustrated in Fig. 2): given a terminating
/// P-execution whose first step executes M, mechanically rewrite it into a
/// P'-execution with the same final configuration by (a) re-attributing
/// the first step to the invariant action, (b) repeatedly locating the PA
/// selected by the choice function, replacing it by its abstraction,
/// commuting it stepwise to the front (left-moverness), and (c) absorbing
/// it into the invariant's transition (inductive step), until no PAs to E
/// remain and the accumulated transition is one of M'.
///
/// This makes Theorem 4.4 *executable*: property tests rewrite sampled
/// executions and assert final-configuration preservation.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_REWRITER_H
#define ISQ_REFERENCE_REWRITER_H

#include "is/ISApplication.h"
#include "reference/Trace.h"

#include <string>
#include <vector>

namespace isq {

/// Result of rewriting one execution.
struct RewriteResult {
  bool Ok = false;
  /// Diagnostic when !Ok.
  std::string Error;
  /// The rewritten execution: first step executes M (now bound to M' in
  /// P'), followed by the untouched non-E steps.
  Execution Rewritten;
  /// Number of adjacent-step commutes performed (the ②→③ moves of Fig. 2).
  size_t NumCommutes = 0;
  /// Number of PAs absorbed into the invariant (the ③→④ moves of Fig. 2).
  size_t NumAbsorptions = 0;
  /// Optional ①-⑥ style textual stage log.
  std::vector<std::string> Stages;
};

/// Rewrites the terminating P-execution \p Pi (whose first step must
/// execute App.M) into an execution of P' = applyIS(App). When
/// \p LogStages is set, records a Fig.-2 style log of every intermediate
/// schedule.
RewriteResult rewriteExecution(const ISApplication &App, const Execution &Pi,
                               bool LogStages = false);

} // namespace isq

#endif // ISQ_REFERENCE_REWRITER_H
