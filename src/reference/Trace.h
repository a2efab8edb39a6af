//===- reference/Trace.h - Executions and traces -----------------*- C++ -*-===//
///
/// \file
/// The value-level operational semantics of §3 (one step of a pending
/// async, all successors of a configuration) and executions
/// π = c0 → c1 → ... over it, recorded with the pending async scheduled at
/// each step. Executions are the counterexample traces of the value-level
/// explorers (reference/Explorer.h) and the input/output representation of
/// the execution rewriter that implements the soundness construction of
/// Lemmas 4.2/4.3. Part of isq_reference, which only tests, benches and
/// examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_TRACE_H
#define ISQ_REFERENCE_TRACE_H

#include "semantics/Program.h"
#include "support/Random.h"

#include <optional>
#include <string>
#include <vector>

namespace isq {

/// One transition of an execution: which PA was scheduled and the resulting
/// configuration.
struct ExecStep {
  PendingAsync Executed;
  Configuration Successor;
};

/// A finite execution. Steps[i].Successor follows from the previous
/// configuration by executing Steps[i].Executed.
struct Execution {
  Configuration Initial;
  std::vector<ExecStep> Steps;

  const Configuration &finalConfiguration() const {
    return Steps.empty() ? Initial : Steps.back().Successor;
  }
  bool isFailing() const { return finalConfiguration().isFailure(); }
  bool isTerminating() const { return finalConfiguration().isTerminating(); }
  size_t length() const { return Steps.size(); }

  /// Checks that every step is justified by \p P's semantics.
  bool isValid(const Program &P) const;

  /// Renders the schedule, e.g. "Main; Broadcast(1); Collect(1)".
  std::string scheduleStr() const;
  /// Renders the full configuration sequence (verbose).
  std::string str() const;
};

/// Executes one occurrence of \p PA (which must be contained in \p C's
/// pending asyncs) and returns all successor configurations. A failed gate
/// yields the single failure configuration; a blocked action yields no
/// successors.
std::vector<Configuration> stepPendingAsync(const Program &P,
                                            const Configuration &C,
                                            const PendingAsync &PA);

/// All successors of \p C across every schedulable pending async.
std::vector<Configuration> successors(const Program &P,
                                      const Configuration &C);

/// True if some pending async of \p C has a true gate but no transition
/// (i.e. \p C is a deadlock if additionally no other PA can run).
bool hasBlockedPendingAsync(const Program &P, const Configuration &C);

/// Enumerates maximal executions (terminating, failing, or reaching
/// MaxDepth/deadlock) from \p Init by DFS, up to \p MaxExecutions.
std::vector<Execution> enumerateExecutions(const Program &P,
                                           const Configuration &Init,
                                           size_t MaxExecutions,
                                           size_t MaxDepth);

/// Samples one maximal execution with uniformly random scheduling and
/// branch choices. Returns std::nullopt if MaxDepth is exceeded.
std::optional<Execution> sampleExecution(const Program &P,
                                         const Configuration &Init, Rng &R,
                                         size_t MaxDepth);

} // namespace isq

#endif // ISQ_REFERENCE_TRACE_H
