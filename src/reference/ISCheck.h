//===- reference/ISCheck.h - Serial IS reference checker ---------*- C++ -*-===//
///
/// \file
/// The serial Fig. 3 loops: every condition of the IS rule discharged by
/// one plain loop per condition over the universe, in universe order. The
/// production checker (is/ISCheck.h) runs the same obligations on the
/// obligation scheduler; tests compare the two reports field by field.
/// Also the one-call form of the production checker that tests, benches
/// and examples use. Part of isq_reference, which only they link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_ISCHECK_H
#define ISQ_REFERENCE_ISCHECK_H

#include "is/ISCheck.h"

namespace isq {

/// Builds the universe from \p Inits and checks it with the production
/// checker on the scheduler under Opts.Config (no obligation cache).
ISCheckReport checkIS(const ISApplication &App,
                      const std::vector<InitialCondition> &Inits,
                      const engine::EngineOptions &Opts =
                          engine::EngineOptions());

namespace reference {

/// Checks every condition of the IS rule for \p App over \p Universe with
/// the serial loops. Verdicts, counts and diagnostics are those of
/// isq::checkIS; the Scheduler statistics stay zero.
ISCheckReport checkIS(const ISApplication &App, const ISUniverse &Universe);

} // namespace reference
} // namespace isq

#endif // ISQ_REFERENCE_ISCHECK_H
