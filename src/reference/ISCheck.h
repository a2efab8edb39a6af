//===- reference/ISCheck.h - Serial IS reference checker ---------*- C++ -*-===//
///
/// \file
/// The serial Fig. 3 loops: every condition of the IS rule discharged by
/// one plain loop per condition over the universe, in universe order. The
/// production checker (is/ISCheck.h) runs the same obligations on the
/// obligation scheduler; tests compare the two reports field by field.
/// Part of isq_reference, which only tests, benches and examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_ISCHECK_H
#define ISQ_REFERENCE_ISCHECK_H

#include "is/ISCheck.h"

namespace isq {
namespace reference {

/// Checks every condition of the IS rule for \p App over \p Universe with
/// the serial loops. Verdicts, counts and diagnostics are those of
/// isq::checkIS; the Scheduler statistics stay zero.
ISCheckReport checkIS(const ISApplication &App, const ISUniverse &Universe);

} // namespace reference
} // namespace isq

#endif // ISQ_REFERENCE_ISCHECK_H
