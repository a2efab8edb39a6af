//===- is/ISCheckShared.h - Pieces shared by both IS checkers ----*- C++ -*-===//
///
/// \file
/// The helpers the scheduled IS checker (is/ISCheck.cpp) and the serial
/// reference loops (reference/ISCheck.cpp) share, declared once so both
/// forms emit identical diagnostics and account the static side
/// conditions identically. Neither is an obligation loop.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_IS_ISCHECKSHARED_H
#define ISQ_IS_ISCHECKSHARED_H

#include "is/ISApplication.h"
#include "refine/Refinement.h"

#include <string>
#include <vector>

namespace isq {

/// The structural side conditions on the application itself (everything
/// checked before any universe-quantified obligation): O(|E|) bookkeeping
/// checks, not obligation loops.
CheckResult staticSideConditions(const ISApplication &App);

/// "store=... args=(...)": the call point named in (I3) and choice-function
/// diagnostics.
std::string describeCall(const Store &Global, const std::vector<Value> &Args);

} // namespace isq

#endif // ISQ_IS_ISCHECKSHARED_H
