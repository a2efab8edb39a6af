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

#include "engine/StateArena.h"
#include "is/ISApplication.h"
#include "refine/Refinement.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace isq {

/// The invariant's transition relation at one (store, args) point, with
/// value-level transitions (preserving the user's created-PA enumeration
/// order for the choice function) alongside their interned images and an
/// integer-keyed membership index. Shared across every Ω-variant of the
/// same call point.
struct InvPoint {
  std::vector<Transition> Trans;
  std::vector<engine::StoreId> TGlobal;
  std::vector<engine::PaCountVec> TCreated;
  /// packIds(Global, CreatedSet) per transition of I.
  std::unordered_set<uint64_t> Index;
};

inline uint64_t packIds(uint32_t Hi, uint32_t Lo) {
  return (static_cast<uint64_t>(Hi) << 32) | Lo;
}

/// The structural side conditions on the application itself (everything
/// checked before any universe-quantified obligation): O(|E|) bookkeeping
/// checks, not obligation loops.
CheckResult staticSideConditions(const ISApplication &App);

/// "store=... args=(...)": the call point named in (I3) and choice-function
/// diagnostics.
std::string describeCall(const Store &Global, const std::vector<Value> &Args);

} // namespace isq

#endif // ISQ_IS_ISCHECKSHARED_H
