//===- movers/MoverPairs.h - Mover-check pair enumeration --------*- C++ -*-===//
///
/// \file
/// The pair enumeration and dedup keys both mover checks iterate with: the
/// scheduled check (movers/MoverCheck.cpp) and the serial oracle
/// (reference/MoverCheck.cpp). Only the walk over a universe's PA pairs is
/// shared; each check keeps its own obligation-emission code, so the two
/// stay independent implementations of the conditions.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_MOVERS_MOVERPAIRS_H
#define ISQ_MOVERS_MOVERPAIRS_H

#include "engine/ActionCaches.h"
#include "engine/StateArena.h"
#include "support/Hashing.h"

#include <algorithm>
#include <string>
#include <vector>

namespace isq {
namespace movers {

/// Looks for an interned transition in \p Set with successor store
/// \p Global and created multiset \p Created — two integer compares per
/// element.
inline bool hasTransition(const std::vector<engine::InternedTransition> &Set,
                          engine::StoreId Global, engine::PaSetId Created) {
  for (const engine::InternedTransition &T : Set)
    if (T.Global == Global && T.CreatedSet == Created)
      return true;
  return false;
}

inline std::string describePair(engine::StateArena &Arena,
                                engine::ConfigId Cid, engine::PaId Subject,
                                engine::PaId Other) {
  return "subject=" + Arena.pa(Subject).str() +
         " other=" + Arena.pa(Other).str() + " in " +
         Arena.configuration(Cid).str();
}

/// Multiplicity of \p Id in sorted \p Entries (which must contain it).
inline uint64_t countOf(const engine::PaCountVec &Entries, engine::PaId Id) {
  auto It = std::lower_bound(Entries.begin(), Entries.end(), Id,
                             [](const std::pair<engine::PaId, uint64_t> &E,
                                engine::PaId I) { return E.first < I; });
  return It->second;
}

/// Invokes \p Body for every ordered pair of distinct PA occurrences
/// (SubjectPa, OtherPa) in the multiset where SubjectPa has action
/// \p Subject. Pairs are enumerated in canonical value order — the order
/// is intrinsic to the PAs, so diagnostics are deterministic even when
/// the universe was interned by concurrent workers.
template <typename Pred, typename Fn>
void forEachPair(engine::StateArena &Arena, engine::PaSetId OmegaId,
                 Symbol Subject, Pred SubjectEnabled, Fn Body) {
  const engine::PaCountVec &Entries = Arena.paVec(OmegaId);
  const std::vector<engine::PaId> &Order = Arena.paOrder(OmegaId);
  for (engine::PaId SubjectPa : Order) {
    if (Arena.pa(SubjectPa).Action != Subject)
      continue;
    // Every pair condition requires the subject's gate, so a disabled
    // subject occurrence contributes no obligations; skipping it here
    // skips the whole partner enumeration.
    if (!SubjectEnabled(SubjectPa))
      continue;
    uint64_t SubjectCount = countOf(Entries, SubjectPa);
    for (engine::PaId OtherPa : Order) {
      if (OtherPa == SubjectPa && SubjectCount < 2)
        continue; // the same single occurrence cannot pair with itself
      Body(SubjectPa, OtherPa);
    }
  }
}

template <typename Fn>
void forEachPair(engine::StateArena &Arena, engine::PaSetId OmegaId,
                 Symbol Subject, Fn Body) {
  forEachPair(Arena, OmegaId, Subject, [](engine::PaId) { return true; },
              Body);
}

/// Dedup key for obligations that do not depend on Ω: the interned store
/// plus the participating interned PAs. Three machine words.
struct Key3 {
  engine::StoreId G;
  engine::PaId A;
  engine::PaId B;

  bool operator==(const Key3 &O) const {
    return G == O.G && A == O.A && B == O.B;
  }
};
struct Key3Hash {
  size_t operator()(const Key3 &K) const {
    size_t Seed = K.G;
    hashCombine(Seed, K.A);
    hashCombine(Seed, K.B);
    return Seed;
  }
};

} // namespace movers
} // namespace isq

#endif // ISQ_MOVERS_MOVERPAIRS_H
