//===- reference/MoverCheck.cpp - Serial mover checks -----------------------===//

#include "reference/MoverCheck.h"

#include "engine/ActionCaches.h"
#include "movers/MoverPairs.h"

#include <unordered_set>

using namespace isq;
using namespace isq::engine;
using namespace isq::movers;

const char *isq::moverTypeName(MoverType M) {
  switch (M) {
  case MoverType::Both:
    return "both";
  case MoverType::Left:
    return "left";
  case MoverType::Right:
    return "right";
  case MoverType::None:
    return "none";
  }
  return "<invalid>";
}

namespace {

/// Shared engine for both directions, evaluated over the interned
/// universe. Direction == true checks left-mover commutation
/// (other-then-subject reorders to subject-then-other); false checks the
/// mirrored right-mover commutation.
CheckResult checkMover(Symbol Subject, const Action &SubjectAction,
                       const Program &P, const StateSpace &Universe,
                       bool LeftDirection, bool RequireNonBlocking) {
  CheckResult Result;
  StateArena &Arena = *Universe.Arena;
  InternedTransitionCache Cache(Arena);
  // The serial loop is the scheduled one's oracle: no footprint keys.
  GateCache Gates(Arena, GateKeys::Exact);
  // Commutation and non-blocking do not read Ω: check each distinct
  // (store, subject, other) point once across the universe.
  std::unordered_set<Key3, Key3Hash> CommuteDone;
  std::unordered_set<Key3, Key3Hash> NonBlockDone;
  std::unordered_set<Key3, Key3Hash> ForwardDone;
  std::unordered_set<Key3, Key3Hash> BackwardDone;

  // Evaluates a gate at an interned point; Ω-independent gates hit the
  // gate cache.
  auto gateAt = [&](const Action &A, StoreId G, PaId Pa, PaSetId Omega) {
    return A.gateReadsOmega() ? A.evalGate(Arena.store(G), Arena.pa(Pa).Args,
                                           Arena.paSet(Omega))
                              : Gates.get(A, G, Pa, Omega);
  };
  // Interns Ω − Executed ⊎ Created (for gates that observe Ω after a
  // step).
  auto omegaAfter = [&](const PaCountVec &Entries, PaId Executed,
                        const InternedTransition &T) {
    PaCountVec Rest(Entries);
    paCountVecErase(Rest, Executed);
    return Arena.internPaVec(paCountVecUnion(Rest, T.Created));
  };

  for (ConfigId Cid : Universe.Configs) {
    auto [G, OmegaId] = Arena.config(Cid);
    const PaCountVec &Entries = Arena.paVec(OmegaId);

    // (4) Non-blocking, checked once per subject occurrence.
    if (RequireNonBlocking) {
      for (PaId SubjectPa : Arena.paOrder(OmegaId)) {
        if (Arena.pa(SubjectPa).Action != Subject)
          continue;
        if (!gateAt(SubjectAction, G, SubjectPa, OmegaId))
          continue;
        if (!NonBlockDone.insert({G, SubjectPa, SubjectPa}).second)
          continue;
        Result.countObligation();
        if (Cache.get(SubjectAction, G, SubjectPa).empty())
          Result.fail("non-blocking violated: " + Arena.pa(SubjectPa).str() +
                      " enabled but has no transition in " +
                      Arena.configuration(Cid).str());
      }
    }

    forEachPair(Arena, OmegaId, Subject, [&](PaId SubjectPa, PaId OtherPa) {
      const Action &Other = P.action(Arena.pa(OtherPa).Action);
      bool SubjectGate = gateAt(SubjectAction, G, SubjectPa, OmegaId);
      bool OtherGate = gateAt(Other, G, OtherPa, OmegaId);

      // (1) Gate of the subject is forward-preserved by the other action.
      // When the subject's gate does not read Ω, the obligation only
      // depends on the store point and is deduplicated across Ω's.
      if (SubjectGate && OtherGate &&
          (SubjectAction.gateReadsOmega() ||
           ForwardDone.insert({G, SubjectPa, OtherPa}).second)) {
        for (const InternedTransition &TO : Cache.get(Other, G, OtherPa)) {
          Result.countObligation();
          bool Preserved =
              SubjectAction.gateReadsOmega()
                  ? gateAt(SubjectAction, TO.Global, SubjectPa,
                           omegaAfter(Entries, OtherPa, TO))
                  : gateAt(SubjectAction, TO.Global, SubjectPa, OmegaId);
          if (!Preserved)
            Result.fail("gate not forward-preserved: " +
                        describePair(Arena, Cid, SubjectPa, OtherPa));
        }
      }

      // (2) Gate of the other action is backward-preserved by the subject.
      if (SubjectGate &&
          (Other.gateReadsOmega() ||
           BackwardDone.insert({G, SubjectPa, OtherPa}).second)) {
        for (const InternedTransition &TS :
             Cache.get(SubjectAction, G, SubjectPa)) {
          Result.countObligation();
          bool GateAfter =
              Other.gateReadsOmega()
                  ? gateAt(Other, TS.Global, OtherPa,
                           omegaAfter(Entries, SubjectPa, TS))
                  : gateAt(Other, TS.Global, OtherPa, OmegaId);
          if (GateAfter && !OtherGate)
            Result.fail("gate not backward-preserved: " +
                        describePair(Arena, Cid, SubjectPa, OtherPa));
        }
      }

      // (3) Commutation (Ω-independent: deduplicated across Ω's).
      if (SubjectGate && OtherGate &&
          CommuteDone.insert({G, SubjectPa, OtherPa}).second) {
        if (LeftDirection) {
          // other;subject must be reorderable to subject;other.
          for (const InternedTransition &TO : Cache.get(Other, G, OtherPa)) {
            for (const InternedTransition &TS :
                 Cache.get(SubjectAction, TO.Global, SubjectPa)) {
              Result.countObligation();
              bool Found = false;
              for (const InternedTransition &TS2 :
                   Cache.get(SubjectAction, G, SubjectPa)) {
                if (TS2.CreatedSet != TS.CreatedSet)
                  continue;
                if (hasTransition(Cache.get(Other, TS2.Global, OtherPa),
                                  TS.Global, TO.CreatedSet)) {
                  Found = true;
                  break;
                }
              }
              if (!Found)
                Result.fail("does not commute left: " +
                            describePair(Arena, Cid, SubjectPa, OtherPa));
            }
          }
        } else {
          // subject;other must be reorderable to other;subject.
          for (const InternedTransition &TS :
               Cache.get(SubjectAction, G, SubjectPa)) {
            for (const InternedTransition &TO :
                 Cache.get(Other, TS.Global, OtherPa)) {
              Result.countObligation();
              bool Found = false;
              for (const InternedTransition &TO2 :
                   Cache.get(Other, G, OtherPa)) {
                if (TO2.CreatedSet != TO.CreatedSet)
                  continue;
                if (hasTransition(
                        Cache.get(SubjectAction, TO2.Global, SubjectPa),
                        TO.Global, TS.CreatedSet)) {
                  Found = true;
                  break;
                }
              }
              if (!Found)
                Result.fail("does not commute right: " +
                            describePair(Arena, Cid, SubjectPa, OtherPa));
            }
          }
        }
      }
    });
  }
  return Result;
}

/// Interns a value-level universe into a fresh arena, preserving order
/// and multiplicity (failure configurations are skipped, as before).
StateSpace internUniverse(const std::vector<Configuration> &Universe) {
  StateSpace S;
  S.Arena = std::make_shared<StateArena>();
  S.Configs.reserve(Universe.size());
  for (const Configuration &C : Universe)
    if (!C.isFailure())
      S.Configs.push_back(S.Arena->internConfig(C));
  return S;
}

} // namespace

CheckResult isq::checkLeftMover(Symbol Subject, const Action &LAction,
                                const Program &P,
                                const StateSpace &Universe) {
  return checkMover(Subject, LAction, P, Universe, /*LeftDirection=*/true,
                    /*RequireNonBlocking=*/true);
}

CheckResult isq::checkLeftMover(Symbol Subject, const Action &LAction,
                                const Program &P,
                                const std::vector<Configuration> &Universe) {
  return checkLeftMover(Subject, LAction, P, internUniverse(Universe));
}

CheckResult isq::checkRightMover(Symbol Subject, const Action &RAction,
                                 const Program &P,
                                 const StateSpace &Universe) {
  return checkMover(Subject, RAction, P, Universe, /*LeftDirection=*/false,
                    /*RequireNonBlocking=*/false);
}

CheckResult isq::checkRightMover(Symbol Subject, const Action &RAction,
                                 const Program &P,
                                 const std::vector<Configuration> &Universe) {
  return checkRightMover(Subject, RAction, P, internUniverse(Universe));
}

MoverType isq::classifyMover(Symbol Subject, const Program &P,
                             const StateSpace &Universe) {
  const Action &A = P.action(Subject);
  bool Left = checkLeftMover(Subject, A, P, Universe).ok();
  bool Right = checkRightMover(Subject, A, P, Universe).ok();
  if (Left && Right)
    return MoverType::Both;
  if (Left)
    return MoverType::Left;
  if (Right)
    return MoverType::Right;
  return MoverType::None;
}

MoverType isq::classifyMover(Symbol Subject, const Program &P,
                             const std::vector<Configuration> &Universe) {
  return classifyMover(Subject, P, internUniverse(Universe));
}
