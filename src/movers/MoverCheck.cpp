//===- movers/MoverCheck.cpp - Scheduled left-mover check ---------------------===//

#include "movers/MoverCheck.h"

#include "engine/ActionCaches.h"
#include "engine/ArenaFingerprints.h"
#include "movers/MoverPairs.h"

#include <unordered_set>

using namespace isq;
using namespace isq::engine;
using namespace isq::movers;

std::shared_ptr<const StoreGroupedOrder>
isq::moverSliceOrder(const StateSpace &Universe) {
  // Slice size is thread-count independent so unit statistics are
  // identical for any thread count, not just the verdicts. Mover
  // obligations are cheap individually; a large slice keeps scheduler
  // dispatch off the profile on big universes (Paxos/3+).
  constexpr size_t ChunkSize = 2048;
  std::vector<StoreId> StoreOf;
  StoreOf.reserve(Universe.Configs.size());
  for (ConfigId Cid : Universe.Configs)
    StoreOf.push_back(Universe.Arena->config(Cid).first);
  return groupByStore(*Universe.Arena, StoreOf, ChunkSize);
}

// Deliberately a separate copy of the serial loop of reference/MoverCheck
// (they share only the pair walk of movers/MoverPairs.h): the serial path
// is the independent differential oracle the tests compare against, so
// the two implementations must not share obligation-emission code. The
// jobs iterate the universe grouped by store and slice only at store
// boundaries; every dedup key contains the store, so each job-local dedup
// set is exact — it consumes each key at the serial loop's occurrence
// (see engine/ObligationScheduler.h).
ObligationScheduler::Group *
isq::scheduleLeftMover(ObligationScheduler &Sched, ObCondition Cond,
                       Symbol Subject, const Action &SubjectAction,
                       const Program &P, const StateSpace &Universe,
                       InternedTransitionCache &Cache, GateCache &Gates,
                       OmegaGateCache &OmegaGates,
                       SuccessorOmegaCache &SuccOmega, ArenaFingerprints *Fps,
                       std::shared_ptr<const StoreGroupedOrder> Ord) {
  assert((!Fps || !SubjectAction.fp().isZero()) &&
         "cacheable mover check requires a stamped subject fingerprint");
  ObligationScheduler::Group *Group = Sched.group(Cond);
  if (!Ord)
    Ord = moverSliceOrder(Universe);
  // Jobs run after this function returns: capture the referents as
  // pointers by value, never the reference parameters themselves.
  const Action *SubjectActionP = &SubjectAction;
  const Program *ProgP = &P;
  const StateSpace *UniverseP = &Universe;
  InternedTransitionCache *CacheP = &Cache;
  GateCache *GatesP = &Gates;
  OmegaGateCache *OmegaGatesP = &OmegaGates;
  SuccessorOmegaCache *SuccOmegaP = &SuccOmega;
  const StoreGroupedOrder *OrdP = Ord.get();
  for (size_t K = 0; K < Ord->slices(); ++K) {
    size_t Begin = Ord->Cuts[K], End = Ord->Cuts[K + 1];
    // With a fingerprint memo the slice is cacheable. The key covers the
    // subject, its behavior, and every configuration in
    // the slice (in iteration order); configurations holding at least one
    // subject PA additionally absorb the concrete behavior of every
    // co-pending action (the pair enumeration executes those behaviors),
    // while subject-free configurations contribute no pairs and so stay
    // insensitive to partner-action edits — the precision that keeps a
    // one-action edit from invalidating every mover slice.
    std::function<Fingerprint()> KeyFn;
    if (Fps) {
      Fingerprint SubjectFp = SubjectAction.fp();
      KeyFn = [=]() {
        StateArena &Arena = *UniverseP->Arena;
        FpHasher H("mover-slice/v2");
        H.str(Subject.str()).fp(SubjectFp).u64(End - Begin);
        for (size_t CI = Begin; CI < End; ++CI) {
          ConfigId Cid = UniverseP->Configs[OrdP->Order[CI]];
          H.fp(Fps->config(Cid));
          PaSetId OmegaId = Arena.config(Cid).second;
          const std::vector<PaId> &Order = Arena.paOrder(OmegaId);
          bool HasSubject = false;
          for (PaId Pa : Order)
            if (Arena.pa(Pa).Action == Subject) {
              HasSubject = true;
              break;
            }
          if (!HasSubject)
            continue;
          // Canonical PA order is intrinsic to the PAs' values (see
          // forEachPair), so sequential absorption is stable.
          for (PaId Pa : Order)
            H.fp(ProgP->action(Arena.pa(Pa).Action).fp());
        }
        return H.finish();
      };
    }
    Sched.add(Group, {Ord, Begin, End}, std::move(KeyFn), [=](ObSink &Sink) {
      const Action &SubjectAction = *SubjectActionP;
      const Program &P = *ProgP;
      const StateSpace &Universe = *UniverseP;
      InternedTransitionCache &Cache = *CacheP;
      GateCache &Gates = *GatesP;
      OmegaGateCache &OmegaGates = *OmegaGatesP;
      SuccessorOmegaCache &SuccOmega = *SuccOmegaP;
      StateArena &Arena = *Universe.Arena;
      std::unordered_set<Key3, Key3Hash> CommuteDone;
      std::unordered_set<Key3, Key3Hash> NonBlockDone;
      std::unordered_set<Key3, Key3Hash> ForwardDone;
      std::unordered_set<Key3, Key3Hash> BackwardDone;

      // Gate results are pure functions of the interned point, so every
      // evaluation goes through the shared caches: Ω-observing gates key
      // on (store, args, Ω), Ω-independent ones on (store, args) alone.
      auto gateAt = [&](const Action &A, StoreId G, PaId Pa, PaSetId Omega) {
        return A.gateReadsOmega()
                   ? OmegaGates.get(A, G, Pa, Omega)
                   : Gates.get(A, G, Pa, Omega);
      };
      // Per-configuration memo. Pre-state gate verdicts, transition
      // lists, and successor-Ω ids (Ω − Pa ⊎ Created) are functions of
      // the PA alone once (g, Ω) are fixed, but the pair enumeration
      // below would otherwise consult the sharded shared caches once per
      // *pair* — the dominant cost on large universes. Post-transition
      // lookups key on successor stores and still go to the shared
      // caches. Configurations hold few distinct PAs, so linear scan.
      // Keyed by (action, PA): a subject-action PA is consulted under the
      // *checked* subject action when it plays the subject role but under
      // the program's action when it plays the other role, and the two
      // need not agree (the subject may be an abstraction).
      struct PaLocal {
        const Action *A;
        PaId Pa;
        bool Gate;
        const std::vector<InternedTransition> *Trans;
        bool AfterReady;
        std::vector<PaSetId> After; // aligned with *Trans
      };
      std::vector<PaLocal> Locals;

      for (size_t CI = Begin; CI < End; ++CI) {
        ConfigId Cid = Universe.Configs[OrdP->Order[CI]];
        auto [G, OmegaId] = Arena.config(Cid);
        Sink.at(static_cast<uint32_t>(CI - Begin), OrdP->Group[CI]);
        Locals.clear();
        // Each PA contributes at most two entries (its own action as the
        // other role, the checked action as the subject role); reserving
        // keeps references into Locals stable across inserts.
        Locals.reserve(2 * Arena.paOrder(OmegaId).size());
        auto localAt = [&](const Action &A, PaId Pa) -> PaLocal & {
          for (PaLocal &L : Locals)
            if (L.Pa == Pa && L.A == &A)
              return L;
          Locals.push_back(
              {&A, Pa, gateAt(A, G, Pa, OmegaId), nullptr, false, {}});
          return Locals.back();
        };
        // The accessors below take the memo entry itself: the pair body
        // resolves each side's entry once and reuses the reference, so
        // the linear scan runs twice per pair instead of per access.
        auto transOf = [&](PaLocal &L) -> const std::vector<InternedTransition> & {
          if (!L.Trans)
            L.Trans = &Cache.get(*L.A, G, L.Pa);
          return *L.Trans;
        };
        // Interned Ω − Pa ⊎ T.Created per transition (for gates that
        // observe Ω after a step), aligned with transOf(L).
        auto afterOf = [&](PaLocal &L) -> const std::vector<PaSetId> & {
          const std::vector<InternedTransition> &Ts = transOf(L);
          if (!L.AfterReady) {
            L.AfterReady = true;
            L.After.reserve(Ts.size());
            for (const InternedTransition &T : Ts)
              L.After.push_back(SuccOmega.get(OmegaId, L.Pa, T));
          }
          return L.After;
        };

        // (4) Non-blocking, checked once per subject occurrence.
        for (PaId SubjectPa : Arena.paOrder(OmegaId)) {
          if (Arena.pa(SubjectPa).Action != Subject)
            continue;
          PaLocal &SubjL = localAt(SubjectAction, SubjectPa);
          if (!SubjL.Gate)
            continue;
          if (!NonBlockDone.insert({G, SubjectPa, SubjectPa}).second)
            continue;
          Sink.beginPoint();
          Sink.countObligation();
          if (transOf(SubjL).empty())
            Sink.fail("non-blocking violated: " + Arena.pa(SubjectPa).str() +
                      " enabled but has no transition in " +
                      Arena.configuration(Cid).str());
        }

        forEachPair(
            Arena, OmegaId, Subject,
            [&](PaId SubjectPa) {
              return localAt(SubjectAction, SubjectPa).Gate;
            },
            [&](PaId SubjectPa, PaId OtherPa) {
          const Action &Other = P.action(Arena.pa(OtherPa).Action);
          PaLocal &OtherL = localAt(Other, OtherPa);
          PaLocal &SubjL = localAt(SubjectAction, SubjectPa);
          bool OtherGate = OtherL.Gate;

          // (1) Gate of the subject is forward-preserved by the other
          // action; Ω-observing subject gates skip dedup (keyless unit).
          // The subject's own gate holds by construction (see the filter
          // above).
          if (OtherGate &&
              (SubjectAction.gateReadsOmega() ||
               ForwardDone.insert({G, SubjectPa, OtherPa}).second)) {
            if (SubjectAction.gateReadsOmega())
              Sink.begin();
            else
              Sink.beginPoint();
            const std::vector<InternedTransition> &TOs = transOf(OtherL);
            const std::vector<PaSetId> *AfterO =
                SubjectAction.gateReadsOmega() ? &afterOf(OtherL) : nullptr;
            for (size_t TI = 0; TI < TOs.size(); ++TI) {
              const InternedTransition &TO = TOs[TI];
              Sink.countObligation();
              bool Preserved =
                  AfterO ? gateAt(SubjectAction, TO.Global, SubjectPa,
                                  (*AfterO)[TI])
                         : gateAt(SubjectAction, TO.Global, SubjectPa,
                                  OmegaId);
              if (!Preserved)
                Sink.fail("gate not forward-preserved: " +
                          describePair(Arena, Cid, SubjectPa, OtherPa));
            }
          }

          // (2) Gate of the other action is backward-preserved by the
          // subject.
          if (Other.gateReadsOmega() ||
              BackwardDone.insert({G, SubjectPa, OtherPa}).second) {
            if (Other.gateReadsOmega())
              Sink.begin();
            else
              Sink.beginPoint();
            const std::vector<InternedTransition> &TSs = transOf(SubjL);
            const std::vector<PaSetId> *AfterS =
                Other.gateReadsOmega() ? &afterOf(SubjL) : nullptr;
            for (size_t TI = 0; TI < TSs.size(); ++TI) {
              const InternedTransition &TS = TSs[TI];
              Sink.countObligation();
              bool GateAfter =
                  AfterS ? gateAt(Other, TS.Global, OtherPa, (*AfterS)[TI])
                         : gateAt(Other, TS.Global, OtherPa, OmegaId);
              if (GateAfter && !OtherGate)
                Sink.fail("gate not backward-preserved: " +
                          describePair(Arena, Cid, SubjectPa, OtherPa));
            }
          }

          // (3) Commutation (Ω-independent: deduplicated across Ω's):
          // other;subject must be reorderable to subject;other.
          if (OtherGate && CommuteDone.insert({G, SubjectPa, OtherPa}).second) {
            Sink.beginPoint();
            for (const InternedTransition &TO : transOf(OtherL)) {
              for (const InternedTransition &TS :
                   Cache.get(SubjectAction, TO.Global, SubjectPa)) {
                Sink.countObligation();
                bool Found = false;
                for (const InternedTransition &TS2 : transOf(SubjL)) {
                  if (TS2.CreatedSet != TS.CreatedSet)
                    continue;
                  if (hasTransition(Cache.get(Other, TS2.Global, OtherPa),
                                    TS.Global, TO.CreatedSet)) {
                    Found = true;
                    break;
                  }
                }
                if (!Found)
                  Sink.fail("does not commute left: " +
                            describePair(Arena, Cid, SubjectPa, OtherPa));
              }
            }
          }
        });
      }
    });
  }
  return Group;
}
