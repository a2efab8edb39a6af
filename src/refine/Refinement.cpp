//===- refine/Refinement.cpp - Refinement checking ---------------------------===//

#include "refine/Refinement.h"

#include "engine/ActionCaches.h"
#include "engine/ArenaFingerprints.h"

#include <algorithm>
#include <unordered_set>

using namespace isq;
using namespace isq::engine;

void CheckResult::fail(const std::string &Message) {
  ++NumFailures;
  if (Issues.size() < MaxIssues)
    Issues.push_back(Message);
}

void CheckResult::merge(const CheckResult &Other) {
  NumObligations += Other.NumObligations;
  NumFailures += Other.NumFailures;
  for (const std::string &Issue : Other.Issues)
    if (Issues.size() < MaxIssues)
      Issues.push_back(Issue);
}

std::string CheckResult::str() const {
  if (ok())
    return "OK (" + std::to_string(NumObligations) + " obligations)";
  std::string Out = "FAILED (" + std::to_string(NumFailures) + "/" +
                    std::to_string(NumObligations) + " obligations):";
  for (const std::string &Issue : Issues)
    Out += "\n  - " + Issue;
  return Out;
}

InternedContextUniverse isq::collectContexts(const StateSpace &Space,
                                             Symbol Name) {
  InternedContextUniverse Universe;
  Universe.Arena = Space.Arena;
  StateArena &Arena = *Space.Arena;
  for (ConfigId Cid : Space.Configs) {
    auto [G, OmegaId] = Arena.config(Cid);
    // Value order, not PaId order: context order stays deterministic even
    // when the universe was interned by concurrent workers.
    for (PaId Pa : Arena.paOrder(OmegaId)) {
      if (Arena.pa(Pa).Action != Name)
        continue;
      Universe.Items.push_back({G, Pa, OmegaId});
    }
  }
  return Universe;
}

std::string isq::describeCall(const Store &Global,
                              const std::vector<Value> &Args) {
  std::string Out = "store=" + Global.str() + " args=(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Args[I].str();
  }
  return Out + ")";
}

ObligationScheduler::Group *
isq::scheduleActionRefinement(ObligationScheduler &Sched, ObCondition Cond,
                              const Action &A1, const Action &A2,
                              const InternedContextUniverse &Universe,
                              InternedTransitionCache &Cache, GateCache &Gates,
                              OmegaGateCache &OmegaGates,
                              ArenaFingerprints *Fps) {
  assert(A1.arity() == A2.arity() && "refinement requires equal arity");
  assert((!Fps || (!A1.fp().isZero() && !A2.fp().isZero())) &&
         "cacheable refinement requires stamped behavior fingerprints");
  ObligationScheduler::Group *Group = Sched.group(Cond);
  // Slice size is thread-count independent so unit statistics are
  // identical for any thread count, not just the verdicts. 4096 keeps
  // job dispatch well under 1% of refinement work on the large
  // context universes (Paxos/3 has hundreds of thousands of contexts).
  // Slices end at store boundaries: every (store, args) point of
  // condition (2) is decided within one job (see ObligationScheduler.h).
  constexpr size_t ChunkSize = 4096;
  std::vector<StoreId> StoreOf;
  StoreOf.reserve(Universe.Items.size());
  for (const InternedActionContext &Ctx : Universe.Items)
    StoreOf.push_back(Ctx.Global);
  std::shared_ptr<const StoreGroupedOrder> Ord =
      groupByStore(*Universe.Arena, StoreOf, ChunkSize);
  // Jobs run after this function returns: capture the referents as
  // pointers by value, never the reference parameters themselves.
  const Action *A1P = &A1;
  const Action *A2P = &A2;
  const InternedContextUniverse *UniP = &Universe;
  InternedTransitionCache *CacheP = &Cache;
  GateCache *GatesP = &Gates;
  OmegaGateCache *OmegaGatesP = &OmegaGates;
  const StoreGroupedOrder *OrdP = Ord.get();
  for (size_t K = 0; K < Ord->slices(); ++K) {
    size_t Begin = Ord->Cuts[K], End = Ord->Cuts[K + 1];
    // With a fingerprint memo the slice is cacheable: its verdict depends
    // on the two behaviors and on the slice's contexts, nothing else.
    std::function<Fingerprint()> KeyFn;
    if (Fps) {
      Fingerprint F1 = A1.fp(), F2 = A2.fp();
      KeyFn = [=]() {
        FpHasher H("refine-slice/v1");
        H.fp(F1).fp(F2).u64(End - Begin);
        for (size_t I = Begin; I < End; ++I) {
          const InternedActionContext &Ctx = UniP->Items[OrdP->Order[I]];
          H.fp(Fps->store(Ctx.Global));
          H.fp(Fps->pa(Ctx.ArgsPa));
          H.fp(Fps->paSet(Ctx.Omega));
        }
        return H.finish();
      };
    }
    Sched.add(Group, {Ord, Begin, End}, std::move(KeyFn), [=](ObSink &Sink) {
      StateArena &Arena = *UniP->Arena;
      std::unordered_set<uint64_t> SimulationDone;
      // packIds(Global, CreatedSet) of the abstract transitions at the
      // current point, sorted: τI at (I1) and (I2) holds thousands, and a
      // scan per concrete transition would be quadratic.
      std::vector<uint64_t> AbstractIndex;
      // Gate results are pure functions of the interned point, so every
      // evaluation goes through the shared caches: Ω-observing gates key
      // on (store, args, Ω), Ω-independent ones on (store, args) alone.
      auto gateAt = [&](const Action &A, const InternedActionContext &Ctx) {
        return A.gateReadsOmega()
                   ? OmegaGatesP->get(A, Ctx.Global, Ctx.ArgsPa, Ctx.Omega)
                   : GatesP->get(A, Ctx.Global, Ctx.ArgsPa, Ctx.Omega);
      };
      auto describe = [&](const InternedActionContext &Ctx) {
        return describeCall(Arena.store(Ctx.Global), Arena.pa(Ctx.ArgsPa).Args);
      };
      for (size_t I = Begin; I < End; ++I) {
        const InternedActionContext &Ctx = UniP->Items[OrdP->Order[I]];
        Sink.at(static_cast<uint32_t>(I - Begin), OrdP->Group[I]);
        bool Gate2 = gateAt(*A2P, Ctx);
        // (1) ρ2 ⊆ ρ1 — evaluated at every context, never deduplicated.
        Sink.begin();
        Sink.countObligation();
        bool Gate1 = gateAt(*A1P, Ctx);
        if (Gate2 && !Gate1)
          Sink.fail("gate inclusion violated (ρ2 ⊄ ρ1) at " + describe(Ctx));
        if (!Gate2)
          continue; // (2) only constrains stores in ρ2
        // (2) ρ2 ∘ τ1 ⊆ τ2 — once per (store, args) point, at its first
        // gate-passing context: the slice holds every context of the
        // point's store, in universe order.
        uint64_t Point = (static_cast<uint64_t>(Ctx.Global) << 32) | Ctx.ArgsPa;
        if (!SimulationDone.insert(Point).second)
          continue;
        Sink.beginPoint();
        const std::vector<InternedTransition> &Abstract =
            CacheP->get(*A2P, Ctx.Global, Ctx.ArgsPa);
        const std::vector<InternedTransition> &Concrete =
            CacheP->get(*A1P, Ctx.Global, Ctx.ArgsPa);
        AbstractIndex.clear();
        for (const InternedTransition &Candidate : Abstract)
          AbstractIndex.push_back(
              packIds(Candidate.Global, Candidate.CreatedSet));
        std::sort(AbstractIndex.begin(), AbstractIndex.end());
        for (const InternedTransition &T : Concrete) {
          Sink.countObligation();
          if (!std::binary_search(AbstractIndex.begin(), AbstractIndex.end(),
                                  packIds(T.Global, T.CreatedSet)))
            Sink.fail("transition not simulated (ρ2 ∘ τ1 ⊄ τ2) at " +
                      describe(Ctx) + " transition " +
                      Transition(Arena.store(T.Global),
                                 Arena.paSet(T.CreatedSet).flatten())
                          .str());
        }
      }
    });
  }
  return Group;
}

CheckResult isq::checkProgramRefinement(const ProgramSummary &S1,
                                        const ProgramSummary &S2,
                                        const Store &Init) {
  CheckResult Result;
  Result.countObligation();
  if (!S2.Good)
    return Result; // P2 fails from this initial store: both conditions vacuous
  // (1) Good(P2) ⊆ Good(P1).
  if (!S1.Good) {
    Result.fail("P1 can fail where P2 cannot, from " + Init.str());
    return Result;
  }
  // (2) Good(P2) ∘ Trans(P1) ⊆ Trans(P2). Trans(P2) is sorted.
  for (const Store &Final : S1.Trans) {
    Result.countObligation();
    if (!std::binary_search(S2.Trans.begin(), S2.Trans.end(), Final))
      Result.fail("terminal store of P1 unreachable in P2: " + Final.str() +
                  " from " + Init.str());
  }
  return Result;
}
