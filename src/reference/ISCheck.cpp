//===- reference/ISCheck.cpp - Serial IS reference checker -----------------------===//

#include "reference/ISCheck.h"

#include "engine/ActionCaches.h"
#include "is/Sequentialize.h"
#include "reference/MoverCheck.h"
#include "reference/Refinement.h"

#include <unordered_map>
#include <unordered_set>

using namespace isq;
using namespace isq::engine;

namespace {

/// The invariant's transition relation at one (store, args) point, with
/// value-level transitions (preserving the user's created-PA enumeration
/// order for the choice function) alongside their interned images and an
/// integer-keyed membership index: the (I3) loop's memo entry, shared
/// across every Ω-variant of the same call point.
struct InvPoint {
  std::vector<Transition> Trans;
  std::vector<StoreId> TGlobal;
  std::vector<PaCountVec> TCreated;
  /// packIds(Global, CreatedSet) per transition of I.
  std::unordered_set<uint64_t> Index;
};

} // namespace

ISCheckReport isq::checkIS(const ISApplication &App,
                           const std::vector<InitialCondition> &Inits,
                           const EngineOptions &Opts) {
  ISCheckOptions CheckOpts;
  CheckOpts.Config = Opts.Config;
  return checkIS(App, ISUniverse::build(App, Inits, Opts), CheckOpts);
}

ISCheckReport reference::checkIS(const ISApplication &App,
                                 const ISUniverse &Universe) {
  ISCheckReport Report;
  const Program &P = App.P;

  const StateSpace &Space = Universe.Space;
  StateArena &Arena = *Space.Arena;
  const InternedContextUniverse &MCalls = Universe.MCalls;

  // --- Side conditions --------------------------------------------------
  Report.SideConditions = staticSideConditions(App);
  if (!Report.SideConditions.ok())
    return Report;

  // --- P(A) ≼ α(A) for A ∈ E ---------------------------------------------
  for (Symbol A : App.E) {
    if (!App.Abstractions.count(A))
      continue; // α(A) = P(A): refinement is reflexive
    InternedContextUniverse Ctxs = collectContexts(Space, A);
    CheckResult R =
        checkActionRefinement(P.action(A), App.abstraction(A), Ctxs);
    if (!R.ok())
      Report.AbstractionRefinement.fail("P(" + A.str() + ") ⋠ α(" +
                                        A.str() + ")");
    Report.AbstractionRefinement.merge(R);
  }

  // --- (I1) base case: P(M) ≼ I --------------------------------------------
  Report.BaseCase =
      checkActionRefinement(P.action(App.M), App.Invariant, MCalls);

  // --- (I2) conclusion: (ρI, {t ∈ τI | PAE(t) = ∅}) ≼ M' --------------------
  {
    Action Restricted = restrictInvariant(App);
    Action SeqM = sequentializedAction(App);
    Report.Conclusion = checkActionRefinement(Restricted, SeqM, MCalls);
  }

  // --- (I3) inductive step ---------------------------------------------------
  {
    // τI and its interned image, memoized per call point: Ω-variants of
    // one (store, args) point share the enumeration and the index.
    std::unordered_map<uint64_t, InvPoint> InvPoints;
    InternedTransitionCache AbsCache(Arena);
    for (const InternedActionContext &Call : MCalls.Items) {
      const Store &CallStore = Arena.store(Call.Global);
      const std::vector<Value> &CallArgs = Arena.pa(Call.ArgsPa).Args;
      const PaMultiset &CallOmega = Arena.paSet(Call.Omega);
      if (!App.Invariant.evalGate(CallStore, CallArgs, CallOmega))
        continue; // t ∈ ρI ∘ τI only constrains gate-satisfying stores

      auto [PointIt, New] =
          InvPoints.try_emplace(packIds(Call.Global, Call.ArgsPa));
      InvPoint &Point = PointIt->second;
      if (New) {
        Point.Trans = App.Invariant.transitions(CallStore, CallArgs);
        Point.TGlobal.reserve(Point.Trans.size());
        Point.TCreated.reserve(Point.Trans.size());
        for (const Transition &T : Point.Trans) {
          StoreId TG = Arena.internStore(T.Global);
          PaSetId TC = Arena.internPaSet(T.createdMultiset());
          Point.TGlobal.push_back(TG);
          Point.TCreated.push_back(Arena.paVec(TC));
          Point.Index.insert(packIds(TG, TC));
        }
      }

      for (size_t TI = 0; TI < Point.Trans.size(); ++TI) {
        const Transition &T = Point.Trans[TI];
        PaMultiset ToE = App.pasToE(T);
        if (ToE.empty())
          continue;
        PendingAsync Chosen = App.Choice(CallStore, CallArgs, T);
        Report.SideConditions.countObligation();
        if (!ToE.contains(Chosen)) {
          Report.SideConditions.fail(
              "choice function selected " + Chosen.str() +
              " which is not a created PA to E at " +
              describeCall(CallStore, CallArgs));
          continue;
        }
        const Action &Abs = App.abstraction(Chosen.Action);
        PaId ChosenPa = Arena.internPa(Chosen);

        // Ω after I's step: the executing M PA is consumed and T's created
        // PAs appear.
        PaCountVec Rest(Arena.paVec(Call.Omega));
        paCountVecErase(Rest, Call.ArgsPa);
        const PaMultiset &OmegaAfter =
            Arena.paSet(Arena.internPaVec(paCountVecUnion(
                Rest, Point.TCreated[TI])));

        // Gate of the abstraction must hold right after I's transition.
        Report.InductiveStep.countObligation();
        if (!Abs.evalGate(Arena.store(Point.TGlobal[TI]), Chosen.Args,
                          OmegaAfter)) {
          Report.InductiveStep.fail("gate of α(" + Chosen.Action.str() +
                                    ") fails after invariant transition at " +
                                    describeCall(CallStore, CallArgs) +
                                    " transition " + T.str());
          continue;
        }
        // Composing I's transition with the abstraction's transition must
        // again be a transition of I.
        PaCountVec Remaining(Point.TCreated[TI]);
        paCountVecErase(Remaining, ChosenPa);
        for (const InternedTransition &TA :
             AbsCache.get(Abs, Point.TGlobal[TI], ChosenPa)) {
          Report.InductiveStep.countObligation();
          PaSetId Composed =
              Arena.internPaVec(paCountVecUnion(Remaining, TA.Created));
          if (!Point.Index.count(packIds(TA.Global, Composed)))
            Report.InductiveStep.fail(
                "invariant not inductive: composing with α(" +
                Chosen.Action.str() + ") leaves τI at " +
                describeCall(CallStore, CallArgs));
        }
      }
    }
  }

  // --- (LM) left movers --------------------------------------------------------
  for (Symbol A : App.E) {
    CheckResult R = checkLeftMover(A, App.abstraction(A), P, Space);
    if (!R.ok())
      Report.LeftMovers.fail("α(" + A.str() + ") is not a left mover");
    Report.LeftMovers.merge(R);
  }

  // --- (CO) cooperation ----------------------------------------------------------
  {
    InternedTransitionCache CoCache(Arena);
    GateCache Gates(Arena, GateKeys::Exact);
    for (Symbol A : App.E) {
      const Action &Abs = App.abstraction(A);
      for (ConfigId Cid : Space.Configs) {
        auto [G, OmegaId] = Arena.config(Cid);
        const PaCountVec &Entries = Arena.paVec(OmegaId);
        // Materialized lazily: only configurations holding a PA to A (and
        // the measure comparison) need value-level views. Value order for
        // deterministic diagnostics under parallel universe builds.
        for (PaId Pa : Arena.paOrder(OmegaId)) {
          const PendingAsync &PA = Arena.pa(Pa);
          if (PA.Action != A)
            continue;
          const PaMultiset &Omega = Arena.paSet(OmegaId);
          bool GateOk = Abs.gateReadsOmega()
                            ? Abs.evalGate(Arena.store(G), PA.Args, Omega)
                            : Gates.get(Abs, G, Pa, OmegaId);
          if (!GateOk)
            continue;
          Report.Cooperation.countObligation();
          Configuration C(Arena.store(G), Omega);
          bool Decreases = false;
          PaCountVec Rest(Entries);
          paCountVecErase(Rest, Pa);
          for (const InternedTransition &TA : CoCache.get(Abs, G, Pa)) {
            PaSetId NextOmega =
                Arena.internPaVec(paCountVecUnion(Rest, TA.Created));
            Configuration Next(Arena.store(TA.Global),
                               Arena.paSet(NextOmega));
            if (App.WfMeasure.decreases(C, Next)) {
              Decreases = true;
              break;
            }
          }
          if (!Decreases)
            Report.Cooperation.fail(
                "no measure-decreasing transition of α(" + A.str() +
                ") for " + PA.str() + " in " + C.str());
        }
      }
    }
  }

  return Report;
}
