//===- is/ISCheck.cpp - IS verification conditions ------------------------------===//

#include "is/ISCheck.h"

#include "engine/ActionCaches.h"
#include "engine/ArenaFingerprints.h"
#include "engine/Canonicalizer.h"
#include "engine/ObligationCache.h"
#include "engine/StateGraph.h"
#include "is/ISCheckShared.h"
#include "is/Sequentialize.h"
#include "movers/MoverCheck.h"
#include "semantics/Symmetry.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <mutex>
#include <set>
#include <tuple>
#include <unordered_set>

using namespace isq;
using namespace isq::engine;

namespace {

/// M's call points as an interned context universe in which each distinct
/// (store, args, Ω) point appears once, in first-insertion order.
class CallPoints {
public:
  explicit CallPoints(std::shared_ptr<StateArena> Arena) {
    Calls.Arena = std::move(Arena);
  }

  /// Adds every point of \p Ctxs in order. With a non-null \p Canon
  /// each point is followed by its images under the symmetry's
  /// permutations (store, args and Ω permuted together) in permutation
  /// order.
  void add(const InternedContextUniverse &Ctxs,
           Canonicalizer *Canon = nullptr) {
    StateArena &Arena = *Calls.Arena;
    for (const InternedActionContext &Call : Ctxs.Items) {
      addPoint(Call);
      if (!Canon)
        continue;
      const SymmetrySpec &Sym = Canon->symmetry();
      const Store &G = Arena.store(Call.Global);
      for (uint32_t I = 1; I < Sym.numPermutations(); ++I)
        addPoint({Arena.internStore(Sym.permuteStore(G, Sym.perm(I))),
                  Canon->paImage(Call.ArgsPa, I),
                  Canon->paSetImage(Call.Omega, I)});
    }
  }

  const InternedContextUniverse &universe() const { return Calls; }
  InternedContextUniverse take() { return std::move(Calls); }

private:
  void addPoint(const InternedActionContext &Call) {
    if (Keys.emplace(Call.Global, Call.ArgsPa, Call.Omega).second)
      Calls.Items.push_back(Call);
  }

  InternedContextUniverse Calls;
  std::set<std::tuple<StoreId, PaId, PaSetId>> Keys;
};

/// The closure test: whether every step I takes from a point of \p Calls
/// lands on a node of \p PNodes. \p Canon canonicalizes successors the
/// way exploration does when \p PNodes holds orbit representatives, and
/// is null otherwise. Steps whose gate fails reach the failure
/// configuration, never a node, and are skipped like the engine skips
/// them; τI is enumerated through the invariant itself, so a memoizing
/// invariant (makeScheduleInvariant) answers the checkers' later queries
/// at these points from its memo.
bool invariantStaysInside(const Action &Inv,
                          const InternedContextUniverse &Calls,
                          const std::unordered_set<ConfigId> &PNodes,
                          Canonicalizer *Canon) {
  StateArena &Arena = *Calls.Arena;
  for (const InternedActionContext &Call : Calls.Items) {
    const Store &G = Arena.store(Call.Global);
    const std::vector<Value> &Args = Arena.pa(Call.ArgsPa).Args;
    if (!Inv.evalGate(G, Args, Arena.paSet(Call.Omega)))
      continue;
    PaCountVec Rest(Arena.paVec(Call.Omega));
    paCountVecErase(Rest, Call.ArgsPa);
    for (const Transition &T : Inv.transitions(G, Args)) {
      PaSetId Omega = Arena.internPaVec(
          paCountVecUnion(Rest, Arena.internPaList(T.Created)));
      StoreId Global = Arena.internStore(T.Global);
      ConfigId Succ = Canon ? Canon->canon(Global, Omega).first
                            : Arena.internConfig(Global, Omega);
      if (!PNodes.count(Succ))
        return false;
    }
  }
  return true;
}

} // namespace

ISUniverse ISUniverse::build(const ISApplication &App,
                             const std::vector<InitialCondition> &Inits,
                             const ExploreOptions &Opts) {
  ISUniverse U;
  U.Space.Arena = std::make_shared<StateArena>(Opts.Config.Shards);
  EngineOptions EO;
  EO.MaxConfigurations = Opts.MaxConfigurations;
  EO.RecordParents = false; // parents are never consulted for universes
  EO.Config = Opts.Config;
  // Every exploration interns into the one arena, so the union dedups by
  // ConfigId and the configurations are shared with every later check.
  std::unordered_set<ConfigId> Seen;
  auto Absorb = [&](const Program &P, std::vector<ProgramSummary> *Summaries) {
    for (const InitialCondition &Init : Inits) {
      StateGraph G = exploreGraph(
          P, {initialConfiguration(Init.Global, Init.MainArgs)}, U.Space.Arena,
          EO);
      U.Stats.accumulate(G.stats());
      if (Summaries)
        Summaries->push_back(summarizeGraph(P, G));
      const std::vector<uint32_t> &Orbits = G.orbitSizes();
      for (size_t I = 0; I < G.nodes().size(); ++I) {
        ConfigId Cid = G.nodes()[I];
        if (Seen.insert(Cid).second) {
          U.Space.Configs.push_back(Cid);
          U.OrbitSizes.push_back(Orbits.empty() ? 1 : Orbits[I]);
        }
      }
    }
  };
  Absorb(App.P, &U.PSummaries);

  // M's call points in Reach(P). A reduced run holds one representative
  // per orbit, and (I1)–(I3) are not equivariant (I and f rank by node
  // ID), so the contexts at the representatives are expanded to their
  // whole orbits: Reach(P) is orbit-closed (π-invariant initial stores,
  // equivariant P), and so is its set of call points.
  const SymmetrySpec *Sym =
      U.Stats.SymmetryReduced ? App.P.symmetry().get() : nullptr;
  // The orbit expansion and the closure test's successors are mostly
  // images exploration never canonicalized: a canonicalizer of their
  // own, freed before the P[M ↦ I] leg runs.
  std::optional<Canonicalizer> Canon;
  if (Sym)
    Canon.emplace(*U.Space.Arena, *Sym);
  CallPoints Calls(U.Space.Arena);
  Calls.add(collectContexts(U.Space, App.M), Canon ? &*Canon : nullptr);

  // The partial sequentializations P[M ↦ I]. When P was explored in full
  // and every I step from a call point of Reach(P) lands in Reach(P), then
  // Reach(P[M ↦ I]) ⊆ Reach(P) by induction over P[M ↦ I] steps (a non-M
  // step is a P step; an M step is one of the I steps just checked), and
  // the universe is P's alone. Otherwise the leg is explored unreduced,
  // as withAction drops the symmetry spec, and its new configurations are
  // appended, each counting as a singleton orbit.
  bool Closed = false;
  if (!U.Stats.Truncated)
    Closed = invariantStaysInside(App.Invariant, Calls.universe(), Seen,
                                  Canon ? &*Canon : nullptr);
  Canon.reset();
  if (!Closed) {
    size_t PNodes = U.Space.Configs.size();
    Absorb(App.P.withAction(App.Invariant.withName(App.M.str())), nullptr);
    StateSpace Leg{U.Space.Arena,
                   std::vector<ConfigId>(U.Space.Configs.begin() + PNodes,
                                         U.Space.Configs.end())};
    Calls.add(collectContexts(Leg, App.M));
  }
  U.MCalls = Calls.take();
  return U;
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

CheckResult isq::staticSideConditions(const ISApplication &App) {
  const Program &P = App.P;
  CheckResult R;
  R.countObligation();
  if (!P.hasAction(App.M))
    R.fail("M = " + App.M.str() + " not in dom(P)");
  for (Symbol A : App.E) {
    R.countObligation();
    if (!P.hasAction(A))
      R.fail("E member " + A.str() + " not in dom(P)");
  }
  R.countObligation();
  if (P.hasAction(App.M) && App.Invariant.arity() != P.action(App.M).arity())
    R.fail("invariant arity differs from M's arity");
  for (const auto &[Name, Abs] : App.Abstractions) {
    R.countObligation();
    if (!App.eliminates(Name))
      R.fail("abstraction for " + Name.str() + " which is not in E");
    else if (Abs.arity() != P.action(Name).arity())
      R.fail("abstraction arity mismatch for " + Name.str());
  }
  R.countObligation();
  if (!App.WfMeasure.isValid())
    R.fail("no well-founded measure supplied");
  R.countObligation();
  if (!App.Choice)
    R.fail("no choice function supplied");
  return R;
}

namespace {

/// Thread-safe memo of τI per (store, args) call point, for the scheduled
/// (I3). Enumerations of invariants that do not declare thread-safe
/// transitions are serialized behind a compute mutex; a racing
/// double-compute of the same key is benign (first insert wins).
class InvPointMemo {
public:
  InvPointMemo(const Action &Inv, StateArena &Arena)
      : Inv(Inv), Arena(Arena) {}

  const InvPoint &get(StoreId G, PaId ArgsPa) {
    uint64_t K = packIds(G, ArgsPa);
    if (const InvPoint *Found = Points.find(K, K))
      return *Found;
    InvPoint P;
    {
      std::unique_lock<std::mutex> Compute(ComputeMutex, std::defer_lock);
      if (!Inv.transitionsThreadSafe())
        Compute.lock();
      P.Trans = Inv.transitions(Arena.store(G), Arena.pa(ArgsPa).Args);
    }
    P.TGlobal.reserve(P.Trans.size());
    P.TCreated.reserve(P.Trans.size());
    for (const Transition &T : P.Trans) {
      StoreId TG = Arena.internStore(T.Global);
      PaSetId TC = Arena.internPaSet(T.createdMultiset());
      P.TGlobal.push_back(TG);
      P.TCreated.push_back(Arena.paVec(TC));
      P.Index.insert(packIds(TG, TC));
    }
    return Points.insert(K, K, std::move(P));
  }

private:
  const Action &Inv;
  StateArena &Arena;
  std::mutex ComputeMutex;
  engine::StableMemo<uint64_t, InvPoint> Points;
};

/// Thread-safe memo of measure tuples per interned (store, Ω) pair for the
/// scheduled (CO). The measure is a pure function of the configuration,
/// and cooperation consults the same configuration once per (eliminated
/// action, PA occurrence, transition); sharing one evaluation per distinct
/// configuration keeps the value-level Configuration construction off the
/// obligation hot path. A racing double-compute is benign (first insert
/// wins).
class MeasureMemo {
public:
  MeasureMemo(const Measure &M, StateArena &Arena) : M(M), Arena(Arena) {}

  const std::vector<uint64_t> &get(StoreId G, PaSetId Omega) {
    uint64_t K = packIds(G, Omega);
    if (const auto *Found = Memo.find(K, K))
      return *Found;
    return Memo.insert(
        K, K, M.eval(Configuration(Arena.store(G), Arena.paSet(Omega))));
  }

private:
  const Measure &M;
  StateArena &Arena;
  engine::StableMemo<uint64_t, std::vector<uint64_t>> Memo;
};

/// Thread-safe memo of the distinct PAs in an interned Ω whose action is a
/// given symbol, in paOrder() order. The scheduled (CO) scans every
/// (configuration, PA) pair once per eliminated action; configurations
/// share few distinct Ω's, so the scan-and-filter amortizes to one pass
/// per (Ω, action). A racing double-compute is benign (first insert wins).
class ActionPaCache {
public:
  explicit ActionPaCache(StateArena &Arena) : Arena(Arena) {}

  const std::vector<PaId> &get(PaSetId Omega, Symbol A) {
    uint64_t K = (static_cast<uint64_t>(Omega) << 32) | A.index();
    if (const auto *Found = Memo.find(K, K))
      return *Found;
    std::vector<PaId> V;
    for (PaId Pa : Arena.paOrder(Omega))
      if (Arena.pa(Pa).Action == A)
        V.push_back(Pa);
    return Memo.insert(K, K, std::move(V));
  }

private:
  StateArena &Arena;
  engine::StableMemo<uint64_t, std::vector<PaId>> Memo;
};

/// Whether every behavior the IS obligations depend on carries a content
/// fingerprint — the all-or-nothing gate for the obligation verdict
/// cache. A single unknown (zero) fingerprint disables caching for the
/// whole application.
bool cacheEligible(const ISApplication &App) {
  for (Symbol Name : App.P.actionNames())
    if (App.P.action(Name).fp().isZero())
      return false;
  if (App.Invariant.fp().isZero() || App.ChoiceFp.isZero() ||
      App.WfMeasure.fp().isZero())
    return false;
  for (const auto &[Name, Abs] : App.Abstractions)
    if (Abs.fp().isZero())
      return false;
  if (App.SeqAction && App.SeqAction->fp().isZero())
    return false;
  return true;
}

} // namespace

/// Submits every universe-quantified obligation of the IS rule into one
/// ObligationScheduler and assembles the report from the folded group
/// results. Deliberately separate from the serial loops of
/// reference/ISCheck.cpp, the differential oracle it is tested against.
/// Transition caches are shared across all conditions; that only changes
/// who computes an entry, never any obligation outcome.
ISCheckReport isq::checkIS(const ISApplication &App,
                           const ISUniverse &Universe,
                           const ISCheckOptions &Opts) {
  ISCheckReport Report;
  const Program &P = App.P;

  const StateSpace &Space = Universe.Space;
  StateArena &Arena = *Space.Arena;
  const InternedContextUniverse &MCalls = Universe.MCalls;

  Report.SideConditions = staticSideConditions(App);
  if (!Report.SideConditions.ok())
    return Report;

  ObligationScheduler Sched(Opts.Config);
  InternedTransitionCache Cache(Arena);
  GateCache Gates(Arena);
  OmegaGateCache OmegaGates(Arena);
  SuccessorOmegaCache SuccOmega(Arena);
  MeasureMemo Measures(App.WfMeasure, Arena);
  ActionPaCache ActionPas(Arena);

  // The verdict cache attaches only when every dependent behavior is
  // fingerprinted; a null Fps leaves every slice uncacheable.
  std::optional<ArenaFingerprints> FpsStore;
  ArenaFingerprints *Fps = nullptr;
  if (Opts.Cache && cacheEligible(App)) {
    FpsStore.emplace(Arena);
    Fps = &*FpsStore;
    Sched.setCache(Opts.Cache);
  }
  // E's names in sorted order: a stable ingredient for the fingerprints
  // of the invariant-derived actions below.
  std::vector<std::string> SortedE;
  if (Fps) {
    for (Symbol A : App.E)
      SortedE.push_back(A.str());
    std::sort(SortedE.begin(), SortedE.end());
  }

  // --- P(A) ≼ α(A) for A ∈ E ---------------------------------------------
  // Context universes live in a deque: jobs hold pointers into them.
  std::deque<InternedContextUniverse> AbsCtxs;
  std::vector<std::pair<Symbol, ObligationScheduler::Group *>> AbsGroups;
  for (Symbol A : App.E) {
    if (!App.Abstractions.count(A))
      continue; // α(A) = P(A): refinement is reflexive
    AbsCtxs.push_back(collectContexts(Space, A));
    AbsGroups.emplace_back(
        A, scheduleActionRefinement(Sched,
                                    ObCondition::AbstractionRefinement,
                                    P.action(A), App.abstraction(A),
                                    AbsCtxs.back(), Cache, Gates, OmegaGates,
                                    Fps));
  }

  // --- (I1) base case: P(M) ≼ I --------------------------------------------
  ObligationScheduler::Group *BaseGroup = scheduleActionRefinement(
      Sched, ObCondition::BaseCase, P.action(App.M), App.Invariant, MCalls,
      Cache, Gates, OmegaGates, Fps);

  // --- (I2) conclusion: (ρI, {t ∈ τI | PAE(t) = ∅}) ≼ M' --------------------
  Action Restricted = restrictInvariant(App);
  Action SeqM = sequentializedAction(App);
  if (Fps) {
    // Both are pure derivations of (I, E): restrictInvariant erases the
    // E-creating transitions; the derived M' (when the user supplied
    // none) is the same construction under another name. Domain tags
    // keep the two distinct.
    FpHasher HR("restricted/v1");
    HR.fp(App.Invariant.fp());
    for (const std::string &Name : SortedE)
      HR.str(Name);
    Restricted.setFp(HR.finish());
    if (SeqM.fp().isZero()) {
      FpHasher HS("seqm/v1");
      HS.fp(App.Invariant.fp());
      for (const std::string &Name : SortedE)
        HS.str(Name);
      SeqM.setFp(HS.finish());
    }
  }
  ObligationScheduler::Group *ConclGroup = scheduleActionRefinement(
      Sched, ObCondition::Conclusion, Restricted, SeqM, MCalls, Cache, Gates,
      OmegaGates, Fps);

  // --- (I3) inductive step ---------------------------------------------------
  // Channel 0 folds under (I3); channel 1 carries the choice-function
  // obligations the serial loop reports as side conditions.
  constexpr uint8_t ChanStep = 0;
  constexpr uint8_t ChanChoice = 1;
  ObligationScheduler::Group *StepGroup = Sched.group(
      {ObCondition::InductiveStep, ObCondition::SideConditions});
  InvPointMemo InvPoints(App.Invariant, Arena);
  {
    const ISApplication *AppP = &App;
    const InternedContextUniverse *MCallsP = &MCalls;
    InvPointMemo *MemoP = &InvPoints;
    InternedTransitionCache *CacheP = &Cache;
    GateCache *GatesP = &Gates;
    OmegaGateCache *OmegaGatesP = &OmegaGates;
    StateArena *ArenaP = &Arena;
    // The (I3) behavior dependencies are identical for every slice:
    // invariant and choice function (executed directly), and the
    // abstraction of every A ∈ E (gate and transitions compose with τI).
    // E's declaration order is input-derived, hence stable.
    Fingerprint I3Deps;
    if (Fps) {
      FpHasher HT("i3-deps/v1");
      HT.fp(App.Invariant.fp());
      HT.fp(App.ChoiceFp);
      for (Symbol A : App.E) {
        HT.str(A.str());
        HT.fp(App.abstraction(A).fp());
      }
      I3Deps = HT.finish();
    }
    // Thread-count independent slice; sized so dispatch overhead stays
    // negligible against the per-context transition work.
    constexpr size_t ChunkSize = 4096;
    size_t N = MCalls.Items.size();
    for (size_t Begin = 0; Begin < N; Begin += ChunkSize) {
      size_t End = std::min(N, Begin + ChunkSize);
      std::function<Fingerprint()> KeyFn;
      if (Fps) {
        ArenaFingerprints *FpsP = Fps;
        KeyFn = [=]() {
          FpHasher H("i3-slice/v1");
          H.fp(I3Deps).u64(End - Begin);
          for (size_t I = Begin; I < End; ++I) {
            const InternedActionContext &Call = MCallsP->Items[I];
            H.fp(FpsP->store(Call.Global));
            H.fp(FpsP->pa(Call.ArgsPa));
            H.fp(FpsP->paSet(Call.Omega));
          }
          return H.finish();
        };
      }
      // No (I3) obligation is deduplicated, so the slices follow the
      // universe order: positions are Begin + the point's index.
      Sched.add(StepGroup, {nullptr, Begin, End}, std::move(KeyFn),
                [=](ObSink &Sink) {
        StateArena &Arena = *ArenaP;
        for (size_t I = Begin; I < End; ++I) {
          const InternedActionContext &Call = MCallsP->Items[I];
          Sink.at(static_cast<uint32_t>(I - Begin), 0);
          const Store &CallStore = Arena.store(Call.Global);
          const std::vector<Value> &CallArgs = Arena.pa(Call.ArgsPa).Args;
          const PaMultiset &CallOmega = Arena.paSet(Call.Omega);
          if (!AppP->Invariant.evalGate(CallStore, CallArgs, CallOmega))
            continue; // t ∈ ρI ∘ τI only constrains gate-satisfying stores
          const InvPoint &Point = MemoP->get(Call.Global, Call.ArgsPa);

          for (size_t TI = 0; TI < Point.Trans.size(); ++TI) {
            const Transition &T = Point.Trans[TI];
            PaMultiset ToE = AppP->pasToE(T);
            if (ToE.empty())
              continue;
            PendingAsync Chosen = AppP->Choice(CallStore, CallArgs, T);
            Sink.begin(ChanChoice);
            Sink.countObligation();
            if (!ToE.contains(Chosen)) {
              Sink.fail("choice function selected " + Chosen.str() +
                        " which is not a created PA to E at " +
                        describeCall(CallStore, CallArgs));
              continue;
            }
            const Action &Abs = AppP->abstraction(Chosen.Action);
            PaId ChosenPa = Arena.internPa(Chosen);

            // Ω after I's step: the executing M PA is consumed and T's
            // created PAs appear.
            PaCountVec Rest(Arena.paVec(Call.Omega));
            paCountVecErase(Rest, Call.ArgsPa);
            PaSetId OmegaAfter = Arena.internPaVec(
                paCountVecUnion(Rest, Point.TCreated[TI]));

            // Gate of the abstraction must hold right after I's
            // transition. Gates are pure, so the evaluation goes through
            // the shared caches keyed on the interned point.
            Sink.begin(ChanStep);
            Sink.countObligation();
            bool AbsGateOk =
                Abs.gateReadsOmega()
                    ? OmegaGatesP->get(Abs, Point.TGlobal[TI], ChosenPa,
                                       OmegaAfter)
                    : GatesP->get(Abs, Point.TGlobal[TI], ChosenPa,
                                  OmegaAfter);
            if (!AbsGateOk) {
              Sink.fail("gate of α(" + Chosen.Action.str() +
                        ") fails after invariant transition at " +
                        describeCall(CallStore, CallArgs) + " transition " +
                        T.str());
              continue;
            }
            // Composing I's transition with the abstraction's transition
            // must again be a transition of I.
            PaCountVec Remaining(Point.TCreated[TI]);
            paCountVecErase(Remaining, ChosenPa);
            for (const InternedTransition &TA :
                 CacheP->get(Abs, Point.TGlobal[TI], ChosenPa)) {
              Sink.countObligation();
              PaSetId Composed =
                  Arena.internPaVec(paCountVecUnion(Remaining, TA.Created));
              if (!Point.Index.count(packIds(TA.Global, Composed)))
                Sink.fail("invariant not inductive: composing with α(" +
                          Chosen.Action.str() + ") leaves τI at " +
                          describeCall(CallStore, CallArgs));
            }
          }
        }
      });
    }
  }

  // --- (LM) left movers --------------------------------------------------------
  // One store-grouped order serves every (LM) and (CO) pass.
  std::shared_ptr<const StoreGroupedOrder> ConfigOrder = moverSliceOrder(Space);
  std::vector<std::pair<Symbol, ObligationScheduler::Group *>> LMGroups;
  for (Symbol A : App.E)
    LMGroups.emplace_back(
        A, scheduleLeftMover(Sched, ObCondition::LeftMovers, A,
                             App.abstraction(A), P, Space, Cache, Gates,
                             OmegaGates, SuccOmega, Fps, ConfigOrder));

  // --- (CO) cooperation ----------------------------------------------------------
  // One group per A ∈ E, merged in E's order like the serial loop's
  // A-major iteration.
  std::vector<ObligationScheduler::Group *> CoGroups;
  {
    const StateSpace *SpaceP = &Space;
    InternedTransitionCache *CacheP = &Cache;
    GateCache *GatesP = &Gates;
    OmegaGateCache *OmegaGatesP = &OmegaGates;
    SuccessorOmegaCache *SuccOmegaP = &SuccOmega;
    StateArena *ArenaP = &Arena;
    MeasureMemo *MeasuresP = &Measures;
    ActionPaCache *ActionPasP = &ActionPas;
    // Thread-count independent slices over the reachable configurations,
    // the mover passes' store-grouped order.
    const StoreGroupedOrder *OrdP = ConfigOrder.get();
    for (Symbol A : App.E) {
      ObligationScheduler::Group *CoGroup =
          Sched.group(ObCondition::Cooperation);
      CoGroups.push_back(CoGroup);
      const Action *AbsP = &App.abstraction(A);
      // A cooperation slice executes only α(A) and the measure over its
      // configurations — concrete-body edits never touch it.
      Fingerprint CoDeps;
      if (Fps) {
        FpHasher HD("co-deps/v1");
        HD.str(A.str());
        HD.fp(App.abstraction(A).fp());
        HD.fp(App.WfMeasure.fp());
        CoDeps = HD.finish();
      }
      for (size_t K = 0; K < OrdP->slices(); ++K) {
        size_t Begin = OrdP->Cuts[K], End = OrdP->Cuts[K + 1];
        std::function<Fingerprint()> KeyFn;
        if (Fps) {
          ArenaFingerprints *FpsP = Fps;
          KeyFn = [=]() {
            FpHasher H("co-slice/v1");
            H.fp(CoDeps).u64(End - Begin);
            for (size_t CI = Begin; CI < End; ++CI)
              H.fp(FpsP->config(SpaceP->Configs[OrdP->Order[CI]]));
            return H.finish();
          };
        }
        Sched.add(CoGroup, {ConfigOrder, Begin, End}, std::move(KeyFn),
                  [=](ObSink &Sink) {
          StateArena &Arena = *ArenaP;
          const Action &Abs = *AbsP;
          for (size_t CI = Begin; CI < End; ++CI) {
            ConfigId Cid = SpaceP->Configs[OrdP->Order[CI]];
            auto [G, OmegaId] = Arena.config(Cid);
            Sink.at(static_cast<uint32_t>(CI - Begin), OrdP->Group[CI]);
            for (PaId Pa : ActionPasP->get(OmegaId, A)) {
              bool GateOk =
                  Abs.gateReadsOmega()
                      ? OmegaGatesP->get(Abs, G, Pa, OmegaId)
                      : GatesP->get(Abs, G, Pa, OmegaId);
              if (!GateOk)
                continue;
              Sink.begin();
              Sink.countObligation();
              const std::vector<uint64_t> &MC = MeasuresP->get(G, OmegaId);
              bool Decreases = false;
              for (const InternedTransition &TA : CacheP->get(Abs, G, Pa)) {
                PaSetId NextOmega = SuccOmegaP->get(OmegaId, Pa, TA);
                if (Measure::decreases(
                        MC, MeasuresP->get(TA.Global, NextOmega))) {
                  Decreases = true;
                  break;
                }
              }
              if (!Decreases)
                Sink.fail("no measure-decreasing transition of α(" +
                          A.str() + ") for " + Arena.pa(Pa).str() + " in " +
                          Arena.configuration(Cid).str());
            }
          }
        });
      }
    }
  }

  Sched.run();

  // Orbit accounting per condition: the store-universe conditions range
  // over Space.Configs (orbit representatives under a reduced build); the
  // M-call conditions range over MCalls, which build() expands to whole
  // orbits, so each point stands for itself alone.
  {
    uint64_t Reps = Space.Configs.size();
    uint64_t States = Reps;
    if (Universe.OrbitSizes.size() == Space.Configs.size()) {
      States = 0;
      for (uint64_t S : Universe.OrbitSizes)
        States += S;
    }
    Sched.noteOrbits(ObCondition::AbstractionRefinement, Reps, States);
    Sched.noteOrbits(ObCondition::LeftMovers, Reps, States);
    Sched.noteOrbits(ObCondition::Cooperation, Reps, States);
    uint64_t MC = MCalls.Items.size();
    Sched.noteOrbits(ObCondition::BaseCase, MC, MC);
    Sched.noteOrbits(ObCondition::Conclusion, MC, MC);
    Sched.noteOrbits(ObCondition::InductiveStep, MC, MC);
  }

  for (auto &[A, Group] : AbsGroups) {
    const CheckResult &R = Sched.result(Group);
    if (!R.ok())
      Report.AbstractionRefinement.fail("P(" + A.str() + ") ⋠ α(" +
                                        A.str() + ")");
    Report.AbstractionRefinement.merge(R);
  }
  Report.BaseCase = Sched.result(BaseGroup);
  Report.Conclusion = Sched.result(ConclGroup);
  Report.InductiveStep = Sched.result(StepGroup, ChanStep);
  Report.SideConditions.merge(Sched.result(StepGroup, ChanChoice));
  for (auto &[A, Group] : LMGroups) {
    const CheckResult &R = Sched.result(Group);
    if (!R.ok())
      Report.LeftMovers.fail("α(" + A.str() + ") is not a left mover");
    Report.LeftMovers.merge(R);
  }
  for (ObligationScheduler::Group *CoGroup : CoGroups)
    Report.Cooperation.merge(Sched.result(CoGroup));
  Report.Scheduler = Sched.stats();
  return Report;
}

ISCheckReport isq::checkIS(const ISApplication &App,
                           const std::vector<InitialCondition> &Inits,
                           const ExploreOptions &Opts) {
  ISCheckOptions CheckOpts;
  CheckOpts.Config = Opts.Config;
  return checkIS(App, ISUniverse::build(App, Inits, Opts), CheckOpts);
}

std::string ISCheckReport::str() const {
  auto Line = [](const char *Name, const CheckResult &R) {
    return std::string("  ") + Name + ": " + R.str() + "\n";
  };
  std::string Out = "IS check report:\n";
  Out += Line("side conditions", SideConditions);
  Out += Line("P(A) ≼ α(A)   ", AbstractionRefinement);
  Out += Line("(I1) base case ", BaseCase);
  Out += Line("(I2) conclusion", Conclusion);
  Out += Line("(I3) induction ", InductiveStep);
  Out += Line("(LM) left mover", LeftMovers);
  Out += Line("(CO) cooperation", Cooperation);
  Out += ok() ? "  => ACCEPTED\n" : "  => REJECTED\n";
  return Out;
}
