//===- is/ISCheck.cpp - IS verification conditions ------------------------------===//

#include "is/ISCheck.h"

#include "engine/ActionCaches.h"
#include "engine/ArenaFingerprints.h"
#include "engine/ObligationCache.h"
#include "engine/StateGraph.h"
#include "is/Sequentialize.h"
#include "movers/MoverCheck.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace isq;
using namespace isq::engine;

ISUniverse ISUniverse::build(const ISApplication &App,
                             const std::vector<InitialCondition> &Inits,
                             const ExploreOptions &Opts) {
  ISUniverse U;
  StateArena::SpillOptions Spill;
  Spill.Enabled = Opts.Config.Spill;
  Spill.Dir = Opts.Config.SpillDir;
  Spill.MemBudget = Opts.Config.MemBudget;
  U.Space.Arena = std::make_shared<StateArena>(Opts.Config.Shards,
                                               Opts.Config.Compress, Spill);
  EngineOptions EO;
  EO.MaxConfigurations = Opts.MaxConfigurations;
  EO.RecordParents = false; // parents are never consulted for universes
  EO.Config = Opts.Config;
  // Both explorations intern into the one arena, so the union dedups by
  // ConfigId and the configurations are shared with every later check.
  // Note the asymmetry between the two explorations: P may run
  // symmetry-reduced, while P[M ↦ I] always runs unreduced (withAction
  // drops the symmetry spec — the schedule invariant ranks by node ID and
  // is not equivariant). A configuration first seen reduced keeps its
  // orbit size; one first seen unreduced counts as a singleton.
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
  // The partial sequentializations: P with M replaced by the invariant.
  Absorb(App.P.withAction(App.Invariant.withName(App.M.str())), nullptr);
  // M-call contexts straight off the interned space: materializing a
  // value mirror of a few hundred thousand configurations just to find
  // the handful of M contexts costs a measurable slice of every run.
  // Configs stays empty for built universes — the checkers run over
  // Space (see the field comments); hand-built universes populate the
  // value fields instead and have no Arena.
  InternedContextUniverse Interned = collectContexts(U.Space, App.M);
  StateArena &Arena = *U.Space.Arena;
  U.MCalls.reserve(Interned.Items.size());
  for (const InternedActionContext &Ctx : Interned.Items)
    U.MCalls.push_back({Arena.store(Ctx.Global), Arena.pa(Ctx.ArgsPa).Args,
                        Arena.paSet(Ctx.Omega)});
  return U;
}

namespace {

std::string describeCall(const Store &Global, const std::vector<Value> &Args) {
  std::string Out = "store=" + Global.str() + " args=(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Args[I].str();
  }
  return Out + ")";
}

/// The invariant's transition relation at one (store, args) point, with
/// value-level transitions (preserving the user's created-PA enumeration
/// order for the choice function) alongside their interned images and an
/// integer-keyed membership index. Shared across every Ω-variant of the
/// same call point.
struct InvPoint {
  std::vector<Transition> Trans;
  std::vector<StoreId> TGlobal;
  std::vector<PaCountVec> TCreated;
  /// (Global << 32) | CreatedSet per transition of I.
  std::unordered_set<uint64_t> Index;
};

uint64_t packIds(uint32_t Hi, uint32_t Lo) {
  return (static_cast<uint64_t>(Hi) << 32) | Lo;
}

/// The structural side conditions on the application itself (everything
/// checked before any universe-quantified obligation). Shared between the
/// serial and scheduled checkers — these are O(|E|) bookkeeping checks,
/// not obligation loops.
CheckResult staticSideConditions(const ISApplication &App) {
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
    {
      std::lock_guard<std::mutex> Lock(MapMutex);
      auto It = Points.find(K);
      if (It != Points.end())
        return It->second;
    }
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
    std::lock_guard<std::mutex> Lock(MapMutex);
    return Points.try_emplace(K, std::move(P)).first->second;
  }

private:
  const Action &Inv;
  StateArena &Arena;
  std::mutex MapMutex;
  std::mutex ComputeMutex;
  std::unordered_map<uint64_t, InvPoint> Points;
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
      return **Found;
    std::vector<uint64_t> V =
        M.eval(Configuration(Arena.store(G), Arena.paSet(Omega)));
    return *Memo.insertWith(K, K, [&]() {
      Storage.push_back(std::move(V));
      return &Storage.back();
    });
  }

  /// Measure::decreases on memoized tuples (lexicographic, zero-padded).
  static bool decreases(const std::vector<uint64_t> &MA,
                        const std::vector<uint64_t> &MB) {
    size_t N = std::max(MA.size(), MB.size());
    for (size_t I = 0; I < N; ++I) {
      uint64_t VA = I < MA.size() ? MA[I] : 0;
      uint64_t VB = I < MB.size() ? MB[I] : 0;
      if (VA != VB)
        return VA > VB;
    }
    return false;
  }

private:
  const Measure &M;
  StateArena &Arena;
  engine::FlatMemo<uint64_t, const std::vector<uint64_t> *> Memo;
  /// Backing storage for the tuples; mutated only under the memo lock.
  std::deque<std::vector<uint64_t>> Storage;
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
      return **Found;
    std::vector<PaId> V;
    for (PaId Pa : Arena.paOrder(Omega))
      if (Arena.pa(Pa).Action == A)
        V.push_back(Pa);
    return *Memo.insertWith(K, K, [&]() {
      Storage.push_back(std::move(V));
      return &Storage.back();
    });
  }

private:
  StateArena &Arena;
  engine::FlatMemo<uint64_t, const std::vector<PaId> *> Memo;
  /// Backing storage for the lists; mutated only under the memo lock.
  std::deque<std::vector<PaId>> Storage;
};

} // namespace

ISCheckReport isq::checkIS(const ISApplication &App,
                           const ISUniverse &Universe) {
  ISCheckReport Report;
  const Program &P = App.P;

  // The interned universe: shared with build(), or interned on the fly for
  // hand-built universes.
  StateSpace Space = Universe.Space;
  if (!Space.Arena) {
    Space.Arena = std::make_shared<StateArena>();
    Space.Configs.reserve(Universe.Configs.size());
    for (const Configuration &C : Universe.Configs)
      if (!C.isFailure())
        Space.Configs.push_back(Space.Arena->internConfig(C));
  }
  StateArena &Arena = *Space.Arena;

  // --- Side conditions --------------------------------------------------
  Report.SideConditions = staticSideConditions(App);
  if (!Report.SideConditions.ok())
    return Report;

  // The interned M-call contexts. Derived from the value-level MCalls (not
  // from Space) so hand-built universes behave identically; for built
  // universes the two coincide.
  InternedContextUniverse MCalls;
  MCalls.Arena = Space.Arena;
  MCalls.Items.reserve(Universe.MCalls.size());
  for (const ActionContext &Ctx : Universe.MCalls)
    MCalls.Items.push_back({Arena.internStore(Ctx.Global),
                            Arena.internPa(PendingAsync(App.M, Ctx.Args)),
                            Arena.internPaSet(Ctx.Omega)});

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
    GateCache Gates(Arena);
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
                            : Gates.get(Abs, G, Pa, Omega);
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

namespace {

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

/// The scheduled checker: submits every universe-quantified obligation of
/// the IS rule into one ObligationScheduler and assembles the report from
/// the folded group results. Deliberately separate from the serial
/// loops above, which survive as the parallel-check=false differential
/// oracle. Transition caches are shared across all conditions; that only
/// changes who computes an entry, never any obligation outcome.
ISCheckReport checkISScheduled(const ISApplication &App,
                               const ISUniverse &Universe,
                               const EngineConfig &Config,
                               ObligationCache *VCache) {
  ISCheckReport Report;
  const Program &P = App.P;

  StateSpace Space = Universe.Space;
  if (!Space.Arena) {
    StateArena::SpillOptions Spill;
    Spill.Enabled = Config.Spill;
    Spill.Dir = Config.SpillDir;
    Spill.MemBudget = Config.MemBudget;
    Space.Arena = std::make_shared<StateArena>(Config.Shards,
                                               Config.Compress, Spill);
    Space.Configs.reserve(Universe.Configs.size());
    for (const Configuration &C : Universe.Configs)
      if (!C.isFailure())
        Space.Configs.push_back(Space.Arena->internConfig(C));
  }
  StateArena &Arena = *Space.Arena;

  Report.SideConditions = staticSideConditions(App);
  if (!Report.SideConditions.ok())
    return Report;

  InternedContextUniverse MCalls;
  MCalls.Arena = Space.Arena;
  MCalls.Items.reserve(Universe.MCalls.size());
  for (const ActionContext &Ctx : Universe.MCalls)
    MCalls.Items.push_back({Arena.internStore(Ctx.Global),
                            Arena.internPa(PendingAsync(App.M, Ctx.Args)),
                            Arena.internPaSet(Ctx.Omega)});

  ObligationScheduler Sched(Config);
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
  if (VCache && cacheEligible(App)) {
    FpsStore.emplace(Arena);
    Fps = &*FpsStore;
    Sched.setCache(VCache);
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
                                  Arena.paSet(OmegaAfter));
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
                      : GatesP->get(Abs, G, Pa, Arena.paSet(OmegaId));
              if (!GateOk)
                continue;
              Sink.begin();
              Sink.countObligation();
              const std::vector<uint64_t> &MC = MeasuresP->get(G, OmegaId);
              bool Decreases = false;
              for (const InternedTransition &TA : CacheP->get(Abs, G, Pa)) {
                PaSetId NextOmega = SuccOmegaP->get(OmegaId, Pa, TA);
                if (MeasureMemo::decreases(
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
  // M-call conditions range over MCalls, which arise at the π-invariant
  // initial configurations and are singleton orbits either way.
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

} // namespace

ISCheckReport isq::checkIS(const ISApplication &App,
                           const ISUniverse &Universe,
                           const ISCheckOptions &Opts) {
  if (!Opts.Config.ParallelCheck)
    return checkIS(App, Universe);
  return checkISScheduled(App, Universe, Opts.Config, Opts.Cache);
}

ISCheckReport isq::checkIS(const ISApplication &App,
                           const std::vector<InitialCondition> &Inits,
                           const ExploreOptions &Opts) {
  return checkIS(App, ISUniverse::build(App, Inits, Opts));
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
