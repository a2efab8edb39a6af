//===- driver/VerifyDriver.cpp - End-to-end ASL verification -----------------------===//

#include "driver/VerifyDriver.h"

#include "driver/ReportRender.h"
#include "explorer/Explorer.h"
#include "is/Sequentialize.h"
#include "is/ScheduleInvariant.h"
#include "refine/Refinement.h"
#include "semantics/Symmetry.h"
#include "support/Timer.h"

#include <algorithm>
#include <unordered_set>

using namespace isq;
using namespace isq::driver;

namespace {

/// Validates the request against the compiled module. Every problem is
/// reported (no first-failure bailout) as a driver diagnostic; the
/// pipeline never asserts or silently ignores bad input.
std::vector<asl::Diagnostic> validateRequest(const VerifyOptions &Options,
                                             const Program &P) {
  std::vector<asl::Diagnostic> Diags;
  auto Bad = [&](const std::string &Message) {
    Diags.push_back({Message, 0, 0});
  };
  if (!P.hasAction(Options.RewriteAction))
    Bad("rewrite action '" + Options.RewriteAction + "' is not declared");
  if (Options.Eliminate.empty())
    Bad("no eliminated actions given");
  std::unordered_set<std::string> Eliminated;
  for (const std::string &Name : Options.Eliminate) {
    if (!P.hasAction(Name))
      Bad("eliminated action '" + Name + "' is not declared");
    if (!Eliminated.insert(Name).second)
      Bad("eliminated action '" + Name + "' listed more than once");
  }
  for (const auto &[Target, AbsName] : Options.Abstractions) {
    if (!Eliminated.count(Target))
      Bad("abstraction given for '" + Target + "', which is not eliminated");
    if (!P.hasAction(AbsName)) {
      Bad("abstraction action '" + AbsName + "' is not declared");
      continue; // arity comparison needs the action
    }
    if (P.hasAction(Target) &&
        P.action(AbsName).arity() != P.action(Target).arity())
      Bad("abstraction '" + AbsName + "' has different arity than '" +
          Target + "'");
  }
  for (const auto &[Name, Weight] : Options.Weights) {
    (void)Weight;
    if (!P.hasAction(Name))
      Bad("weight given for '" + Name + "', which is not declared");
  }
  return Diags;
}

} // namespace

ISApplication driver::deriveApplication(const VerifyOptions &Options,
                                         const Program &P) {
  std::vector<Symbol> Order;
  for (const std::string &Name : Options.Eliminate)
    Order.push_back(Symbol::get(Name));
  bool ArgMajor = Options.Order == VerifyOptions::RankOrder::ArgMajor;
  RankFn Rank =
      [Order, ArgMajor](const PendingAsync &PA)
      -> std::optional<std::vector<int64_t>> {
    for (size_t I = 0; I < Order.size(); ++I) {
      if (PA.Action != Order[I])
        continue;
      std::vector<int64_t> R;
      if (ArgMajor && !PA.Args.empty() &&
          PA.Args[0].kind() == ValueKind::Int)
        R.push_back(PA.Args[0].getInt());
      R.push_back(static_cast<int64_t>(I));
      for (const Value &Arg : PA.Args)
        if (Arg.kind() == ValueKind::Int)
          R.push_back(Arg.getInt());
      return R;
    }
    return std::nullopt;
  };

  ISApplication App;
  App.P = P;
  App.M = Symbol::get(Options.RewriteAction);
  App.E = Order;
  App.Invariant = makeScheduleInvariant(
      Options.RewriteAction + "Inv", App.P, App.M, Rank);
  App.Choice = chooseMinRank(Rank);
  for (const auto &[Target, AbsName] : Options.Abstractions)
    App.Abstractions.emplace(Symbol::get(Target), P.action(AbsName));
  std::map<std::string, uint64_t> Weights = Options.Weights;
  // The cooperation measure must be orbit-invariant when the module
  // declares a symmetric sort: node IDs are interchangeable, so a rank
  // component drawn from a node-typed argument would distinguish members
  // of one orbit. Those components are masked to 0 — unconditionally, not
  // only under symmetry reduction, so the identical measure is used by
  // both the reduced run and the symmetry=false oracle (identical
  // verdicts by construction). The full rank is kept for the schedule
  // invariant and the choice function, which only order PAs within one
  // schedule.
  std::shared_ptr<const SymmetrySpec> ModuleSym = P.symmetry();
  RankFn MeasureRank =
      [Order, ArgMajor, ModuleSym](const PendingAsync &PA)
      -> std::optional<std::vector<int64_t>> {
    for (size_t I = 0; I < Order.size(); ++I) {
      if (PA.Action != Order[I])
        continue;
      const std::vector<ValueShape> *Shapes =
          ModuleSym ? ModuleSym->actionShapes(PA.Action) : nullptr;
      auto Component = [&](size_t Arg) -> int64_t {
        if (Shapes && Arg < Shapes->size() &&
            (*Shapes)[Arg].kind() == ValueShape::Kind::Id)
          return 0;
        return PA.Args[Arg].getInt();
      };
      std::vector<int64_t> R;
      if (ArgMajor && !PA.Args.empty() &&
          PA.Args[0].kind() == ValueKind::Int)
        R.push_back(Component(0));
      R.push_back(static_cast<int64_t>(I));
      for (size_t Arg = 0; Arg < PA.Args.size(); ++Arg)
        if (PA.Args[Arg].kind() == ValueKind::Int)
          R.push_back(Component(Arg));
      return R;
    }
    return std::nullopt;
  };
  // Behavior fingerprints of the derived proof artifacts, for the
  // obligation verdict cache. Each is a pure function of its actual
  // inputs — never of unrelated actions, so editing one concrete body
  // invalidates only the obligations that execute it:
  //  - the schedule invariant executes P(M) and the *ranked* (E) actions;
  //  - the choice function only compares ranks (elimination positions and
  //    integer arguments), never runs bodies;
  //  - the measure reads weights, ranks and the symmetry masking pattern,
  //    never bodies — cooperation verdicts survive body edits.
  // With an unstamped frontend the absorbed action fingerprints are zero
  // and checkIS's eligibility gate keeps the cache detached.
  {
    FpHasher HI("sched-inv/v1");
    HI.boolean(ArgMajor);
    HI.fp(App.P.action(App.M).fp());
    for (size_t I = 0; I < Order.size(); ++I) {
      HI.u64(I).str(Order[I].str());
      HI.fp(App.P.action(Order[I]).fp());
    }
    App.Invariant.setFp(HI.finish());

    FpHasher HC("choice-min-rank/v1");
    HC.boolean(ArgMajor);
    for (size_t I = 0; I < Order.size(); ++I)
      HC.u64(I).str(Order[I].str());
    App.ChoiceFp = HC.finish();
  }

  // The weights resolved once to a Symbol-indexed table (unlisted actions
  // weigh 1): the measure runs per configuration on the checker hot path,
  // where a by-name lookup would pay Symbol::str() and a string probe per
  // pending async.
  std::vector<uint64_t> WeightOf;
  for (const auto &[Name, W] : Weights) {
    uint32_t Index = Symbol::get(Name).index();
    if (WeightOf.size() <= Index)
      WeightOf.resize(Index + 1, 1);
    WeightOf[Index] = W;
  }
  App.WfMeasure = Measure(
      "(Σ weighted |Ω|, Σ rank-remaining-work)",
      [WeightOf = std::move(WeightOf),
       Rank = MeasureRank](const Configuration &C) {
        if (C.isFailure())
          return std::vector<uint64_t>{0, 0};
        // First component: weighted PA count — strict decrease for
        // phases that consume more weight than they spawn. Second
        // component: remaining schedule work — a chain re-creating its
        // successor keeps the count but strictly advances its rank.
        constexpr uint64_t Base = 1 << 14;
        constexpr size_t MaxComponents = 4;
        uint64_t Counts = 0, Work = 0;
        for (const auto &[PA, Count] : C.pendingAsyncs().entries()) {
          uint32_t Index = PA.Action.index();
          Counts += (Index < WeightOf.size() ? WeightOf[Index] : 1) * Count;
          std::optional<std::vector<int64_t>> R = Rank(PA);
          if (!R)
            continue;
          uint64_t Scalar = 0;
          for (size_t I = 0; I < MaxComponents; ++I) {
            int64_t Component = I < R->size() ? (*R)[I] : 0;
            uint64_t Clamped = Component < 0
                                   ? 0
                                   : std::min<uint64_t>(
                                         static_cast<uint64_t>(Component),
                                         Base - 1);
            Scalar = Scalar * Base + Clamped;
          }
          uint64_t MaxScalar = Base * Base * Base * Base;
          Work += (MaxScalar - Scalar) * Count;
        }
        return std::vector<uint64_t>{Counts, Work};
      });
  {
    // The measure's behavior inputs: the rank structure, the weights, and
    // per action the symmetry masking pattern (which argument positions
    // read as 0). Action bodies are deliberately absent — the measure
    // never runs them, so cooperation verdicts survive body edits.
    FpHasher HM("measure-weighted-rank/v1");
    HM.boolean(ArgMajor);
    for (size_t I = 0; I < Order.size(); ++I)
      HM.u64(I).str(Order[I].str());
    HM.u64(Weights.size());
    for (const auto &[Name, W] : Weights) // std::map: name-sorted
      HM.str(Name).u64(W);
    for (Symbol A : Order) {
      const std::vector<ValueShape> *Shapes =
          ModuleSym ? ModuleSym->actionShapes(A) : nullptr;
      HM.boolean(Shapes != nullptr);
      if (!Shapes)
        continue;
      HM.u64(Shapes->size());
      for (const ValueShape &S : *Shapes)
        HM.boolean(S.kind() == ValueShape::Kind::Id);
    }
    App.WfMeasure.setFp(HM.finish());
  }
  return App;
}

VerifyResult driver::verifyModule(const VerifyOptions &Options) {
  VerifyResult Result;
  Timer Total;

  // 1. Compile the module.
  std::optional<asl::CompiledModule> Compiled = asl::frontend::compileSource(
      Options.Source, Options.SourcePath, Options.Consts, Options.Frontend,
      Result.Diags);
  if (!Compiled) {
    Result.TotalSeconds = Total.elapsed();
    Result.Summary = renderText(Result);
    return Result;
  }
  Result.CompileOk = true;

  // 2. Validate the request against the module.
  std::vector<asl::Diagnostic> InputDiags =
      validateRequest(Options, Compiled->P);
  if (!InputDiags.empty()) {
    Result.Diags.insert(Result.Diags.end(), InputDiags.begin(),
                        InputDiags.end());
    Result.TotalSeconds = Total.elapsed();
    Result.Summary = renderText(Result);
    return Result;
  }
  Result.InputOk = true;

  // 3. Derive the IS artifacts from the declared sequentialization order.
  ISApplication App = deriveApplication(Options, Compiled->P);

  // 4. Discharge the IS conditions. The universe is built explicitly so
  // its engine statistics can be surfaced in the summary. Every
  // exploration of the run records no parent links.
  engine::EngineOptions Explore;
  Explore.RecordParents = false;
  Explore.Config = Options.Engine;
  InitialCondition Init{Compiled->InitialStore, {}};
  ISUniverse Universe = ISUniverse::build(App, {Init}, Explore);
  Result.Engine.accumulate(Universe.Stats);
  ISCheckOptions CheckOpts;
  CheckOpts.Config = Options.Engine;
  // Obligation verdict cache: a shared one (isq-serve) is attached as-is
  // and persisted by its owner; otherwise the request gets its own,
  // disk-backed when --engine cache-dir= was given.
  std::optional<engine::ObligationCache> LocalCache;
  if (Options.Engine.Incremental) {
    if (Options.SharedCache) {
      CheckOpts.Cache = Options.SharedCache;
    } else {
      engine::ObligationCache::Options CacheOpts;
      CacheOpts.Dir = Options.Engine.CacheDir;
      LocalCache.emplace(std::move(CacheOpts));
      CheckOpts.Cache = &*LocalCache;
    }
  }
  ISCheckReport Report = checkIS(App, Universe, CheckOpts);
  Result.Report = Report;
  Result.Accepted = Report.ok();
  if (LocalCache && LocalCache->persistent()) {
    // A writeback failure degrades the next run to cold; it never affects
    // this run's verdict, so it surfaces as a warning, not an error.
    std::string SaveError;
    if (!LocalCache->save(SaveError))
      Result.Diags.push_back({"obligation cache not saved: " + SaveError, 0,
                              0, asl::Severity::Warning});
  }

  // 5. Cross-check the conclusion on the instance. P's side is the
  // summary of the universe's P leg; only P' is explored here, like the
  // universe's legs: on the interned engine, without parent links.
  if (Report.ok() && Options.CrossCheck) {
    Timer CrossTimer;
    const ProgramSummary &SP = Universe.PSummaries.front();
    Program PPrime = applyIS(App);
    ProgramSummary SPPrime = summarizeGraph(
        PPrime, engine::exploreGraph(
                    PPrime, {initialConfiguration(Init.Global, Init.MainArgs)},
                    nullptr, Explore));
    Result.Engine.accumulate(SPPrime.Engine);
    Result.CrossCheck.Ran = true;
    Result.CrossCheck.ConfigsP = SP.Engine.NumConfigurations;
    Result.CrossCheck.ConfigsPPrime = SPPrime.Engine.NumConfigurations;
    Result.CrossCheck.Refines =
        checkProgramRefinement(SP, SPPrime, Init.Global);
    Result.CrossCheck.Seconds = CrossTimer.elapsed();
    Result.Accepted = Result.Accepted && Result.CrossCheck.Refines.ok();
  }
  Result.TotalSeconds = Total.elapsed();
  Result.Summary = renderText(Result);
  return Result;
}
