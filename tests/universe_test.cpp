//===- tests/universe_test.cpp - The IS universe and its closure test ---===//
//
// ISUniverse::build explores P (on the symmetry quotient when reduction is
// on) and skips the P[M ↦ I] leg when every step of I from a call point
// of Reach(P) lands in Reach(P). These tests pin what the universe stands
// for against the value-level reference BFS:
//
//  - on every shipped example, with symmetry on and off, the orbit
//    expansion of the universe is Reach(P) ∪ Reach(P[M ↦ I]) and MCalls
//    is the set of M's call points there;
//  - an invariant with a step outside Reach(P) makes build explore the
//    leg, and the checkers agree with the serial reference loops on it;
//  - a truncated P never skips the leg;
//  - a symmetric module whose M carries a node ID: (I1)–(I3) see every
//    call point of an orbit, so their counts do not depend on symmetry.
//
//===----------------------------------------------------------------------===//

#include "ShippedExamples.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "semantics/Symmetry.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

namespace isq {
// Readable gtest failure messages for the value types compared below.
void PrintTo(const Configuration &C, std::ostream *OS) { *OS << C.str(); }
void PrintTo(const Store &G, std::ostream *OS) { *OS << G.str(); }
void PrintTo(const Value &V, std::ostream *OS) { *OS << V.str(); }
void PrintTo(const PaMultiset &Omega, std::ostream *OS) {
  *OS << toString(Omega);
}
} // namespace isq

using namespace isq;
using namespace isq::testing;

namespace {

/// A call point as values: store, M's arguments, Ω.
using ValueCall = std::tuple<Store, std::vector<Value>, PaMultiset>;

/// The configurations \p U stands for: every configuration of its space,
/// expanded to its whole orbit when the space holds representatives.
std::set<Configuration> orbitExpandedSpace(const Program &P,
                                           const ISUniverse &U) {
  const engine::StateArena &Arena = *U.Space.Arena;
  std::set<Configuration> Out;
  for (engine::ConfigId Cid : U.Space.Configs) {
    Configuration C = Arena.configuration(Cid);
    if (!U.Stats.SymmetryReduced) {
      Out.insert(C);
      continue;
    }
    const SymmetrySpec &Sym = *P.symmetry();
    for (size_t I = 0; I < Sym.numPermutations(); ++I)
      Out.insert(Sym.permuteConfiguration(C, Sym.perm(I)));
  }
  return Out;
}

std::set<ValueCall> valueCalls(const InternedContextUniverse &Calls) {
  const engine::StateArena &Arena = *Calls.Arena;
  std::set<ValueCall> Out;
  for (const InternedActionContext &Call : Calls.Items)
    Out.emplace(Arena.store(Call.Global), Arena.pa(Call.ArgsPa).Args,
                Arena.paSet(Call.Omega));
  return Out;
}

Program partialSequentialization(const ISApplication &App) {
  return App.P.withAction(App.Invariant.withName(App.M.str()));
}

/// Reach(P) ∪ Reach(P[M ↦ I]) from \p Init, by the reference BFS.
std::set<Configuration> referenceUniverse(const ISApplication &App,
                                          const Store &Init) {
  std::set<Configuration> Out;
  for (const Program &P : {App.P, partialSequentialization(App)})
    for (const Configuration &C :
         reference::exploreAll(P, {initialConfiguration(Init)}).Reachable)
      Out.insert(C);
  return Out;
}

std::set<ValueCall> referenceCalls(const std::set<Configuration> &Reach,
                                   Symbol M) {
  std::set<ValueCall> Out;
  for (const ActionContext &Ctx : collectContexts(
           std::vector<Configuration>(Reach.begin(), Reach.end()), M))
    Out.emplace(Ctx.Global, Ctx.Args, Ctx.Omega);
  return Out;
}

/// Whether build explored the P[M ↦ I] leg: its engine statistics then
/// count more configurations than P's exploration alone.
bool exploredLeg(const ISUniverse &U) {
  return U.Stats.NumConfigurations >
         U.PSummaries.front().Engine.NumConfigurations;
}

std::vector<std::string> withSymmetry(std::vector<std::string> Flags,
                                      bool Symmetry) {
  if (!Symmetry) {
    Flags.push_back("--engine");
    Flags.push_back("symmetry=false");
  }
  return Flags;
}

/// A module compiled from \p Options.Source with its IS application
/// derived from \p Options, as isq-verify derives it.
struct CompiledApp {
  asl::CompiledModule Compiled;
  ISApplication App;
};

CompiledApp compileApp(const driver::VerifyOptions &Options) {
  CompiledApp Out;
  std::vector<asl::Diagnostic> Diags;
  std::optional<asl::CompiledModule> Compiled = asl::frontend::compileSource(
      Options.Source, "", Options.Consts, Options.Frontend, Diags);
  EXPECT_TRUE(Compiled) << (Diags.empty() ? "" : Diags[0].str());
  if (!Compiled)
    return Out;
  Out.Compiled = std::move(*Compiled);
  Out.App = driver::deriveApplication(Options, Out.Compiled.P);
  return Out;
}

ISUniverse buildUniverse(const CompiledApp &C, ExploreOptions Explore) {
  return ISUniverse::build(C.App, {{C.Compiled.InitialStore, {}}}, Explore);
}

} // namespace

TEST(ISUniverseTest, SpaceAndCallsMatchReferenceOnShippedExamples) {
  for (const std::string &File : shippedExampleFiles()) {
    for (bool Symmetry : {true, false}) {
      SCOPED_TRACE(File + (Symmetry ? " symmetry=true" : " symmetry=false"));
      ShippedExample Ex = loadShippedExample(
          File, withSymmetry(documentedFlags(File), Symmetry));
      ASSERT_TRUE(Ex.Universe.Space.Arena);
      const ISUniverse &U = Ex.Universe;
      std::set<Configuration> Reach =
          referenceUniverse(Ex.App, Ex.Compiled.InitialStore);
      EXPECT_EQ(orbitExpandedSpace(Ex.App.P, U), Reach);
      std::set<ValueCall> Calls = valueCalls(U.MCalls);
      EXPECT_EQ(Calls.size(), U.MCalls.Items.size()) << "duplicate call points";
      EXPECT_EQ(Calls, referenceCalls(Reach, Ex.App.M));
      // Every shipped invariant stays inside P: the universe is P's alone.
      EXPECT_FALSE(exploredLeg(U));
      EXPECT_EQ(U.Space.Configs.size(),
                U.PSummaries.front().Engine.NumConfigurations);
    }
  }
}

TEST(ISUniverseTest, InvariantLeavingPExploresTheLeg) {
  ShippedExample Ex =
      loadShippedExample("ping_pong.asl", documentedFlags("ping_pong.asl"));
  ISApplication App = Ex.App;
  // Every step of the derived invariant plus one into a store P never
  // reaches: `done` only ever counts up to one.
  Symbol Done = Symbol::get("done");
  const Action &Derived = Ex.App.Invariant;
  App.Invariant = Action(
      Derived.name().str(), Derived.arity(),
      [Derived](const GateContext &Ctx) {
        return Derived.evalGate(Ctx.Global, Ctx.Args, Ctx.Omega);
      },
      [Derived, Done](const Store &G, const std::vector<Value> &Args) {
        std::vector<Transition> Trans = Derived.transitions(G, Args);
        Trans.emplace_back(G.set(Done, Value::integer(7)));
        return Trans;
      },
      Derived.gateReadsOmega());
  Configuration Escaped(Ex.Compiled.InitialStore.set(Done, Value::integer(7)),
                        PaMultiset());

  ISUniverse U = ISUniverse::build(App, {{Ex.Compiled.InitialStore, {}}});
  EXPECT_TRUE(exploredLeg(U));
  std::set<Configuration> Space = orbitExpandedSpace(App.P, U);
  EXPECT_TRUE(Space.count(Escaped)) << Escaped.str();
  EXPECT_EQ(Space, referenceUniverse(App, Ex.Compiled.InitialStore));
  EXPECT_EQ(valueCalls(U.MCalls), referenceCalls(Space, App.M));

  ISCheckReport Scheduled = checkIS(App, U);
  ISCheckReport Serial = reference::checkIS(App, U);
  EXPECT_EQ(Scheduled.ok(), Serial.ok());
  EXPECT_EQ(Scheduled.str(), Serial.str());
}

TEST(ISUniverseTest, TruncatedPNeverSkipsTheLeg) {
  // M = Work runs once, at the start; Tail only runs after Ack, so every
  // step of I lands among P's first few nodes. Capped at five nodes, P is
  // truncated, yet each successor of its one call point is explored: only
  // the truncation itself tells build that Reach(P) may hide call points.
  driver::VerifyOptions Options;
  Options.Source = R"(
var x: int := 0;
var y: int := 0;

action Main() {
  async Work();
  async Tail(0);
}

action Work() {
  x := 1;
  async Ack();
}

action Ack() {
  x := 2;
}

action Tail(k: int) {
  await x == 2;
  if k < 4 {
    y := y + 1;
    async Tail(k + 1);
  }
}
)";
  Options.RewriteAction = "Work";
  Options.Eliminate = {"Ack"};
  CompiledApp C = compileApp(Options);
  ExploreOptions Small;
  Small.MaxConfigurations = 5;
  ISUniverse U = buildUniverse(C, Small);
  ASSERT_TRUE(U.PSummaries.front().Engine.Truncated);
  ASSERT_EQ(U.MCalls.Items.size(), 1u);
  EXPECT_TRUE(exploredLeg(U));
  // The complete exploration of the same instance skips it.
  ISUniverse Full = buildUniverse(C, ExploreOptions());
  ASSERT_FALSE(Full.PSummaries.front().Engine.Truncated);
  EXPECT_FALSE(exploredLeg(Full));
}

namespace {

/// Every node starts one worker, M = Work carries the node's ID, and each
/// worker acknowledges once (E = {Ack}). Start(1) alone having run is
/// an orbit of three configurations, so M's call points form non-trivial
/// orbits, of which a reduced exploration sees one representative each.
const char *const WorkersModule = R"(
param n: int := 3;
symmetric node: 1 .. n;

var done: map<node, bool> := map i in 1 .. n : false;
var acks: int := 0;

action Main() {
  for i in 1 .. n {
    async Start(i);
  }
}

action Start(i: node) {
  async Work(i);
}

action Work(i: node) {
  done[i] := true;
  async Ack(i);
}

action Ack(i: node) {
  acks := acks + 1;
}
)";

driver::VerifyOptions workersOptions(bool Symmetry, unsigned Threads) {
  driver::VerifyOptions Options;
  Options.Source = WorkersModule;
  Options.RewriteAction = "Work";
  Options.Eliminate = {"Ack"};
  Options.Engine.Symmetry = Symmetry;
  Options.Engine.NumThreads = Threads;
  return Options;
}

} // namespace

TEST(ISUniverseTest, CallPointOrbitsKeepI1ToI3Counts) {
  // The universe itself: a reduced run expands the call points at its
  // representatives to the unreduced run's call points.
  std::set<ValueCall> CallsBy[2];
  for (bool Symmetry : {true, false}) {
    driver::VerifyOptions Options = workersOptions(Symmetry, 1);
    CompiledApp C = compileApp(Options);
    ExploreOptions Explore;
    Explore.Config = Options.Engine;
    ISUniverse U = buildUniverse(C, Explore);
    ASSERT_EQ(U.Stats.SymmetryReduced, Symmetry);
    EXPECT_FALSE(exploredLeg(U));
    size_t AtNodes = collectContexts(U.Space, C.App.M).Items.size();
    if (Symmetry)
      EXPECT_GT(U.MCalls.Items.size(), AtNodes);
    else
      EXPECT_EQ(U.MCalls.Items.size(), AtNodes);
    CallsBy[Symmetry] = valueCalls(U.MCalls);
  }
  EXPECT_EQ(CallsBy[true], CallsBy[false]);

  // End to end: the M-call conditions count the same obligations.
  driver::VerifyResult Baseline =
      driver::verifyModule(workersOptions(false, 1));
  ASSERT_TRUE(Baseline.Accepted) << Baseline.Summary;
  ASSERT_GT(Baseline.Report.InductiveStep.obligations(), 0u);
  for (bool Symmetry : {true, false}) {
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(Symmetry ? "sym" : "nosym") + "/t" +
                   std::to_string(Threads));
      driver::VerifyResult R =
          driver::verifyModule(workersOptions(Symmetry, Threads));
      EXPECT_EQ(R.Accepted, Baseline.Accepted);
      EXPECT_EQ(R.Engine.SymmetryReduced, Symmetry);
      EXPECT_EQ(R.Report.BaseCase.obligations(),
                Baseline.Report.BaseCase.obligations());
      EXPECT_EQ(R.Report.Conclusion.obligations(),
                Baseline.Report.Conclusion.obligations());
      EXPECT_EQ(R.Report.InductiveStep.obligations(),
                Baseline.Report.InductiveStep.obligations());
      EXPECT_EQ(R.Report.SideConditions.obligations(),
                Baseline.Report.SideConditions.obligations());
    }
  }
}
