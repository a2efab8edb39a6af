//===- tests/frontend_v2_test.cpp - staged frontend differential tests --------------===//
///
/// \file
/// The staged frontend's acceptance surface: every shipped example must
/// compile and verify, the HIR optimizer must be idempotent, the printer
/// must round-trip every example, module resolution must merge diamonds
/// exactly once, parameters must obey the default/override/derived rules,
/// and the ASL protocol ports must match their native-program twins in
/// src/protocols/ — the frontend's independent oracle.
///
//===----------------------------------------------------------------------===//

#include "driver/ReportRender.h"
#include "driver/VerifyDriver.h"
#include "lang/Binder.h"
#include "lang/Frontend.h"
#include "lang/HirBuilder.h"
#include "lang/HirOptimizer.h"
#include "lang/ModuleResolver.h"
#include "lang/TypeCheck.h"
#include "protocols/Broadcast.h"
#include "protocols/ChangRoberts.h"
#include "protocols/Paxos.h"
#include "protocols/PingPong.h"
#include "protocols/ProducerConsumer.h"
#include "protocols/TwoPhaseCommit.h"
#include "reference/Explorer.h"
#include "reference/ISCheck.h"
#include "reference/Printer.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace isq;
using namespace isq::asl;
using namespace isq::driver;

namespace {

std::string examplePath(const std::string &Name) {
  return std::string(ISQ_SOURCE_DIR) + "/examples/asl/" + Name;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing file " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::string scrubTimings(const std::string &Json) {
  return json::zeroNumbers(Json, {"*seconds"});
}

/// With more than one worker thread the cache telemetry (hash-cons and
/// canonicalization hit counts) and the frontier's steal count depend
/// on thread interleaving; the verdict, obligations and state counts do
/// not. Multithreaded comparisons zero the telemetry, single-threaded
/// ones stay strict.
std::string scrubSchedulingCounters(const std::string &Json) {
  return json::zeroNumbers(
      Json, {"hash_cons_lookups", "hash_cons_hits", "transition_cache_lookups",
             "transition_cache_hits", "canon_calls", "canon_cache_hits",
             "steals"});
}

/// One example with its documented proof artifacts (the "Verify with:"
/// header), at the smallest instance that exercises the proof.
struct ExampleJob {
  const char *File;
  std::map<std::string, int64_t> Consts;
  std::vector<std::string> Eliminate;
  std::map<std::string, std::string> Abstractions;
  std::map<std::string, uint64_t> Weights;
  bool ArgMajor = false;
};

std::vector<ExampleJob> exampleJobs() {
  return {
      {"ping_pong.asl",
       {{"T", 3}},
       {"Ping", "Pong"},
       {{"Ping", "PingAbs"}, {"Pong", "PongAbs"}},
       {},
       /*ArgMajor=*/true},
      {"broadcast.asl",
       {{"n", 2}},
       {"Broadcast", "Collect"},
       {{"Collect", "CollectAbs"}},
       {},
       /*ArgMajor=*/false},
      {"two_phase_commit.asl",
       {{"n", 2}},
       {"RequestVotes", "Vote", "Decide", "Finalize"},
       {{"Decide", "DecideAbs"}},
       {{"RequestVotes", 8}, {"Decide", 4}},
       /*ArgMajor=*/false},
      // paxos runs at its param defaults (R=2, N=2): no bindings at all.
      {"paxos.asl",
       {},
       {"StartRound", "Join", "Propose", "Vote", "Conclude"},
       {{"Join", "JoinAbs"},
        {"Propose", "ProposeAbs"},
        {"Vote", "VoteAbs"},
        {"Conclude", "ConcludeAbs"}},
       {{"StartRound", 9}, {"Propose", 5}, {"Conclude", 2}},
       /*ArgMajor=*/true},
      {"producer_consumer.asl",
       {{"T", 3}},
       {"Producer", "Consumer"},
       {{"Consumer", "ConsumerAbs"}},
       {},
       /*ArgMajor=*/true},
      {"chang_roberts.asl",
       {{"n", 3}},
       {"Init", "Handle"},
       {},
       {{"Init", 2}},
       /*ArgMajor=*/true},
  };
}

VerifyOptions optionsFor(const ExampleJob &Job) {
  VerifyOptions Options;
  Options.Source = readFile(examplePath(Job.File));
  Options.SourcePath = examplePath(Job.File); // imports resolve from here
  Options.Consts = Job.Consts;
  Options.Eliminate = Job.Eliminate;
  Options.Abstractions = Job.Abstractions;
  Options.Weights = Job.Weights;
  if (Job.ArgMajor)
    Options.Order = VerifyOptions::RankOrder::ArgMajor;
  return Options;
}

/// Compiles \p Job's example, failing the test on any diagnostic.
CompiledModule compileExample(const ExampleJob &Job) {
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      readFile(examplePath(Job.File)), examplePath(Job.File), Job.Consts,
      frontend::FrontendVersion::V2, Diags);
  EXPECT_TRUE(C.has_value())
      << Job.File << ": " << (Diags.empty() ? "" : Diags[0].str());
  return C ? std::move(*C) : CompiledModule();
}

/// The instantiated (pre-optimizer) HIR of \p Job's example.
hir::Module buildExampleHir(const ExampleJob &Job) {
  SourceManager SM;
  std::vector<Diagnostic> Diags;
  std::optional<Module> M =
      resolveModules(readFile(examplePath(Job.File)), examplePath(Job.File),
                     diskLoader(), SM, Diags);
  EXPECT_TRUE(M.has_value()) << Job.File;
  SymbolTable Syms;
  EXPECT_TRUE(bindModule(*M, Syms, Diags)) << Job.File;
  EXPECT_TRUE(typeCheck(*M, Diags)) << Job.File;
  std::map<std::string, int64_t> Resolved;
  EXPECT_TRUE(resolveConstBindings(*M, Job.Consts, Resolved, Diags))
      << Job.File;
  hir::Module H = buildHir(*M, Syms);
  instantiate(H, Resolved);
  return H;
}

/// The ASL port in \p File, compiled at \p Consts, against its native
/// twin: the same state-space size, failure verdict and terminal-store
/// set. The ports name some state differently and the natives carry
/// their instance size in the store, so terminal stores are compared on
/// \p SharedVars, over the full (orbit-expanded) terminal set — the two
/// sides may pick different orbit representatives. Transition counts are
/// compared only when \p SameTransitions.
void expectAslMatchesNative(const Program &Native, const Store &NativeInit,
                            const char *File,
                            const std::map<std::string, int64_t> &Consts,
                            const std::vector<const char *> &SharedVars,
                            bool SameTransitions) {
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      readFile(examplePath(File)), examplePath(File), Consts,
      frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C.has_value())
      << File << ": " << (Diags.empty() ? "" : Diags[0].str());
  ExploreResult NativeR =
      explore(Native, initialConfiguration(NativeInit));
  ExploreResult AslR = explore(C->P, initialConfiguration(C->InitialStore));
  EXPECT_EQ(NativeR.Stats.NumConfigurations, AslR.Stats.NumConfigurations)
      << File;
  EXPECT_FALSE(NativeR.FailureReachable) << File;
  EXPECT_EQ(NativeR.FailureReachable, AslR.FailureReachable) << File;
  EXPECT_EQ(NativeR.TerminalStores.size(), AslR.TerminalStores.size())
      << File;
  if (SameTransitions) {
    EXPECT_EQ(NativeR.Stats.NumTransitions, AslR.Stats.NumTransitions)
        << File;
  }

  auto Terminals = [&](const Program &P, const Store &Init) {
    std::vector<std::string> Rows;
    for (const Store &S : summarize(P, Init).Trans) {
      std::string Row;
      for (const char *Var : SharedVars)
        Row += std::string(Var) + " = " + S.get(Var).str() + "; ";
      Rows.push_back(std::move(Row));
    }
    std::sort(Rows.begin(), Rows.end());
    return Rows;
  };
  std::vector<std::string> NativeRows = Terminals(Native, NativeInit);
  EXPECT_FALSE(NativeRows.empty()) << File;
  EXPECT_EQ(NativeRows, Terminals(C->P, C->InitialStore)) << File;
}

const std::vector<const char *> AllExampleFiles = {
    "broadcast.asl",         "chang_roberts.asl", "lib/ring.asl",
    "paxos.asl",             "ping_pong.asl",     "producer_consumer.asl",
    "two_phase_commit.asl"};

} // namespace

// --- The example corpus ---------------------------------------------------

TEST(FrontendV2Test, EveryExampleVerdictAccepted) {
  for (const ExampleJob &Job : exampleJobs()) {
    VerifyResult V = verifyModule(optionsFor(Job));
    EXPECT_TRUE(V.Accepted) << Job.File << ": " << V.Summary;
    EXPECT_TRUE(V.Diags.empty()) << Job.File;
  }
}

// --- HIR optimizer --------------------------------------------------------

TEST(FrontendV2Test, HirOptimizerIsIdempotentOnEveryExample) {
  for (const ExampleJob &Job : exampleJobs()) {
    hir::Module H = buildExampleHir(Job);
    optimizeHir(H);
    std::string Once = hir::print(H);
    optimizeHir(H);
    EXPECT_EQ(Once, hir::print(H))
        << Job.File << ": optimize is not a fixpoint";
  }
}

// --- Printer round-trip ---------------------------------------------------

TEST(FrontendV2Test, PrinterRoundTripsEveryExample) {
  // parse(print(parse(f))) == parse(f), compared via the printer itself:
  // printing the reparsed module must reproduce the first print exactly.
  for (const char *Name : AllExampleFiles) {
    std::vector<Diagnostic> Diags;
    std::optional<Module> First =
        parseModule(readFile(examplePath(Name)), Diags);
    ASSERT_TRUE(First.has_value()) << Name;
    std::string Printed = printModule(*First);
    std::optional<Module> Second = parseModule(Printed, Diags);
    ASSERT_TRUE(Second.has_value())
        << Name << ": printed form does not reparse:\n" << Printed;
    EXPECT_EQ(Printed, printModule(*Second)) << Name;
  }
}

// --- Parametric protocols -------------------------------------------------

TEST(FrontendV2Test, ParamDefaultsOverridesAndDerivedConsts) {
  const char *Source = "param n: int := 2;\n"
                       "const m: int := n * 3;\n"
                       "var x: int := m;\n"
                       "action Main() { skip; }\n";
  const auto V2 = frontend::FrontendVersion::V2;
  std::vector<Diagnostic> Diags;
  // Default: n = 2, so the derived m = 6.
  auto Defaulted = frontend::compileSource(Source, "", {}, V2, Diags);
  ASSERT_TRUE(Defaulted.has_value());
  EXPECT_EQ(Defaulted->InitialStore.get("x").getInt(), 6);
  // Override: --const n=5.
  auto Overridden = frontend::compileSource(Source, "", {{"n", 5}}, V2, Diags);
  ASSERT_TRUE(Overridden.has_value());
  EXPECT_EQ(Overridden->InitialStore.get("x").getInt(), 15);
  // Derived constants are not externally bindable.
  Diags.clear();
  auto BoundDerived =
      frontend::compileSource(Source, "", {{"m", 9}}, V2, Diags);
  EXPECT_FALSE(BoundDerived.has_value());
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Message.find("derived"), std::string::npos)
      << Diags[0].Message;
  // A defaultless param requires a binding.
  Diags.clear();
  auto Unbound = frontend::compileSource(
      "param n: int;\nvar x: int := n;\naction Main() { skip; }\n", "", {},
      V2, Diags);
  EXPECT_FALSE(Unbound.has_value());
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Message.find("no binding"), std::string::npos)
      << Diags[0].Message;
}

TEST(FrontendV2Test, PaxosParamInstancesBitIdenticalAcrossThreads) {
  // The acceptance criterion for parametric protocols: one paxos.asl,
  // instantiated at two sizes via bindings, verifies, with verdicts
  // bit-identical for every thread count.
  ExampleJob Paxos = exampleJobs()[3];
  ASSERT_STREQ(Paxos.File, "paxos.asl");
  // The engine and the scheduler echo their thread budget; nothing else
  // in the report may depend on it.
  std::string Serial;
  for (unsigned Threads : {1u, 2u}) {
    VerifyOptions O = optionsFor(Paxos);
    O.Consts = {{"R", 2}, {"N", 2}};
    O.Engine.NumThreads = Threads;
    VerifyResult V = verifyModule(O);
    EXPECT_TRUE(V.Accepted) << V.Summary;
    std::string Json = json::zeroNumbers(
        scrubSchedulingCounters(scrubTimings(renderJson(V))), {"threads"});
    if (Threads == 1) {
      Serial = Json;
    } else {
      EXPECT_EQ(Serial, Json) << "N=2, threads " << Threads;
    }
  }
  // N=3 needs the larger cooperation weights from the example header; the
  // IS check dominates the runtime, so the instance cross-check is
  // skipped and only one thread count is exercised.
  VerifyOptions O = optionsFor(Paxos);
  O.Consts = {{"R", 2}, {"N", 3}};
  O.Weights = {{"StartRound", 11}, {"Propose", 6}, {"Conclude", 2}};
  O.CrossCheck = false;
  O.Engine.NumThreads = 2;
  VerifyResult V = verifyModule(O);
  EXPECT_TRUE(V.Accepted) << V.Summary;
}

// --- Module resolution ----------------------------------------------------

TEST(FrontendV2Test, DiamondImportMergesBaseExactlyOnce) {
  std::string Dir = std::string(ISQ_SOURCE_DIR) + "/tests/asl_imports/";
  std::vector<Diagnostic> Diags;
  auto C = frontend::compileSource(readFile(Dir + "diamond_main.asl"),
                                   Dir + "diamond_main.asl", {},
                                   frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  // Were the base merged twice, its variable would be a diagnosed
  // duplicate and the sum below would see a stale initializer.
  EXPECT_EQ(C->InitialStore.get("base").getInt(), 1);
  EXPECT_EQ(C->InitialStore.get("total").getInt(), 3);
}

// --- Native-vs-ASL protocol differentials ---------------------------------

TEST(FrontendV2Test, ChangRobertsAslMatchesNative) {
  protocols::ChangRobertsParams Params; // 3 nodes, identity IDs
  ISApplication Native = protocols::makeChangRobertsOneShotIS(Params);
  Store NativeInit = protocols::makeChangRobertsInitialStore(Params);
  EXPECT_TRUE(checkIS(Native, {{NativeInit, {}}}).ok());

  ExampleJob Job = exampleJobs()[5];
  ASSERT_STREQ(Job.File, "chang_roberts.asl");
  VerifyResult Asl = verifyModule(optionsFor(Job));
  EXPECT_TRUE(Asl.Accepted) << Asl.Summary;

  // Same state space (modulo the native store's constant-valued n) and
  // the same unique final outcome: only node n leads.
  CompiledModule C = compileExample(Job);
  ExploreResult NativeR =
      explore(Native.P, initialConfiguration(NativeInit));
  ExploreResult AslR = explore(C.P, initialConfiguration(C.InitialStore));
  EXPECT_FALSE(NativeR.FailureReachable);
  EXPECT_FALSE(AslR.FailureReachable);
  EXPECT_EQ(NativeR.Stats.NumConfigurations, AslR.Stats.NumConfigurations);
  EXPECT_EQ(NativeR.Stats.NumTransitions, AslR.Stats.NumTransitions);
  ASSERT_EQ(NativeR.TerminalStores.size(), 1u);
  ASSERT_EQ(AslR.TerminalStores.size(), 1u);
  EXPECT_TRUE(
      protocols::checkChangRobertsSpec(NativeR.TerminalStores[0], Params));
  EXPECT_EQ(NativeR.TerminalStores[0].get("leader").str(),
            AslR.TerminalStores[0].get("leader").str());
  EXPECT_EQ(NativeR.TerminalStores[0].get("id").str(),
            AslR.TerminalStores[0].get("id").str());
}

TEST(FrontendV2Test, ProducerConsumerAslMatchesNative) {
  protocols::ProducerConsumerParams Params; // 3 items
  ISApplication Native = protocols::makeProducerConsumerIS(Params);
  Store NativeInit = protocols::makeProducerConsumerInitialStore(Params);
  EXPECT_TRUE(checkIS(Native, {{NativeInit, {}}}).ok());

  ExampleJob Job = exampleJobs()[4];
  ASSERT_STREQ(Job.File, "producer_consumer.asl");
  VerifyResult Asl = verifyModule(optionsFor(Job));
  EXPECT_TRUE(Asl.Accepted) << Asl.Summary;

  CompiledModule C = compileExample(Job);
  ExploreResult NativeR =
      explore(Native.P, initialConfiguration(NativeInit));
  ExploreResult AslR = explore(C.P, initialConfiguration(C.InitialStore));
  EXPECT_FALSE(NativeR.FailureReachable);
  EXPECT_FALSE(AslR.FailureReachable);
  EXPECT_EQ(NativeR.Stats.NumConfigurations, AslR.Stats.NumConfigurations);
  EXPECT_EQ(NativeR.Stats.NumTransitions, AslR.Stats.NumTransitions);
  ASSERT_EQ(NativeR.TerminalStores.size(), 1u);
  ASSERT_EQ(AslR.TerminalStores.size(), 1u);
  EXPECT_TRUE(protocols::checkProducerConsumerSpec(NativeR.TerminalStores[0],
                                                   Params));
  for (const char *Var : {"queue", "produced", "consumed"})
    EXPECT_EQ(NativeR.TerminalStores[0].get(Var).str(),
              AslR.TerminalStores[0].get(Var).str())
        << Var;
}

TEST(FrontendV2Test, PingPongAslMatchesNative) {
  protocols::PingPongParams Params; // T = 3
  // The native counts rounds in pingAcked/pongSeen, the port in done.
  expectAslMatchesNative(protocols::makePingPongProgram(Params),
                         protocols::makePingPongInitialStore(Params),
                         "ping_pong.asl", {{"T", 3}}, {"chPing", "chPong"},
                         /*SameTransitions=*/true);
}

TEST(FrontendV2Test, BroadcastAslMatchesNative) {
  protocols::BroadcastParams Params; // n = 3, value i at node i
  expectAslMatchesNative(protocols::makeBroadcastProgram(Params),
                         protocols::makeBroadcastInitialStore(Params),
                         "broadcast.asl", {{"n", 3}},
                         {"value", "decision", "CH"},
                         /*SameTransitions=*/true);
}

TEST(FrontendV2Test, TwoPhaseCommitAslMatchesNative) {
  protocols::TwoPhaseCommitParams Params; // n = 3
  // The native's vote channel is the port's yesVotes/noVotes pair.
  expectAslMatchesNative(protocols::makeTwoPhaseCommitProgram(Params),
                         protocols::makeTwoPhaseCommitInitialStore(Params),
                         "two_phase_commit.asl", {{"n", 3}},
                         {"decision", "reqCh", "decCh", "voted", "finalized"},
                         /*SameTransitions=*/true);
}

TEST(FrontendV2Test, PaxosAslMatchesNative) {
  protocols::PaxosParams Params;
  Params.NumRounds = 2;
  Params.NumNodes = 2;
  // Transition counts differ (2637 native, 3945 ASL) while the
  // configurations do not: an ASL action yields one transition per
  // control path, so Join/Vote/Conclude's `choose deliver in coin` gives
  // two identical stuttering steps where the native gives one, and
  // Propose yields one step per quorum subset where the native keeps
  // each distinct proposal once. The native's voteInfo is the port's
  // voteValue/voteNodes pair.
  expectAslMatchesNative(protocols::makePaxosProgram(Params),
                         protocols::makePaxosInitialStore(Params),
                         "paxos.asl", {{"R", 2}, {"N", 2}},
                         {"decision", "lastJoined", "joinedNodes"},
                         /*SameTransitions=*/false);
}
