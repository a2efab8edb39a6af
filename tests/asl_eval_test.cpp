//===- tests/asl_eval_test.cpp - ASL (HIR) evaluator/compiler tests --------------===//

#include "ShippedExamples.h"
#include "lang/Frontend.h"
#include "lang/HirEval.h"
#include "reference/Explorer.h"

#include <gtest/gtest.h>

#include <map>

using namespace isq;
using namespace isq::asl;

namespace {

CompiledModule compileOk(const std::string &Source,
                         std::map<std::string, int64_t> Consts = {}) {
  std::vector<Diagnostic> Diags;
  auto Compiled = frontend::compileSource(
      Source, "", Consts, frontend::FrontendVersion::V2, Diags);
  EXPECT_TRUE(Compiled.has_value())
      << (Diags.empty() ? "" : Diags[0].str());
  return Compiled ? std::move(*Compiled) : CompiledModule();
}

const hir::Action *hirAction(const CompiledModule &C, const std::string &Name) {
  for (const hir::Action &A : C.Hir->Actions)
    if (A.Name == Name)
      return &A;
  return nullptr;
}

/// Decides \p Decl's gate at (\p G, \p Args, \p Omega) with the
/// gate-only evaluator and checks it against the reference: the body
/// runner's CanFail.
bool gateVsReference(const CompiledModule &C, const hir::Action &Decl,
                     const Store &G, const std::vector<Value> &Args,
                     const PaMultiset &Omega) {
  HirEnv Env;
  Env.Slots.assign(Decl.NumSlots, Value::unit());
  for (size_t I = 0; I < Decl.Params.size(); ++I)
    Env.Slots[Decl.Params[I].Slot] = Args[I];
  Env.Types = &C.Hir->Types;
  Env.Pending = &Omega;
  bool Gate = runHirGate(Decl.Body, G, Env);
  EXPECT_EQ(Gate, !runHirBody(Decl.Body, G, Env).CanFail)
      << Decl.Name << " at " << G.str();
  return Gate;
}

/// The gate of \p Name at \p G: the compiled action's, checked against
/// the reference evaluator.
bool gateAt(const CompiledModule &C, const std::string &Name, const Store &G,
            const std::vector<Value> &Args = {},
            const PaMultiset &Omega = PaMultiset()) {
  const hir::Action *Decl = hirAction(C, Name);
  EXPECT_NE(Decl, nullptr) << Name;
  bool Gate = C.P.action(Name).evalGate(G, Args, Omega);
  if (Decl) {
    EXPECT_EQ(Gate, gateVsReference(C, *Decl, G, Args, Omega)) << Name;
  }
  return Gate;
}

} // namespace

TEST(AslEvalTest, InitialStoreFromInitializers) {
  CompiledModule C = compileOk("const n: int;\n"
                               "var x: int := n * 2;\n"
                               "var m: map<int, int> := map i in 1 .. n : "
                               "i + x;\n",
                               {{"n", 3}});
  EXPECT_EQ(C.InitialStore.get("x").getInt(), 6);
  EXPECT_EQ(C.InitialStore.get("m").mapAt(Value::integer(2)).getInt(), 8);
}

TEST(AslEvalTest, LaterInitializersSeeEarlierVars) {
  CompiledModule C =
      compileOk("var a: int := 5;\nvar b: int := a + 1;\n");
  EXPECT_EQ(C.InitialStore.get("b").getInt(), 6);
}

TEST(AslEvalTest, DeterministicActionTransition) {
  CompiledModule C = compileOk("var x: int := 0;\n"
                               "action Main() { x := x + 1; }\n");
  const Action &A = C.P.action("Main");
  auto Ts = A.transitions(C.InitialStore, {});
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Global.get("x").getInt(), 1);
}

TEST(AslEvalTest, AssertBecomesGate) {
  CompiledModule C = compileOk("var x: int := 0;\n"
                               "action Main() { assert x == 0; }\n");
  const Action &A = C.P.action("Main");
  EXPECT_TRUE(A.evalGate(C.InitialStore, {}, PaMultiset()));
  Store Bad = C.InitialStore.set("x", Value::integer(1));
  EXPECT_FALSE(A.evalGate(Bad, {}, PaMultiset()));
}

TEST(AslEvalTest, AwaitBlocksTransitions) {
  CompiledModule C = compileOk("var x: int := 0;\n"
                               "action Main() { await x > 0; x := 0; }\n");
  const Action &A = C.P.action("Main");
  EXPECT_TRUE(A.transitions(C.InitialStore, {}).empty()) << "blocked";
  EXPECT_TRUE(A.evalGate(C.InitialStore, {}, PaMultiset()))
      << "blocked is not failed";
  Store Ready = C.InitialStore.set("x", Value::integer(1));
  EXPECT_EQ(A.transitions(Ready, {}).size(), 1u);
}

TEST(AslEvalTest, ChooseBranchesTransitions) {
  CompiledModule C =
      compileOk("var s: set<int> := insert(insert({}, 1), 2);\n"
                "var x: int := 0;\n"
                "action Main() { choose e in s; x := e; }\n");
  auto Ts = C.P.action("Main").transitions(C.InitialStore, {});
  ASSERT_EQ(Ts.size(), 2u);
}

TEST(AslEvalTest, AsyncCreatesPendingAsyncs) {
  CompiledModule C = compileOk("const n: int;\n"
                               "action Main() {\n"
                               "  for i in 1 .. n { async Work(i); }\n"
                               "}\n"
                               "action Work(i: int) { skip; }\n",
                               {{"n", 3}});
  auto Ts = C.P.action("Main").transitions(C.InitialStore, {});
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Created.size(), 3u);
  EXPECT_EQ(Ts[0].Created[0].Action.str(), "Work");
}

TEST(AslEvalTest, IfElseBothBranches) {
  CompiledModule C = compileOk(
      "var x: int := 0;\n"
      "action Main(i: int) { if i > 0 { x := 1; } else { x := 2; } }\n");
  auto T1 = C.P.action("Main").transitions(C.InitialStore,
                                           {Value::integer(5)});
  EXPECT_EQ(T1[0].Global.get("x").getInt(), 1);
  auto T2 = C.P.action("Main").transitions(C.InitialStore,
                                           {Value::integer(-5)});
  EXPECT_EQ(T2[0].Global.get("x").getInt(), 2);
}

TEST(AslEvalTest, NestedMapAssignment) {
  CompiledModule C = compileOk(
      "var m: map<int, map<int, int>> := map i in 1 .. 2 : map j in 1 .. 2 "
      ": 0;\n"
      "action Main() { m[1][2] := 9; }\n");
  auto Ts = C.P.action("Main").transitions(C.InitialStore, {});
  EXPECT_EQ(Ts[0]
                .Global.get("m")
                .mapAt(Value::integer(1))
                .mapAt(Value::integer(2))
                .getInt(),
            9);
  EXPECT_EQ(Ts[0]
                .Global.get("m")
                .mapAt(Value::integer(2))
                .mapAt(Value::integer(2))
                .getInt(),
            0)
      << "sibling entries untouched";
}

TEST(AslEvalTest, AssertInsideChooseOnlyFailsReachedPaths) {
  // The gate is false iff SOME path fails: with a choose, one bad element
  // suffices.
  CompiledModule C =
      compileOk("var s: set<int> := insert(insert({}, 1), 2);\n"
                "action Main() { choose e in s; assert e != 2; }\n");
  EXPECT_FALSE(
      C.P.action("Main").evalGate(C.InitialStore, {}, PaMultiset()));
  // Failing paths contribute no transitions; the good path remains.
  auto Ts = C.P.action("Main").transitions(C.InitialStore, {});
  EXPECT_EQ(Ts.size(), 1u);
}

TEST(AslEvalTest, BagOperationsEndToEnd) {
  CompiledModule C = compileOk(
      "var b: bag<int> := insert(insert(insert({}, 5), 5), 7);\n"
      "var x: int := 0;\n"
      "action Main() {\n"
      "  assert size(b) == 3;\n"
      "  assert contains(b, 5);\n"
      "  b := erase(b, 5);\n"
      "  assert size(b) == 2;\n"
      "  x := max(b);\n"
      "}\n");
  auto Ts = C.P.action("Main").transitions(C.InitialStore, {});
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Global.get("x").getInt(), 7);
}

TEST(AslEvalTest, MissingConstBindingDiagnosed) {
  std::vector<Diagnostic> Diags;
  auto C = frontend::compileSource("const n: int;\n", "", {},
                                   frontend::FrontendVersion::V2, Diags);
  EXPECT_FALSE(C.has_value());
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Message.find("no binding"), std::string::npos);
}

TEST(AslEvalTest, ExtraConstBindingDiagnosed) {
  std::vector<Diagnostic> Diags;
  auto C = frontend::compileSource("var x: int := 0;\n", "", {{"n", 3}},
                                   frontend::FrontendVersion::V2, Diags);
  EXPECT_FALSE(C.has_value());
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Message.find("undeclared constant"),
            std::string::npos);
}

TEST(AslEvalTest, SubsetsEnumeratesThePowerSet) {
  CompiledModule C = compileOk(
      "var s: set<int> := insert(insert({}, 1), 2);\n"
      "var c: int := 0;\n"
      "action Main() { c := size(subsets(s)); }\n");
  auto Ts = C.P.action("Main").transitions(C.InitialStore, {});
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Global.get("c").getInt(), 4) << "2^2 subsets";
}

TEST(AslEvalTest, PendingLeFiltersByFirstArgument) {
  const char *Source = R"(
var ok: int := 0;
action Main() { async W(1, 5); async W(2, 5); async W(3, 6); }
action W(r: int, x: int) { skip; }
action Probe() {
  assert pending(W) == 3;
  assert pending_le(W, 2) == 2;
  assert pending_le(W, 0) == 0;
  assert pending_le_at(W, 3, 5) == 2;
  assert pending_le_at(W, 3, 6) == 1;
  assert pending_le_at(W, 1, 6) == 0;
}
)";
  std::vector<Diagnostic> Diags;
  auto C = frontend::compileSource(Source, "", {},
                                   frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  // Build the configuration after Main and evaluate Probe's gate there.
  PaMultiset Omega;
  Omega.insert(PendingAsync("W", {Value::integer(1), Value::integer(5)}));
  Omega.insert(PendingAsync("W", {Value::integer(2), Value::integer(5)}));
  Omega.insert(PendingAsync("W", {Value::integer(3), Value::integer(6)}));
  EXPECT_TRUE(C->P.action("Probe").evalGate(C->InitialStore, {}, Omega));
  // Removing one PA flips the exact-count asserts.
  Omega.erase(PendingAsync("W", {Value::integer(1), Value::integer(5)}));
  EXPECT_FALSE(C->P.action("Probe").evalGate(C->InitialStore, {}, Omega));
}

// --- Gate-only evaluator -------------------------------------------------

TEST(AslEvalTest, GateAssertAfterChoose) {
  CompiledModule C = compileOk(
      "var s: set<int> := insert(insert({}, 1), 2);\n"
      "var x: int := 0;\n"
      "action Main() { choose e in s; x := e; assert x != 2; }\n");
  EXPECT_FALSE(gateAt(C, "Main", C.InitialStore)) << "the second branch fails";
  Store One = C.InitialStore.set("s", Value::set({Value::integer(1)}));
  EXPECT_TRUE(gateAt(C, "Main", One));
}

TEST(AslEvalTest, GateAssertOnLaterLoopIteration) {
  CompiledModule C = compileOk(
      "var x: int := 0;\n"
      "var y: int := 0;\n"
      "action Main() { for i in 1 .. 3 { if i == 3 { assert x == 0; } } }\n"
      "action After() { for i in 1 .. 3 { y := y + 1; } assert y < 3; }\n");
  EXPECT_TRUE(gateAt(C, "Main", C.InitialStore));
  EXPECT_FALSE(gateAt(C, "Main", C.InitialStore.set("x", Value::integer(1))));
  // An assert-free loop body still runs when an assert follows the loop.
  EXPECT_FALSE(gateAt(C, "After", C.InitialStore));
  EXPECT_TRUE(gateAt(C, "After", C.InitialStore.set("y", Value::integer(-5))));
}

TEST(AslEvalTest, GateAssertOnlyInElse) {
  CompiledModule C = compileOk(
      "var x: int := 0;\n"
      "action Main() { if x > 0 { x := 2; } else { assert x == 1; } }\n");
  EXPECT_FALSE(gateAt(C, "Main", C.InitialStore));
  EXPECT_TRUE(gateAt(C, "Main", C.InitialStore.set("x", Value::integer(3))));
}

TEST(AslEvalTest, GateAwaitBlockedPathBeforeAssertDoesNotFail) {
  CompiledModule C = compileOk(
      "var s: set<int> := insert(insert({}, 1), 2);\n"
      "action Main() { choose e in s; await e == 1; assert e == 2; }\n"
      "action Blocked() { await false; assert false; }\n");
  // e = 1 passes the await and fails the assert; e = 2 blocks.
  EXPECT_FALSE(gateAt(C, "Main", C.InitialStore));
  Store Two = C.InitialStore.set("s", Value::set({Value::integer(2)}));
  EXPECT_TRUE(gateAt(C, "Main", Two)) << "the only path blocks";
  EXPECT_TRUE(gateAt(C, "Blocked", C.InitialStore));
}

TEST(AslEvalTest, GateAssertInOuterBlockAfterNestedIf) {
  CompiledModule C = compileOk(
      "var x: int := 0;\n"
      "action Main() { if x > 0 { if x > 1 { x := 5; } } assert x != 5; }\n");
  EXPECT_TRUE(gateAt(C, "Main", C.InitialStore));
  EXPECT_TRUE(gateAt(C, "Main", C.InitialStore.set("x", Value::integer(1))));
  EXPECT_FALSE(gateAt(C, "Main", C.InitialStore.set("x", Value::integer(2))));
}

TEST(AslEvalTest, GatePendingCountsReadOmegaInPlace) {
  // Multiplicity > 1, and arity-0 / arity-1 targets: pending_le needs a
  // first argument and pending_le_at a second one, so PAs without them
  // never count under those filters.
  const char *Source = R"(
action Z() { skip; }
action U(r: int) { skip; }
action W(r: int, x: int) { skip; }
action Probe() {
  assert pending(Z) == 2;
  assert pending_le(Z, 9) == 0;
  assert pending(U) == 3;
  assert pending_le(U, 2) == 2;
  assert pending_le_at(U, 9, 1) == 0;
  assert pending_le(W, 1) == 2;
  assert pending_le_at(W, 2, 5) == 3;
  assert pending_le_at(W, 2, 6) == 0;
}
)";
  CompiledModule C = compileOk(Source);
  auto Pa = [](const char *A, std::vector<int64_t> Args) {
    std::vector<Value> Vs;
    for (int64_t V : Args)
      Vs.push_back(Value::integer(V));
    return PendingAsync(A, Vs);
  };
  PaMultiset Omega;
  Omega.insert(Pa("Z", {}));
  Omega.insert(Pa("Z", {}));
  Omega.insert(Pa("U", {1}));
  Omega.insert(Pa("U", {1}));
  Omega.insert(Pa("U", {7}));
  Omega.insert(Pa("W", {1, 5}));
  Omega.insert(Pa("W", {1, 5}));
  Omega.insert(Pa("W", {2, 5}));
  Omega.insert(Pa("W", {3, 6}));
  EXPECT_TRUE(gateAt(C, "Probe", C.InitialStore, {}, Omega));
  Omega.erase(Pa("W", {1, 5}));
  EXPECT_FALSE(gateAt(C, "Probe", C.InitialStore, {}, Omega));
}

TEST(AslEvalTest, GateEvaluatorMatchesBodyOnShippedExamples) {
  // Every action body of every shipped module, at every context of its
  // explored IS universe: at each pending async, the target action's body
  // and — where the documented invocation abstracts it — the abstraction's.
  // A gate the frontend declares store-free must also give the same
  // verdict at a second explored store (the next configuration's) for the
  // same args and Ω.
  for (const std::string &File : isq::testing::shippedExampleFiles()) {
    isq::testing::ShippedExample Ex =
        isq::testing::loadShippedExample(File,
                                         isq::testing::documentedFlags(File));
    ASSERT_TRUE(Ex.Compiled.Hir) << File;
    std::map<std::string, const hir::Action *> Decls;
    for (const hir::Action &A : Ex.Compiled.Hir->Actions)
      Decls[A.Name] = &A;
    engine::StateArena &Arena = *Ex.Universe.Space.Arena;
    const std::vector<engine::ConfigId> &Configs = Ex.Universe.Space.Configs;
    size_t Checked = 0, StoreFreeChecked = 0;
    for (size_t CI = 0; CI < Configs.size(); ++CI) {
      auto [G, OmegaId] = Arena.config(Configs[CI]);
      const Store &Global = Arena.store(G);
      const Store &Other =
          Arena.store(Arena.config(Configs[(CI + 1) % Configs.size()]).first);
      const PaMultiset &Omega = Arena.paSet(OmegaId);
      for (engine::PaId Pa : Arena.paOrder(OmegaId)) {
        const PendingAsync &PA = Arena.pa(Pa);
        std::vector<std::string> Bodies{PA.Action.str()};
        auto Abs = Ex.Options.Abstractions.find(PA.Action.str());
        if (Abs != Ex.Options.Abstractions.end())
          Bodies.push_back(Abs->second);
        for (const std::string &Name : Bodies) {
          auto It = Decls.find(Name);
          ASSERT_NE(It, Decls.end()) << File << ": " << Name;
          bool Gate = gateVsReference(Ex.Compiled, *It->second, Global,
                                      PA.Args, Omega);
          ++Checked;
          const Action &Compiled = Ex.Compiled.P.action(Name);
          if (Compiled.gateReadsStore())
            continue;
          EXPECT_EQ(Compiled.evalGate(Other, PA.Args, Omega), Gate)
              << File << ": " << Name << " at " << Global.str() << " vs "
              << Other.str();
          ++StoreFreeChecked;
        }
      }
    }
    EXPECT_GT(Checked, 0u) << File;
    if (File == "paxos.asl") {
      EXPECT_GT(StoreFreeChecked, 0u);
    }
  }
}
