//===- tests/asl_eval_test.cpp - ASL (HIR) evaluator/compiler tests --------------===//

#include "explorer/Explorer.h"
#include "lang/Frontend.h"

#include <gtest/gtest.h>

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
