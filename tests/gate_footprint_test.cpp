//===- tests/gate_footprint_test.cpp - Gate store footprint tests ----------------===//
//
// The ASL frontend's static gate footprint (lang/HirEval.h): a gate reads
// the store iff a global is read (a GlobalRef, or an indexed assignment's
// target) while an assert is still reachable, and a gate with no
// reachable assert always holds. Small modules pin the bit case by case;
// the shipped modules pin it on the actions the checkers memoize most.
//
//===----------------------------------------------------------------------===//

#include "ShippedExamples.h"
#include "lang/Frontend.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::asl;

namespace {

/// The globals every case module declares.
const char *Globals = "var x: int := 0;\n"
                      "var y: int := 0;\n"
                      "var s: set<int> := insert(insert({}, 1), 2);\n"
                      "var m: map<int, int> := map i in 1 .. 2 : 0;\n";

constexpr GateFootprint ReadsStore = GateFootprint::Store;
constexpr GateFootprint NoStore = GateFootprint::NoStore;

/// The footprint of action \p Name in Globals followed by \p Actions.
GateFootprint footprintOf(const std::string &Actions, const char *Name) {
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      std::string(Globals) + Actions, "", {}, frontend::FrontendVersion::V2,
      Diags);
  EXPECT_TRUE(C.has_value()) << (Diags.empty() ? "" : Diags[0].str());
  if (!C)
    return ReadsStore;
  return C->P.action(Name).gateFootprint();
}

} // namespace

TEST(GateFootprintTest, GlobalReadBeforeOrAfterTheLastAssert) {
  EXPECT_EQ(footprintOf("action A(r: int) { y := x + r; assert r > 1; }\n",
                        "A"),
            ReadsStore);
  EXPECT_EQ(footprintOf("action A(r: int) { assert x < r; }\n", "A"),
            ReadsStore);
  // Everything after the last assert is skipped by the gate evaluator.
  EXPECT_EQ(footprintOf("action A(r: int) { assert r > 1; y := x + r; }\n",
                        "A"),
            NoStore);
}

TEST(GateFootprintTest, ConditionOfAnIfWhoseElseAloneAsserts) {
  EXPECT_EQ(footprintOf("action A(r: int) {\n"
                        "  if x > 0 { y := 1; } else { assert r > 0; }\n"
                        "}\n",
                        "A"),
            ReadsStore);
  // A read inside the branch that cannot assert, after which nothing
  // asserts, is dead for the gate.
  EXPECT_EQ(footprintOf("action A(r: int) {\n"
                        "  if r > 0 { y := x; } else { assert r < -1; }\n"
                        "}\n",
                        "A"),
            NoStore);
  // ... unless an assert follows the if.
  EXPECT_EQ(footprintOf("action A(r: int) {\n"
                        "  if r > 0 { y := x; } else { assert r < -1; }\n"
                        "  assert r != 5;\n"
                        "}\n",
                        "A"),
            ReadsStore);
}

TEST(GateFootprintTest, LoopReadsLiveWhileALaterIterationMayAssert) {
  // A bound read from a global decides how often the body asserts.
  EXPECT_EQ(footprintOf("action A(r: int) {\n"
                        "  for i in 1 .. x { assert i < r; }\n"
                        "}\n",
                        "A"),
            ReadsStore);
  // A read after the body's assert is live: the next iteration asserts.
  EXPECT_EQ(footprintOf("action A(r: int) {\n"
                        "  for i in 1 .. r { assert i != 3; y := y + x; }\n"
                        "}\n",
                        "A"),
            ReadsStore);
  // A loop after the last assert reads nothing the gate depends on.
  EXPECT_EQ(footprintOf("action A(r: int) {\n"
                        "  assert r > 0;\n"
                        "  for i in 1 .. x { y := y + x; }\n"
                        "}\n",
                        "A"),
            NoStore);
}

TEST(GateFootprintTest, AwaitOnAGlobal) {
  EXPECT_EQ(footprintOf("action A(r: int) { await x > 0; assert r > 0; }\n",
                        "A"),
            ReadsStore);
  EXPECT_EQ(footprintOf("action A(r: int) { assert r > 0; await x > 0; }\n",
                        "A"),
            NoStore);
}

TEST(GateFootprintTest, ChooseOverAGlobalSet) {
  EXPECT_EQ(
      footprintOf("action A(r: int) { choose e in s; assert e != r; }\n",
                  "A"),
      ReadsStore);
  EXPECT_EQ(footprintOf("action A(r: int) {\n"
                        "  assert r > 0;\n"
                        "  choose e in s;\n"
                        "  y := e;\n"
                        "}\n",
                        "A"),
            NoStore);
}

TEST(GateFootprintTest, IndexedAssignReadsItsTarget) {
  EXPECT_EQ(footprintOf("action A(r: int) { m[r] := 1; assert r > 0; }\n",
                        "A"),
            ReadsStore);
  // A whole-variable assignment only writes.
  EXPECT_EQ(footprintOf("action A(r: int) { y := r; assert r > 0; }\n", "A"),
            NoStore);
}

TEST(GateFootprintTest, AssertFreeGateAlwaysHolds) {
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      std::string(Globals) +
          "action A(r: int) { await x > r; choose e in s; y := e + x; }\n",
      "", {}, frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C.has_value());
  const Action &A = C->P.action("A");
  EXPECT_EQ(A.gateFootprint(), GateFootprint::AlwaysHolds);
  EXPECT_TRUE(A.gateAlwaysHolds());
  EXPECT_FALSE(A.gateReadsStore());
  for (int64_t X : {-1, 0, 7})
    EXPECT_TRUE(A.evalGate(C->InitialStore.set("x", Value::integer(X)),
                           {Value::integer(X)}, PaMultiset()));
}

TEST(GateFootprintTest, ArgsOnlyAssertIsStoreAndOmegaFree) {
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      std::string(Globals) + "action A(r: int) { assert r > 0; x := r; }\n"
                             "action B(r: int) { assert pending(A) == r; }\n",
      "", {}, frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C.has_value());
  const Action &A = C->P.action("A");
  EXPECT_EQ(A.gateFootprint(), GateFootprint::NoStore);
  EXPECT_FALSE(A.gateReadsOmega());
  // Ω without the store: the pending builtins read Ω only.
  const Action &B = C->P.action("B");
  EXPECT_EQ(B.gateFootprint(), GateFootprint::NoStore);
  EXPECT_TRUE(B.gateReadsOmega());
}

TEST(GateFootprintTest, RenamingKeepsTheFootprint) {
  std::vector<Diagnostic> Diags;
  std::optional<CompiledModule> C = frontend::compileSource(
      std::string(Globals) + "action A(r: int) { assert r > 0; }\n", "", {},
      frontend::FrontendVersion::V2, Diags);
  ASSERT_TRUE(C.has_value());
  EXPECT_EQ(C->P.action("A").withName("A2").gateFootprint(), NoStore);
  // Natively built actions declare nothing, so they read the store.
  Action Native("N", 0, Action::alwaysEnabled(),
                [](const isq::Store &, const std::vector<Value> &) {
                  return std::vector<Transition>{};
                });
  EXPECT_TRUE(Native.gateReadsStore());
}

TEST(GateFootprintTest, ShippedModules) {
  struct Pin {
    const char *File;
    const char *Action;
    bool Reads;
  };
  const Pin Pins[] = {
      {"paxos.asl", "JoinAbs", false},
      {"paxos.asl", "VoteAbs", false},
      {"paxos.asl", "ConcludeAbs", false},
      {"paxos.asl", "Propose", true},
      {"paxos.asl", "ProposeAbs", true},
      {"chang_roberts.asl", "Handle", true},
      {"producer_consumer.asl", "Consumer", true},
      {"producer_consumer.asl", "ConsumerAbs", true},
      {"two_phase_commit.asl", "Decide", true},
      {"two_phase_commit.asl", "Finalize", true},
      {"two_phase_commit.asl", "DecideAbs", true},
  };
  for (const Pin &P : Pins) {
    isq::testing::ShippedExample Ex;
    ASSERT_TRUE(isq::testing::compileShippedExample(
        Ex, P.File, isq::testing::documentedFlags(P.File)))
        << P.File;
    const Action &A = Ex.Compiled.P.action(P.Action);
    EXPECT_FALSE(A.gateAlwaysHolds()) << P.File << ": " << P.Action;
    EXPECT_EQ(A.gateReadsStore(), P.Reads) << P.File << ": " << P.Action;
  }
}
