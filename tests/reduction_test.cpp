//===- tests/reduction_test.cpp - Lipton reduction tests --------------------------===//

#include "TestPrograms.h"
#include "reference/Explorer.h"
#include "reference/Reduction.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

namespace {

/// q-channel store used by the fixtures.
Store chanStore(std::vector<int64_t> Msgs, int64_t X) {
  std::vector<Value> Elems;
  for (int64_t M : Msgs)
    Elems.push_back(iv(M));
  return Store::make({{Symbol::get("q"), Value::bag(Elems)},
                      {Symbol::get("x"), iv(X)}});
}

Action sendOp(const std::string &Name, int64_t V) {
  return Action(Name, 0, Action::alwaysEnabled(),
                [V](const Store &G, const std::vector<Value> &) {
                  return std::vector<Transition>{Transition(
                      G.set("q", G.get("q").bagInsert(iv(V))))};
                });
}

Action recvOp(const std::string &Name) {
  return Action(Name, 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  std::vector<Transition> Out;
                  const Value &Q = G.get("q");
                  for (const auto &[Msg, Count] : Q.bagEntries()) {
                    (void)Count;
                    Out.emplace_back(
                        G.set("q", Q.bagErase(Msg)).set("x", Msg));
                  }
                  return Out;
                });
}

Action assertPositiveOp(const std::string &Name) {
  return Action(Name, 0,
                [](const GateContext &Ctx) {
                  return Ctx.Global.get("x").getInt() > 0;
                },
                [](const Store &G, const std::vector<Value> &) {
                  return std::vector<Transition>{Transition(G)};
                });
}

} // namespace

// --- Lipton pattern ------------------------------------------------------------

TEST(AtomicPatternTest, ValidShapes) {
  using M = MoverType;
  EXPECT_TRUE(checkAtomicPattern({}).ok());
  EXPECT_TRUE(checkAtomicPattern({M::Right, M::Right, M::Left}).ok());
  EXPECT_TRUE(checkAtomicPattern({M::Right, M::None, M::Left}).ok());
  EXPECT_TRUE(checkAtomicPattern({M::None}).ok());
  EXPECT_TRUE(checkAtomicPattern({M::Both, M::Both}).ok());
  EXPECT_TRUE(checkAtomicPattern({M::Left, M::Left}).ok());
  EXPECT_TRUE(checkAtomicPattern({M::Right}).ok());
  EXPECT_TRUE(
      checkAtomicPattern({M::Both, M::Right, M::None, M::Left, M::Both})
          .ok());
}

TEST(AtomicPatternTest, InvalidShapes) {
  using M = MoverType;
  // Two non-movers.
  EXPECT_FALSE(checkAtomicPattern({M::None, M::None}).ok());
  // A right mover after the non-mover.
  EXPECT_FALSE(checkAtomicPattern({M::None, M::Right}).ok());
  // Left then right (pure) is not reducible.
  EXPECT_FALSE(checkAtomicPattern({M::Left, M::Right}).ok());
  // Right movers cannot follow left movers.
  EXPECT_FALSE(checkAtomicPattern({M::Right, M::Left, M::Right}).ok());
}

// --- Fusion ----------------------------------------------------------------------

TEST(FusionTest, SequentialComposition) {
  // recv; send — the canonical receive-then-respond handler.
  std::vector<PrimitiveOp> Ops = {{recvOp("RecvStep"), MoverType::Right},
                                  {sendOp("SendAck", 99), MoverType::Left}};
  Action Fused = fuseSequence("Handler", 0, Ops);
  Store G = chanStore({7}, 0);
  auto Ts = Fused.transitions(G, {});
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Global.get("x").getInt(), 7);
  EXPECT_EQ(Ts[0].Global.get("q").bagCount(Value::integer(99)), 1u);
  EXPECT_EQ(Ts[0].Global.get("q").bagCount(Value::integer(7)), 0u);
}

TEST(FusionTest, BlockingPropagates) {
  std::vector<PrimitiveOp> Ops = {{recvOp("RecvStep"), MoverType::Right},
                                  {sendOp("SendAck", 99), MoverType::Left}};
  Action Fused = fuseSequence("Handler", 0, Ops);
  // Empty channel: the receive blocks, hence the block blocks.
  EXPECT_TRUE(Fused.transitions(chanStore({}, 0), {}).empty());
  EXPECT_TRUE(Fused.evalGate(chanStore({}, 0), {}, PaMultiset()))
      << "blocked is not failed";
}

TEST(FusionTest, NondeterminismMultipliesPaths) {
  std::vector<PrimitiveOp> Ops = {{recvOp("Recv1"), MoverType::Right},
                                  {recvOp("Recv2"), MoverType::Right}};
  Action Fused = fuseSequence("TwoRecvs", 0, Ops);
  // Receiving two of {1, 2, 3}: 3 choices then 2 — six paths, but the
  // final store only depends on x = last received and remaining bag.
  auto Ts = Fused.transitions(chanStore({1, 2, 3}, 0), {});
  EXPECT_EQ(Ts.size(), 6u);
}

TEST(FusionTest, IntermediateGateFailureFailsTheBlock) {
  // recv; assert x > 0 — receiving a non-positive message fails the
  // fused action's gate (failures are preserved per Definition 3.1).
  std::vector<PrimitiveOp> Ops = {
      {recvOp("RecvStep"), MoverType::Right},
      {assertPositiveOp("CheckPositive"), MoverType::Both}};
  Action Fused = fuseSequence("RecvChecked", 0, Ops);
  EXPECT_TRUE(Fused.evalGate(chanStore({5}, 0), {}, PaMultiset()));
  EXPECT_FALSE(Fused.evalGate(chanStore({-1}, 0), {}, PaMultiset()))
      << "some path reaches a violated gate";
  EXPECT_FALSE(Fused.evalGate(chanStore({5, -1}, 0), {}, PaMultiset()))
      << "one bad message among good ones still fails";
}

TEST(FusionTest, CreatedPendingAsyncsAccumulate) {
  Action Spawn1("SpawnA", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  T.Created.emplace_back("A", std::vector<Value>{});
                  return std::vector<Transition>{std::move(T)};
                });
  Action Spawn2("SpawnB", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  Transition T(G);
                  T.Created.emplace_back("B", std::vector<Value>{});
                  return std::vector<Transition>{std::move(T)};
                });
  Action Fused = fuseSequence("SpawnBoth", 0,
                              {{Spawn1, MoverType::Left},
                               {Spawn2, MoverType::Left}});
  auto Ts = Fused.transitions(xStore(0), {});
  ASSERT_EQ(Ts.size(), 1u);
  ASSERT_EQ(Ts[0].Created.size(), 2u);
  EXPECT_EQ(Ts[0].Created[0].Action.str(), "A");
  EXPECT_EQ(Ts[0].Created[1].Action.str(), "B");
}

TEST(FusionTest, FusedBlockRefinesFineGrainedProgram) {
  // End-to-end P1 ≼ P2 check: a fine-grained program running recv then
  // send as separate PAs versus the fused atomic handler. Their terminal
  // stores agree.
  Program Fine;
  Fine.addAction(Action("Main", 0, Action::alwaysEnabled(),
                        [](const Store &G, const std::vector<Value> &) {
                          Transition T(G);
                          T.Created.emplace_back("RecvStep",
                                                 std::vector<Value>{});
                          return std::vector<Transition>{std::move(T)};
                        }));
  Fine.addAction(Action("RecvStep", 0, Action::alwaysEnabled(),
                        [](const Store &G, const std::vector<Value> &) {
                          std::vector<Transition> Out;
                          const Value &Q = G.get("q");
                          for (const auto &[Msg, Count] : Q.bagEntries()) {
                            (void)Count;
                            Transition T(
                                G.set("q", Q.bagErase(Msg)).set("x", Msg));
                            T.Created.emplace_back("SendAck",
                                                   std::vector<Value>{});
                            Out.push_back(std::move(T));
                          }
                          return Out;
                        }));
  Fine.addAction(sendOp("SendAck", 99));

  Program Coarse;
  Coarse.addAction(Fine.action("Main").withName("Main"));
  Action Fused = fuseSequence(
      "RecvStep", 0,
      {{recvOp("RecvInner"), MoverType::Right},
       {sendOp("SendInner", 99), MoverType::Left}});
  Coarse.addAction(Fused);
  Coarse.addAction(sendOp("SendAck", 99)); // unused but keeps dom equal

  ProgramSummary F = summarize(Fine, chanStore({3, 4}, 0));
  ProgramSummary C = summarize(Coarse, chanStore({3, 4}, 0));
  EXPECT_TRUE(F.Good);
  EXPECT_TRUE(C.Good);
  EXPECT_EQ(F.Trans.size(), C.Trans.size());
}

// --- Annotation verification -------------------------------------------------------

TEST(AnnotationTest, VerifiesCorrectAnnotations) {
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  P.addAction(sendOp("Send99", 99));
  P.addAction(recvOp("RecvAny"));
  PaMultiset Omega;
  Omega.insert(PendingAsync("Send99", {}));
  Omega.insert(PendingAsync("RecvAny", {}));
  std::vector<Configuration> Universe{
      Configuration(chanStore({1, 2}, 0), Omega),
      Configuration(chanStore({}, 1), Omega)};
  std::vector<PrimitiveOp> Ops = {
      {P.action("RecvAny"), MoverType::Right},
      {P.action("Send99"), MoverType::Left}};
  EXPECT_TRUE(verifyMoverAnnotations(Ops, P, Universe).ok());
}

TEST(AnnotationTest, RejectsWrongAnnotations) {
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  P.addAction(sendOp("Send99", 99));
  P.addAction(recvOp("RecvAny"));
  PaMultiset Omega;
  Omega.insert(PendingAsync("Send99", {}));
  Omega.insert(PendingAsync("RecvAny", {}));
  std::vector<Configuration> Universe{
      Configuration(chanStore({}, 0), Omega)};
  // A blocking receive is not a left mover.
  std::vector<PrimitiveOp> Ops = {{P.action("RecvAny"), MoverType::Left}};
  CheckResult R = verifyMoverAnnotations(Ops, P, Universe);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("annotated left mover"), std::string::npos)
      << R.str();
}
