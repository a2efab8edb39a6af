//===- tests/movers_test.cpp - Mover engine unit tests --------------------------===//

#include "TestPrograms.h"
#include "reference/MoverCheck.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

namespace {

/// Store {q = bag, x = int}.
Store bagStore(std::vector<int64_t> Msgs, int64_t X) {
  std::vector<Value> Elems;
  for (int64_t M : Msgs)
    Elems.push_back(iv(M));
  return Store::make({{Symbol::get("q"), Value::bag(Elems)},
                      {Symbol::get("x"), iv(X)}});
}

/// Send(v): q += v. A left mover over bag channels.
Action makeSend() {
  return Action("Send", 1, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &Args) {
                  return std::vector<Transition>{Transition(
                      G.set("q", G.get("q").bagInsert(Args[0])))};
                });
}

/// Recv(): removes any one message (blocking when empty). A right mover.
Action makeRecv() {
  return Action("Recv", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  std::vector<Transition> Out;
                  const Value &Q = G.get("q");
                  for (const auto &[Msg, Count] : Q.bagEntries()) {
                    (void)Count;
                    Out.emplace_back(G.set("q", Q.bagErase(Msg)));
                  }
                  return Out;
                });
}

/// IncX(): x := x + 1. Commutes with itself but writes shared state.
Action makeIncX() {
  return Action("IncX", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  return std::vector<Transition>{Transition(
                      G.set("x", iv(G.get("x").getInt() + 1)))};
                });
}

/// DoubleX(): x := 2x. Does not commute with IncX.
Action makeDoubleX() {
  return Action("DoubleX", 0, Action::alwaysEnabled(),
                [](const Store &G, const std::vector<Value> &) {
                  return std::vector<Transition>{Transition(
                      G.set("x", iv(G.get("x").getInt() * 2)))};
                });
}

/// A program and universe where one Send(7), one Recv, one IncX and one
/// DoubleX are co-pending over a few stores.
struct Fixture {
  Program P;
  std::vector<Configuration> Universe;

  Fixture() {
    P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                       [](const Store &G, const std::vector<Value> &) {
                         return std::vector<Transition>{Transition(G)};
                       }));
    P.addAction(makeSend());
    P.addAction(makeRecv());
    P.addAction(makeIncX());
    P.addAction(makeDoubleX());
    PaMultiset Omega;
    Omega.insert(PendingAsync("Send", {iv(7)}));
    Omega.insert(PendingAsync("Recv", {}));
    Omega.insert(PendingAsync("IncX", {}));
    Omega.insert(PendingAsync("DoubleX", {}));
    Universe.emplace_back(bagStore({1, 2}, 1), Omega);
    Universe.emplace_back(bagStore({}, 3), Omega);
    Universe.emplace_back(bagStore({5}, 0), Omega);
  }
};

} // namespace

TEST(MoverTest, SendIsLeftMoverOverBags) {
  Fixture F;
  CheckResult R =
      checkLeftMover(Symbol::get("Send"), F.P.action("Send"), F.P,
                     F.Universe);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(MoverTest, RecvIsRightMoverOverBags) {
  Fixture F;
  CheckResult R =
      checkRightMover(Symbol::get("Recv"), F.P.action("Recv"), F.P,
                      F.Universe);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(MoverTest, RecvIsNotLeftMoverBlocking) {
  // Recv violates non-blocking on the empty-channel configuration.
  Fixture F;
  CheckResult R =
      checkLeftMover(Symbol::get("Recv"), F.P.action("Recv"), F.P,
                     F.Universe);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("non-blocking"), std::string::npos) << R.str();
}

TEST(MoverTest, SendIsNotRightMoverPastRecv) {
  // Send;Recv can consume the sent message — reordering to Recv;Send
  // cannot reproduce the outcome when the channel was empty.
  Fixture F;
  CheckResult R =
      checkRightMover(Symbol::get("Send"), F.P.action("Send"), F.P,
                      F.Universe);
  EXPECT_FALSE(R.ok());
}

TEST(MoverTest, NonCommutingActionsDetected) {
  Fixture F;
  CheckResult R =
      checkLeftMover(Symbol::get("DoubleX"), F.P.action("DoubleX"), F.P,
                     F.Universe);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("commute"), std::string::npos) << R.str();
}

TEST(MoverTest, ClassifyMover) {
  Fixture F;
  EXPECT_EQ(classifyMover(Symbol::get("Send"), F.P, F.Universe),
            MoverType::Left);
  EXPECT_EQ(classifyMover(Symbol::get("Recv"), F.P, F.Universe),
            MoverType::Right);
  EXPECT_EQ(classifyMover(Symbol::get("DoubleX"), F.P, F.Universe),
            MoverType::None);
}

TEST(MoverTest, PureLocalActionIsBothMover) {
  // A single IncX against Send/Recv (which touch only q) is a both mover
  // when no second IncX/DoubleX is pending.
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  P.addAction(makeSend());
  P.addAction(makeIncX());
  PaMultiset Omega;
  Omega.insert(PendingAsync("Send", {iv(7)}));
  Omega.insert(PendingAsync("IncX", {}));
  std::vector<Configuration> U{Configuration(bagStore({1}, 0), Omega)};
  EXPECT_EQ(classifyMover(Symbol::get("IncX"), P, U), MoverType::Both);
}

TEST(MoverTest, GatePreservationViolationDetected) {
  // Guarded's gate (x == 0) is destroyed by IncX: forward preservation
  // fails when checking Guarded as a left mover.
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  P.addAction(Action("Guarded", 0,
                     [](const GateContext &Ctx) {
                       return Ctx.Global.get("x").getInt() == 0;
                     },
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  P.addAction(makeIncX());
  PaMultiset Omega;
  Omega.insert(PendingAsync("Guarded", {}));
  Omega.insert(PendingAsync("IncX", {}));
  std::vector<Configuration> U{Configuration(bagStore({}, 0), Omega)};
  CheckResult R =
      checkLeftMover(Symbol::get("Guarded"), P.action("Guarded"), P, U);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("forward-preserved"), std::string::npos)
      << R.str();
}

TEST(MoverTest, DuplicatePasPairOnlyWithTwoCopies) {
  // A single pending DoubleX never pairs with itself, so it is trivially
  // a left mover in isolation.
  Program P;
  P.addAction(Action("Main", 0, Action::alwaysEnabled(),
                     [](const Store &G, const std::vector<Value> &) {
                       return std::vector<Transition>{Transition(G)};
                     }));
  P.addAction(makeDoubleX());
  PaMultiset Single;
  Single.insert(PendingAsync("DoubleX", {}));
  std::vector<Configuration> U{Configuration(bagStore({}, 1), Single)};
  EXPECT_TRUE(
      checkLeftMover(Symbol::get("DoubleX"), P.action("DoubleX"), P, U)
          .ok());
  // With two copies pending, the self-pair is checked (and passes: an
  // action always commutes with itself here).
  PaMultiset Two = Single;
  Two.insert(PendingAsync("DoubleX", {}));
  std::vector<Configuration> U2{Configuration(bagStore({}, 1), Two)};
  EXPECT_TRUE(
      checkLeftMover(Symbol::get("DoubleX"), P.action("DoubleX"), P, U2)
          .ok());
}
