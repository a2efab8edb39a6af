//===- tests/measure_test.cpp - Well-founded measure tests --------------------------===//

#include "TestPrograms.h"
#include "is/Measure.h"
#include "protocols/Measures.h"

#include <gtest/gtest.h>

using namespace isq;
using namespace isq::testing;

namespace {

Configuration configWithPas(int64_t X, std::vector<PendingAsync> Pas) {
  return Configuration(xStore(X), PaMultiset::fromSequence(Pas));
}

} // namespace

TEST(MeasureTest, PendingAsyncCountDecreases) {
  Measure M = protocols::pendingAsyncCount();
  Configuration Two =
      configWithPas(0, {PendingAsync("A", {}), PendingAsync("B", {})});
  Configuration One = configWithPas(0, {PendingAsync("A", {})});
  Configuration Zero = configWithPas(0, {});
  EXPECT_TRUE(M.decreases(Two, One));
  EXPECT_TRUE(M.decreases(One, Zero));
  EXPECT_FALSE(M.decreases(One, Two));
  EXPECT_FALSE(M.decreases(One, One)) << "strict order";
}

TEST(MeasureTest, LexicographicComparison) {
  Measure M("pair", [](const Configuration &C) {
    int64_t X = C.isFailure() ? 0 : C.global().get("x").getInt();
    return std::vector<uint64_t>{static_cast<uint64_t>(X / 10),
                                 static_cast<uint64_t>(X % 10)};
  });
  // (2,1) > (1,9): first component dominates.
  EXPECT_TRUE(M.decreases(configWithPas(21, {}), configWithPas(19, {})));
  // (1,5) > (1,3): tie broken by the second.
  EXPECT_TRUE(M.decreases(configWithPas(15, {}), configWithPas(13, {})));
  EXPECT_FALSE(M.decreases(configWithPas(13, {}), configWithPas(15, {})));
}

TEST(MeasureTest, DifferentLengthTuplesZeroPad) {
  Measure A("long", [](const Configuration &) {
    return std::vector<uint64_t>{1, 0};
  });
  // Comparing against the evaluation of the same measure is the normal
  // case; here we exercise padding by comparing tuples {1,0} vs {1}.
  Measure B("short", [](const Configuration &C) {
    if (C.isFailure())
      return std::vector<uint64_t>{0};
    return C.global().get("x").getInt() == 0 ? std::vector<uint64_t>{1, 1}
                                             : std::vector<uint64_t>{1};
  });
  EXPECT_TRUE(B.decreases(configWithPas(0, {}), configWithPas(5, {})))
      << "{1,1} > {1} with zero padding";
  EXPECT_FALSE(B.decreases(configWithPas(5, {}), configWithPas(5, {})));
}

TEST(MeasureTest, ChannelsThenPas) {
  Symbol Chan = Symbol::get("chan");
  Measure M = protocols::channelsThenPas({Chan});
  auto WithChan = [&](std::vector<int64_t> Msgs,
                      std::vector<PendingAsync> Pas) {
    std::vector<Value> Elems;
    for (int64_t V : Msgs)
      Elems.push_back(Value::integer(V));
    Store S = Store::make({{Chan, Value::bag(Elems)}});
    return Configuration(S, PaMultiset::fromSequence(Pas));
  };
  // Fewer messages dominates, regardless of PA count.
  EXPECT_TRUE(M.decreases(WithChan({1, 2}, {}),
                          WithChan({1}, {PendingAsync("A", {})})));
  // Equal messages: PA count decides.
  EXPECT_TRUE(M.decreases(WithChan({1}, {PendingAsync("A", {})}),
                          WithChan({1}, {})));
  EXPECT_FALSE(M.decreases(WithChan({1}, {}), WithChan({1, 2}, {})));
}

TEST(MeasureTest, ChannelsThenPasSumsMapsOfChannels) {
  Symbol Chans = Symbol::get("CHS");
  Measure M = protocols::channelsThenPas({Chans});
  auto WithSizes = [&](std::vector<int64_t> Sizes) {
    std::vector<std::pair<Value, Value>> Pairs;
    for (size_t I = 0; I < Sizes.size(); ++I) {
      std::vector<Value> Msgs(static_cast<size_t>(Sizes[I]),
                              Value::integer(7));
      Pairs.push_back({Value::integer(static_cast<int64_t>(I)),
                       Value::bag(Msgs)});
    }
    return Configuration(Store::make({{Chans, Value::map(Pairs)}}),
                         PaMultiset());
  };
  EXPECT_TRUE(M.decreases(WithSizes({2, 1}), WithSizes({1, 1})));
  EXPECT_FALSE(M.decreases(WithSizes({1, 1}), WithSizes({2, 1})));
}

TEST(MeasureTest, InvalidMeasureDetectable) {
  Measure M;
  EXPECT_FALSE(M.isValid());
  EXPECT_TRUE(protocols::pendingAsyncCount().isValid());
  EXPECT_EQ(protocols::pendingAsyncCount().name(), "|Ω|");
}
