//===- tests/flat_memo_test.cpp - Concurrent memo stress tests ------------===//
//
// Stress tests for engine::FlatMemo and engine::StableMemo
// (engine/ActionCaches.h): four threads race find/insert on overlapping
// keys through several growths of every stripe; a Make callback that
// inserts into (and grows) a second memo; reclamation of the tables a
// stripe outgrows; and the compact slot layout. Run under
// -DISQ_SANITIZE=thread these are the memo's race check.
//
//===----------------------------------------------------------------------===//

#include "engine/ActionCaches.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace isq::engine;

namespace {

constexpr unsigned NumThreads = 4;

/// The memoized pure function.
uint64_t f(uint64_t K) { return K * 0x9e3779b97f4a7c15ULL ^ 0x5555; }

/// Runs \p Body(ThreadIndex) on NumThreads threads at once.
template <typename F> void race(F Body) {
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < NumThreads; ++T)
    Pool.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() < NumThreads)
        std::this_thread::yield();
      Body(T);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// Key I of thread \p T's walk: every thread visits every key, each in its
/// own order (the strides are prime to every NumKeys below), so the
/// threads overlap on keys all the time.
uint64_t keyAt(unsigned T, uint64_t I, uint64_t NumKeys) {
  constexpr uint64_t Stride[NumThreads] = {1, 7, 11, 13};
  return (I * Stride[T] + T * NumKeys / NumThreads) % NumKeys;
}

template <typename Memo>
void expectEveryStripeGrew(const Memo &M, size_t Times) {
  for (size_t S = 0; S < Memo::NumStripes; ++S)
    EXPECT_GE(M.stripeCapacity(S), Memo::InitialStripeCap << Times)
        << "stripe " << S;
}

TEST(FlatMemoTest, RacingFindInsertThroughGrowth) {
  // ~2 500 keys per stripe: 64 → 4 096 slots, six growths each.
  constexpr uint64_t NumKeys = 40000;
  FlatMemo<uint64_t, uint64_t> Memo;
  std::atomic<uint64_t> Wrong{0};
  race([&](unsigned T) {
    for (uint64_t I = 0; I < NumKeys; ++I) {
      uint64_t K = keyAt(T, I, NumKeys);
      std::optional<uint64_t> V = Memo.find(K, K);
      if (!V)
        V = Memo.insertWith(K, K, [K] { return f(K); });
      if (*V != f(K))
        Wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(Memo.size(), NumKeys) << "one entry per distinct key";
  expectEveryStripeGrew(Memo, 3);
  for (uint64_t K = 0; K < NumKeys; ++K)
    ASSERT_EQ(Memo.find(K, K), f(K));
  EXPECT_FALSE(Memo.find(NumKeys, NumKeys).has_value());
  EXPECT_EQ(Memo.bytesHeld(), Memo.capacity() * Memo.slotBytes())
      << "superseded tables must be freed";
}

TEST(FlatMemoTest, MakeMayInsertIntoAndGrowAnotherMemo) {
  // Mirrors ArenaFingerprints::config, whose Make fingerprints the store
  // and Ω through two other memos: every insert into Outer inserts eight
  // keys into Inner while Outer's stripe lock is held, so Inner grows
  // from inside Outer's Make on every thread. A grower that waited on its
  // own thread, or on a lock its caller holds, would hang here.
  constexpr uint64_t NumKeys = 6000;
  constexpr uint64_t Fan = 8;
  FlatMemo<uint64_t, uint64_t> Outer;
  FlatMemo<uint64_t, uint64_t> Inner;
  std::atomic<uint64_t> Wrong{0};
  auto innerGet = [&](uint64_t K) {
    if (std::optional<uint64_t> V = Inner.find(K, K))
      return *V;
    return Inner.insertWith(K, K, [K] { return f(K); });
  };
  race([&](unsigned T) {
    for (uint64_t I = 0; I < NumKeys; ++I) {
      uint64_t K = keyAt(T, I, NumKeys);
      std::optional<uint64_t> V = Outer.find(K, K);
      if (!V)
        V = Outer.insertWith(K, K, [&] {
          uint64_t Sum = 0;
          for (uint64_t J = 0; J < Fan; ++J)
            Sum += innerGet(K * Fan + J);
          return Sum;
        });
      uint64_t Expected = 0;
      for (uint64_t J = 0; J < Fan; ++J)
        Expected += f(K * Fan + J);
      if (*V != Expected || innerGet(K * Fan) != f(K * Fan))
        Wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(Outer.size(), NumKeys);
  EXPECT_EQ(Inner.size(), NumKeys * Fan);
  expectEveryStripeGrew(Inner, 3);
  EXPECT_EQ(Inner.bytesHeld(), Inner.capacity() * Inner.slotBytes());
  EXPECT_EQ(Outer.bytesHeld(), Outer.capacity() * Outer.slotBytes());
}

TEST(FlatMemoTest, FreesTheTablesItOutgrows) {
  FlatMemo<uint64_t, uint64_t> Memo;
  const size_t Initial = Memo.capacity();
  EXPECT_EQ(Initial, Memo.NumStripes * Memo.InitialStripeCap);
  EXPECT_LE(Initial, 1024u) << "small runs pay no more than one table did";
  EXPECT_EQ(Memo.bytesHeld(), Initial * Memo.slotBytes());
  for (uint64_t K = 0; K < 20000; ++K)
    Memo.insert(K, K, f(K));
  EXPECT_GE(Memo.capacity(), 16 * Initial);
  // Kept-until-destruction tables would add up to about as much again.
  EXPECT_EQ(Memo.bytesHeld(), Memo.capacity() * Memo.slotBytes());
}

struct Quad {
  uint32_t A = 0, B = 0, C = 0, D = 0;
  bool operator==(const Quad &O) const {
    return A == O.A && B == O.B && C == O.C && D == O.D;
  }
};

TEST(FlatMemoTest, BoolValuesLiveInTheTag) {
  static_assert(FlatMemo<Quad, bool>::slotBytes() == 24,
                "a four-word key and a bool make a 24-byte slot");
  constexpr uint32_t NumKeys = 20000;
  FlatMemo<Quad, bool> Memo;
  auto hashOf = [](const Quad &Q) {
    return (uint64_t(Q.A) << 32 | Q.B) * 31 + (uint64_t(Q.C) << 32 | Q.D);
  };
  auto truth = [](uint32_t I) { return f(I) % 3 == 0; };
  std::atomic<uint64_t> Wrong{0};
  race([&](unsigned T) {
    for (uint32_t I = 0; I < NumKeys; ++I) {
      uint32_t K = static_cast<uint32_t>(keyAt(T, I, NumKeys));
      Quad Q{K % 7, K, K / 3, 1};
      std::optional<bool> V = Memo.find(Q, hashOf(Q));
      if (!V)
        V = Memo.insert(Q, hashOf(Q), truth(K));
      if (*V != truth(K))
        Wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(Memo.size(), NumKeys);
  for (uint32_t K = 0; K < NumKeys; ++K) {
    Quad Q{K % 7, K, K / 3, 1};
    ASSERT_EQ(Memo.find(Q, hashOf(Q)), truth(K));
  }
}

TEST(FlatMemoTest, StableValuesOutliveGrowth) {
  constexpr uint64_t NumKeys = 5000;
  StableMemo<uint64_t, std::vector<uint64_t>> Memo;
  std::vector<const std::vector<uint64_t> *> First(NumKeys, nullptr);
  for (uint64_t K = 0; K < NumKeys; ++K)
    First[K] = &Memo.insert(K, K, {K, f(K)});
  std::atomic<uint64_t> Wrong{0};
  race([&](unsigned T) {
    for (uint64_t I = 0; I < NumKeys; ++I) {
      uint64_t K = keyAt(T, I, NumKeys);
      const std::vector<uint64_t> *V = Memo.find(K, K);
      if (V != First[K] || (*V)[1] != f(K))
        Wrong.fetch_add(1);
      // Racing re-inserts of a present key keep the first value.
      if (&Memo.insert(K, K, {}) != First[K])
        Wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(Memo.find(NumKeys, NumKeys), nullptr);
}

} // namespace
