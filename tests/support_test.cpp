//===- tests/support_test.cpp - Support library unit tests -----------------===//

#include "support/Format.h"
#include "support/Json.h"
#include "support/Multiset.h"
#include "support/Random.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

using namespace isq;

// --- Symbol ------------------------------------------------------------------

TEST(SymbolTest, InterningIsIdempotent) {
  Symbol A = Symbol::get("alpha");
  Symbol B = Symbol::get("alpha");
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.index(), B.index());
  EXPECT_EQ(A.str(), "alpha");
}

TEST(SymbolTest, DistinctNamesDistinctSymbols) {
  Symbol A = Symbol::get("one-name");
  Symbol B = Symbol::get("another-name");
  EXPECT_NE(A, B);
}

TEST(SymbolTest, DefaultIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
}

TEST(SymbolTest, OrderingIsByInterningIndex) {
  Symbol A = Symbol::get("zz-first-interned");
  Symbol B = Symbol::get("aa-second-interned");
  EXPECT_LT(A, B) << "ordering follows interning order, not spelling";
}

// --- Multiset -----------------------------------------------------------------

TEST(MultisetTest, InsertEraseCount) {
  Multiset<int> M;
  EXPECT_TRUE(M.empty());
  M.insert(3);
  M.insert(3);
  M.insert(5);
  EXPECT_EQ(M.count(3), 2u);
  EXPECT_EQ(M.count(5), 1u);
  EXPECT_EQ(M.count(7), 0u);
  EXPECT_EQ(M.size(), 3u);
  EXPECT_EQ(M.distinctSize(), 2u);
  M.erase(3);
  EXPECT_EQ(M.count(3), 1u);
  M.erase(3);
  EXPECT_EQ(M.count(3), 0u);
  EXPECT_FALSE(M.contains(3));
}

TEST(MultisetTest, CanonicalFormGivesEquality) {
  Multiset<int> A = Multiset<int>::fromSequence({3, 1, 2, 1});
  Multiset<int> B = Multiset<int>::fromSequence({1, 2, 1, 3});
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(MultisetTest, UnionSumsMultiplicities) {
  Multiset<int> A = Multiset<int>::fromSequence({1, 1, 2});
  Multiset<int> B = Multiset<int>::fromSequence({1, 3});
  Multiset<int> U = A.unionWith(B);
  EXPECT_EQ(U.count(1), 3u);
  EXPECT_EQ(U.count(2), 1u);
  EXPECT_EQ(U.count(3), 1u);
}

TEST(MultisetTest, DifferenceSubtracts) {
  Multiset<int> A = Multiset<int>::fromSequence({1, 1, 2, 3});
  Multiset<int> B = Multiset<int>::fromSequence({1, 3});
  Multiset<int> D = A.differenceWith(B);
  EXPECT_EQ(D, Multiset<int>::fromSequence({1, 2}));
}

TEST(MultisetTest, SubsetRespectsMultiplicity) {
  Multiset<int> A = Multiset<int>::fromSequence({1, 1});
  Multiset<int> B = Multiset<int>::fromSequence({1, 2});
  EXPECT_FALSE(A.isSubsetOf(B)) << "two copies of 1 are not within one";
  EXPECT_TRUE(Multiset<int>::fromSequence({1}).isSubsetOf(B));
  EXPECT_TRUE(Multiset<int>().isSubsetOf(B));
}

TEST(MultisetTest, EraseUpTo) {
  Multiset<int> M = Multiset<int>::fromSequence({4, 4, 4});
  EXPECT_EQ(M.eraseUpTo(4, 5), 3u);
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.eraseUpTo(4, 1), 0u);
}

TEST(MultisetTest, FlattenRepeatsElements) {
  Multiset<int> M = Multiset<int>::fromSequence({2, 1, 2});
  std::vector<int> F = M.flatten();
  EXPECT_EQ(F, (std::vector<int>{1, 2, 2}));
}

// Property sweeps over pseudo-random sequences: the canonical form is a
// pure function of the element multiset, however it was built.

TEST(MultisetTest, PropertyFromSequenceEqualsRepeatedInsert) {
  Rng R(7);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<int> Elems;
    size_t Len = R.below(24);
    for (size_t I = 0; I < Len; ++I)
      Elems.push_back(static_cast<int>(R.below(6)));

    Multiset<int> FromSeq = Multiset<int>::fromSequence(Elems);
    Multiset<int> Inserted;
    for (int E : Elems)
      Inserted.insert(E);
    EXPECT_EQ(FromSeq, Inserted);
    // Batched insertion of counted runs lands on the same canonical form.
    Multiset<int> Batched;
    for (const auto &[E, Count] : FromSeq.entries())
      Batched.insert(E, Count);
    EXPECT_EQ(FromSeq, Batched);
    EXPECT_EQ(FromSeq.size(), Elems.size());
  }
}

TEST(MultisetTest, PropertyEraseToZeroRemovesEntry) {
  Rng R(11);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<int> Elems;
    size_t Len = 1 + R.below(20);
    for (size_t I = 0; I < Len; ++I)
      Elems.push_back(static_cast<int>(R.below(5)));
    Multiset<int> M = Multiset<int>::fromSequence(Elems);

    // Erase every copy of one present element: the entry must vanish from
    // the canonical entries, not linger with multiplicity zero.
    int Victim = Elems[R.below(Elems.size())];
    M.erase(Victim, M.count(Victim));
    EXPECT_EQ(M.count(Victim), 0u);
    EXPECT_FALSE(M.contains(Victim));
    for (const auto &[E, Count] : M.entries()) {
      EXPECT_NE(E, Victim);
      EXPECT_GT(Count, 0u);
    }
    // The survivor equals the multiset built without the victim.
    std::vector<int> Rest;
    for (int E : Elems)
      if (E != Victim)
        Rest.push_back(E);
    EXPECT_EQ(M, Multiset<int>::fromSequence(Rest));
  }
}

TEST(MultisetTest, PropertyHashAgreesWithEquality) {
  Rng R(13);
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<int> Elems;
    size_t Len = R.below(16);
    for (size_t I = 0; I < Len; ++I)
      Elems.push_back(static_cast<int>(R.below(4)));

    // Any permutation of the build sequence is the same multiset: equal,
    // and therefore equal hashes.
    std::vector<int> Shuffled = Elems;
    for (size_t I = Shuffled.size(); I > 1; --I)
      std::swap(Shuffled[I - 1], Shuffled[R.below(I)]);
    Multiset<int> A = Multiset<int>::fromSequence(Elems);
    Multiset<int> B = Multiset<int>::fromSequence(Shuffled);
    EXPECT_EQ(A, B);
    EXPECT_EQ(A.hash(), B.hash());

    // Inserting one more copy changes the multiset; hashes of unequal
    // multisets may collide in principle, but not on these small integer
    // universes (this pins hash() actually observing multiplicities).
    Multiset<int> C = A;
    C.insert(1);
    EXPECT_NE(A, C);
    EXPECT_NE(A.hash(), C.hash());
  }
}

// --- Format -----------------------------------------------------------------

TEST(FormatTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"solo"}, ", "), "solo");
}

TEST(FormatTest, PadTo) {
  EXPECT_EQ(padTo("ab", 4), "ab  ");
  EXPECT_EQ(padTo("abcdef", 4), "abcdef");
}

TEST(FormatTest, TableAlignsColumns) {
  std::string T = formatTable({"name", "n"}, {{"alpha", "1"}, {"b", "22"}});
  EXPECT_NE(T.find("alpha  1"), std::string::npos) << T;
  EXPECT_NE(T.find("b      22"), std::string::npos) << T;
}

// --- Json scanning -----------------------------------------------------------

TEST(JsonScanTest, ZeroNumbersZeroesNamedAndSuffixKeys) {
  std::string Doc = R"({"total_seconds":1.25,"steals":7,"p99_seconds":3.5,)"
                    R"("Wall_seconds":2.0,"seconds":0.5,"steals_x":4,)"
                    R"("idle_seconds":null,"msg":"\"steals\":9"})";
  // "*seconds" matches keys of lowercase letters and '_' only; an exact
  // name matches itself alone; non-numeric values stay.
  EXPECT_EQ(json::zeroNumbers(Doc, {"*seconds", "steals"}),
            R"({"total_seconds":0,"steals":0,"p99_seconds":3.5,)"
            R"("Wall_seconds":2.0,"seconds":0,"steals_x":4,)"
            R"("idle_seconds":null,"msg":"\"steals\":9"})");
  EXPECT_EQ(json::zeroNumbers(Doc, {}), Doc);
}

TEST(JsonScanTest, ReadUnsignedTakesTheFirstNumericMember) {
  std::string Doc = R"({"a":{"hits":null},"hits":12,"more":{"hits":5}})";
  EXPECT_EQ(json::readUnsigned(Doc, "hits"), 12u);
  EXPECT_EQ(json::readUnsigned(Doc, "misses"), 0u);
  EXPECT_EQ(json::readUnsigned(R"({"xhits":3})", "hits"), 0u);
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicSequence) {
  Rng A(42), B(42);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng R;
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(7), 7u);
}
