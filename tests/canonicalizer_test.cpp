//===- tests/canonicalizer_test.cpp - Orbit canonicalization tests --------===//
//
// Differential tests for engine::Canonicalizer (engine/Canonicalizer.h)
// against the naive value-level reference::canonical: over every
// configuration of the unreduced exploration of each shipped example that
// declares a symmetric sort, both must pick the same representative and
// the same orbit size. A 4-thread variant races every thread over the
// same inputs; run under -DISQ_SANITIZE=thread it is the canonicalizer's
// race check. A hand-built case makes several permutations tie on the
// store with differing Ω images, under PaIds that disagree with value
// order.
//
//===----------------------------------------------------------------------===//

#include "ShippedExamples.h"

#include "engine/Canonicalizer.h"
#include "engine/StateGraph.h"
#include "reference/Symmetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

using namespace isq;
using namespace isq::engine;
using namespace isq::testing;

namespace {

/// One shipped example's unreduced state space and its symmetry.
struct Subject {
  std::string File;
  ShippedExample Ex;
  StateGraph Graph;
  const SymmetrySpec *Sym = nullptr;
};

/// The shipped examples at their documented flags whose module declares
/// a symmetric sort (paxos.asl documents R=2 N=2), each explored with
/// symmetry=false.
std::vector<std::unique_ptr<Subject>> symmetricSubjects() {
  std::vector<std::unique_ptr<Subject>> Out;
  for (const std::string &File : shippedExampleFiles()) {
    auto S = std::make_unique<Subject>();
    S->File = File;
    if (!compileShippedExample(S->Ex, File, documentedFlags(File)))
      continue;
    const std::shared_ptr<const SymmetrySpec> &Sym =
        S->Ex.Compiled.P.symmetry();
    if (!Sym || Sym->numPermutations() < 2)
      continue;
    S->Sym = Sym.get();
    EngineOptions EO;
    EO.RecordParents = false;
    EO.Config.Symmetry = false;
    S->Graph = exploreGraph(
        S->Ex.Compiled.P,
        {initialConfiguration(S->Ex.Compiled.InitialStore, {})}, nullptr, EO);
    Out.push_back(std::move(S));
  }
  return Out;
}

/// The raw (store, Ω) handles of every node, interned from the values the
/// way exploration interns a successor.
std::vector<std::pair<StoreId, PaSetId>> rawInputs(Subject &S) {
  StateArena &Arena = S.Graph.arena();
  std::vector<std::pair<StoreId, PaSetId>> In;
  for (ConfigId Cid : S.Graph.nodes()) {
    Configuration C = Arena.configuration(Cid);
    In.emplace_back(Arena.internStore(C.global()),
                    Arena.internPaSet(C.pendingAsyncs()));
  }
  return In;
}

/// reference::canonical's answer per input: the interned
/// representative and the orbit size.
std::vector<std::pair<ConfigId, uint32_t>>
referenceAnswers(Subject &S,
                 const std::vector<std::pair<StoreId, PaSetId>> &In) {
  StateArena &Arena = S.Graph.arena();
  std::vector<std::pair<ConfigId, uint32_t>> Want;
  for (auto [G, Omega] : In) {
    uint64_t Orbit = 0;
    Configuration Canon = reference::canonical(
        *S.Sym, Configuration(Arena.store(G), Arena.paSet(Omega)), &Orbit);
    Want.emplace_back(Arena.internConfig(Canon),
                      static_cast<uint32_t>(Orbit));
  }
  return Want;
}

TEST(CanonicalizerTest, MatchesSymmetrySpecOnShippedExamples) {
  std::vector<std::unique_ptr<Subject>> Subjects = symmetricSubjects();
  std::vector<std::string> Files;
  for (const auto &S : Subjects)
    Files.push_back(S->File);
  EXPECT_EQ(Files, (std::vector<std::string>{"paxos.asl",
                                             "two_phase_commit.asl"}));
  for (const auto &S : Subjects) {
    std::vector<std::pair<StoreId, PaSetId>> In = rawInputs(*S);
    std::vector<std::pair<ConfigId, uint32_t>> Want =
        referenceAnswers(*S, In);
    ASSERT_GT(In.size(), 100u) << S->File;
    Canonicalizer Canon(S->Graph.arena(), *S->Sym);
    // The second pass is answered from the memo and must not drift.
    for (int Pass = 0; Pass < 2; ++Pass)
      for (size_t I = 0; I < In.size(); ++I) {
        std::pair<ConfigId, uint32_t> Got =
            Canon.canon(In[I].first, In[I].second);
        ASSERT_EQ(Got.first, Want[I].first)
            << S->File << " pass " << Pass << ": representative of "
            << S->Graph.arena().configuration(S->Graph.nodes()[I]).str();
        ASSERT_EQ(Got.second, Want[I].second)
            << S->File << " pass " << Pass << ": orbit of "
            << S->Graph.arena().configuration(S->Graph.nodes()[I]).str();
      }
    EXPECT_EQ(Canon.calls(), 2 * In.size()) << S->File;
    EXPECT_EQ(Canon.hits(), In.size()) << S->File;
  }
}

TEST(CanonicalizerTest, ThreadsCanonicalizingTheSameInputsAgree) {
  constexpr unsigned NumThreads = 4;
  for (const auto &S : symmetricSubjects()) {
    std::vector<std::pair<StoreId, PaSetId>> In = rawInputs(*S);
    std::vector<std::pair<ConfigId, uint32_t>> Want =
        referenceAnswers(*S, In);
    Canonicalizer Canon(S->Graph.arena(), *S->Sym);
    std::vector<std::vector<std::pair<ConfigId, uint32_t>>> Got(
        NumThreads, std::vector<std::pair<ConfigId, uint32_t>>(In.size()));
    std::atomic<unsigned> Ready{0};
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < NumThreads; ++T)
      Pool.emplace_back([&, T] {
        Ready.fetch_add(1);
        while (Ready.load() < NumThreads)
          std::this_thread::yield();
        // Each thread starts a quarter further in, so every stage-1 and
        // stage-2 entry is raced by threads arriving in different orders.
        for (size_t K = 0; K < In.size(); ++K) {
          size_t I = (K + T * In.size() / NumThreads) % In.size();
          Got[T][I] = Canon.canon(In[I].first, In[I].second);
        }
      });
    for (std::thread &T : Pool)
      T.join();
    for (unsigned T = 0; T < NumThreads; ++T)
      EXPECT_EQ(Got[T], Want) << S->File << " thread " << T;
    EXPECT_EQ(Canon.calls(), NumThreads * In.size()) << S->File;
    EXPECT_LE(Canon.hits(), Canon.calls()) << S->File;
  }
}

TEST(CanonicalizerTest, StoreTiesBreakOnOmegaInValueOrder) {
  // Node IDs 1..3. A store whose shaped variable is unset is fixed by all
  // six permutations, and leader=3 by the two that send 3 to 1, so in
  // both cases several permutations tie on the store and Ω decides. The
  // PAs are interned in reverse value order first, so PaId order is the
  // reverse of value order: a tie-break that compared images by PaId
  // would pick other representatives than reference::canonical.
  SymmetrySpec Sym("Node", {1, 2, 3});
  Symbol Leader = Symbol::get("leader");
  Symbol A = Symbol::get("A"), B = Symbol::get("B");
  Sym.setGlobalShape(Leader, ValueShape::id());
  Sym.setActionShape(A, {ValueShape::id()});
  Sym.setActionShape(B, {ValueShape::id(), ValueShape::id()});
  auto a = [&](int64_t I) { return PendingAsync(A, {Value::integer(I)}); };
  auto b = [&](int64_t I, int64_t J) {
    return PendingAsync(B, {Value::integer(I), Value::integer(J)});
  };

  // One shard: handles then grow in interning order.
  StateArena Arena(1);
  std::vector<PendingAsync> All;
  for (int64_t I = 1; I <= 3; ++I) {
    All.push_back(a(I));
    for (int64_t J = 1; J <= 3; ++J)
      All.push_back(b(I, J));
  }
  std::sort(All.rbegin(), All.rend());
  for (const PendingAsync &Pa : All)
    Arena.internPa(Pa);
  ASSERT_GT(Arena.internPa(a(1)), Arena.internPa(a(3)));

  auto omega = [](std::vector<std::pair<PendingAsync, uint64_t>> Entries) {
    PaMultiset Omega;
    for (const auto &[Pa, Count] : Entries)
      Omega.insert(Pa, Count);
    return Omega;
  };
  std::vector<Store> Stores = {
      Store(), Store().set(Symbol::get("round"), Value::integer(1)),
      Store().set(Leader, Value::integer(3))};
  std::vector<PaMultiset> Omegas = {
      omega({{a(1), 1}, {a(2), 2}}),
      omega({{a(2), 1}, {b(1, 3), 1}}),
      omega({{a(1), 1}, {a(2), 1}, {a(3), 1}}),
      omega({{b(1, 2), 1}, {b(2, 1), 1}}),
      omega({{a(3), 2}, {b(2, 3), 1}, {b(3, 1), 3}}),
      omega({{a(1), 1}, {a(3), 1}, {b(2, 2), 2}})};

  Canonicalizer Canon(Arena, Sym);
  size_t TiesWithDistinctImages = 0;
  for (const Store &G : Stores)
    for (const PaMultiset &Omega : Omegas) {
      std::vector<uint32_t> MinPerms;
      Sym.canonicalStore(G, MinPerms);
      ASSERT_GT(MinPerms.size(), 1u) << G.str();
      std::set<PaMultiset> Images;
      for (uint32_t I : MinPerms)
        Images.insert(reference::permuteOmega(Sym, Omega, Sym.perm(I)));
      TiesWithDistinctImages += Images.size() > 1;

      uint64_t Orbit = 0;
      Configuration Want =
          reference::canonical(Sym, Configuration(G, Omega), &Orbit);
      std::pair<ConfigId, uint32_t> Got =
          Canon.canon(Arena.internStore(G), Arena.internPaSet(Omega));
      EXPECT_EQ(Got.first, Arena.internConfig(Want))
          << "representative of " << Configuration(G, Omega).str()
          << ": got " << Arena.configuration(Got.first).str() << ", want "
          << Want.str();
      EXPECT_EQ(Got.second, Orbit) << Configuration(G, Omega).str();
    }
  // Most cases make the tie-break choose between distinct Ω images.
  EXPECT_GT(TiesWithDistinctImages, Stores.size() * Omegas.size() / 2);
}

} // namespace
