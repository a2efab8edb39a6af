//===- tests/canonicalizer_test.cpp - Orbit canonicalization tests --------===//
//
// Differential tests for engine::Canonicalizer (engine/Canonicalizer.h)
// against the value-level reference SymmetrySpec::canonical: over every
// configuration of the unreduced exploration of each shipped example that
// declares a symmetric sort, both must pick the same representative and
// the same orbit size. A 4-thread variant races every thread over the
// same inputs; run under -DISQ_SANITIZE=thread it is the canonicalizer's
// race check.
//
//===----------------------------------------------------------------------===//

#include "ShippedExamples.h"

#include "engine/Canonicalizer.h"
#include "engine/StateGraph.h"

#include <gtest/gtest.h>

#include <atomic>
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

/// SymmetrySpec::canonical's answer per input: the interned
/// representative and the orbit size.
std::vector<std::pair<ConfigId, uint32_t>>
referenceAnswers(Subject &S,
                 const std::vector<std::pair<StoreId, PaSetId>> &In) {
  StateArena &Arena = S.Graph.arena();
  std::vector<std::pair<ConfigId, uint32_t>> Want;
  for (auto [G, Omega] : In) {
    uint64_t Orbit = 0;
    Configuration Canon = S.Sym->canonical(
        Configuration(Arena.store(G), Arena.paSet(Omega)), &Orbit);
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

} // namespace
