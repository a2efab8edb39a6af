//===- engine/Canonicalizer.cpp - Orbit representatives -------------------===//

#include "engine/Canonicalizer.h"

#include <algorithm>

using namespace isq;
using namespace isq::engine;

PaId Canonicalizer::paImage(PaId Pa, uint32_t Perm) {
  if (Perm == 0)
    return Pa; // the identity
  uint64_t Key = (static_cast<uint64_t>(Pa) << 32) | Perm;
  if (std::optional<PaId> Found = PaImages.find(Key, Key))
    return *Found;
  return PaImages.insert(
      Key, Key,
      Arena.internPa(Sym.permutePendingAsync(Arena.pa(Pa), Sym.perm(Perm))));
}

PaCountVec Canonicalizer::mapped(const PaCountVec &Omega, uint32_t Perm) {
  // A permutation is injective on PAs, so the image has as many distinct
  // entries as Omega and no counts merge.
  PaCountVec Img;
  Img.reserve(Omega.size());
  for (const auto &[Pa, Count] : Omega)
    Img.emplace_back(paImage(Pa, Perm), Count);
  return Img;
}

PaSetId Canonicalizer::paSetImage(PaSetId Omega, uint32_t Perm) {
  if (Perm == 0)
    return Omega;
  PaCountVec Img = mapped(Arena.paVec(Omega), Perm);
  std::sort(Img.begin(), Img.end());
  return Arena.internPaVec(std::move(Img));
}

std::pair<ConfigId, uint32_t> Canonicalizer::canon(StoreId G,
                                                   PaSetId Omega) {
  Calls.add();
  uint64_t Key = (static_cast<uint64_t>(G) << 32) | Omega;
  if (std::optional<std::pair<ConfigId, uint32_t>> Found =
          Configs.find(Key, Key)) {
    Hits.add();
    return *Found;
  }
  // Stage 1: the canonical store and the permutations that reach it.
  const StoreCanon *SC = Stores.find(G, G);
  if (!SC) {
    StoreCanon New;
    New.Canon =
        Arena.internStore(Sym.canonicalStore(Arena.store(G), New.MinPerms));
    SC = &Stores.insert(G, G, std::move(New));
  }
  // Stage 2: the least Ω image under those permutations.
  const PaCountVec &Om = Arena.paVec(Omega);
  // Best is the least image in engine form (sorted by PaId); BestByValue
  // is the same image sorted by PA value, kept only while images tie on
  // the store.
  PaCountVec Best, BestByValue;
  uint32_t Ties = 0;
  // PaMultiset's operator< compares its (PA, count) entries, sorted by PA
  // value, lexicographically. Interned PAs are equal iff their ids are,
  // so only distinct ids need a value compare.
  auto ValueLess = [this](const std::pair<PaId, uint64_t> &A,
                          const std::pair<PaId, uint64_t> &B) {
    if (A.first != B.first)
      return Arena.pa(A.first) < Arena.pa(B.first);
    return A.second < B.second;
  };
  for (uint32_t I : SC->MinPerms) {
    PaCountVec Img = mapped(Om, I);
    std::sort(Img.begin(), Img.end());
    if (Ties > 0 && Img == Best) { // equal multisets: no value compare
      ++Ties;
      continue;
    }
    if (SC->MinPerms.size() == 1) {
      Best = std::move(Img);
      Ties = 1;
      break;
    }
    PaCountVec ImgByValue = Img;
    std::sort(ImgByValue.begin(), ImgByValue.end(), ValueLess);
    if (Ties == 0 || std::lexicographical_compare(
                         ImgByValue.begin(), ImgByValue.end(),
                         BestByValue.begin(), BestByValue.end(), ValueLess)) {
      Best = std::move(Img);
      BestByValue = std::move(ImgByValue);
      Ties = 1;
    }
  }
  uint32_t Orbit = static_cast<uint32_t>(Sym.numPermutations()) / Ties;
  ConfigId Cid =
      Arena.internConfig(SC->Canon, Arena.internPaVec(std::move(Best)));
  return Configs.insert(Key, Key, {Cid, Orbit});
}
