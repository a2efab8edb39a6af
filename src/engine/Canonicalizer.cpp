//===- engine/Canonicalizer.cpp - Orbit representatives -------------------===//

#include "engine/Canonicalizer.h"

using namespace isq;
using namespace isq::engine;

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
  const PaMultiset &Om = Arena.paSet(Omega);
  PaMultiset BestOmega;
  uint32_t Ties = 0;
  for (uint32_t I : SC->MinPerms) {
    PaMultiset Img = I == 0 ? Om : Sym.permuteOmega(Om, Sym.perm(I));
    if (Ties == 0 || Img < BestOmega) {
      BestOmega = std::move(Img);
      Ties = 1;
    } else if (Img == BestOmega) {
      ++Ties;
    }
  }
  uint32_t Orbit = static_cast<uint32_t>(Sym.numPermutations()) / Ties;
  ConfigId Cid = Arena.internConfig(SC->Canon, Arena.internPaSet(BestOmega));
  return Configs.insert(Key, Key, {Cid, Orbit});
}
