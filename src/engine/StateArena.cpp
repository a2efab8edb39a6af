//===- engine/StateArena.cpp - Hash-consed state interning -------------------===//

#include "engine/StateArena.h"

#include <algorithm>
#include <cassert>

using namespace isq;
using namespace isq::engine;

void engine::paCountVecErase(PaCountVec &Vec, PaId Pa) {
  auto It = std::lower_bound(
      Vec.begin(), Vec.end(), Pa,
      [](const std::pair<PaId, uint64_t> &E, PaId Id) { return E.first < Id; });
  assert(It != Vec.end() && It->first == Pa && "erasing absent PA");
  if (--It->second == 0)
    Vec.erase(It);
}

PaCountVec engine::paCountVecUnion(const PaCountVec &A, const PaCountVec &B) {
  PaCountVec Out;
  Out.reserve(A.size() + B.size());
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I].first < B[J].first)
      Out.push_back(A[I++]);
    else if (B[J].first < A[I].first)
      Out.push_back(B[J++]);
    else {
      Out.emplace_back(A[I].first, A[I].second + B[J].second);
      ++I, ++J;
    }
  }
  for (; I < A.size(); ++I)
    Out.push_back(A[I]);
  for (; J < B.size(); ++J)
    Out.push_back(B[J]);
  return Out;
}

size_t StateArena::hashPaCountVec(const PaCountVec &Vec) {
  size_t Seed = 0x811c9dc5;
  for (const auto &[Id, Count] : Vec) {
    hashCombine(Seed, Id);
    hashCombine(Seed, static_cast<size_t>(Count));
  }
  return Seed;
}

size_t StateArena::paValueHash(const PaCountVec &Vec) const {
  // Summed per-entry mix: insensitive to entry order and to the PaId
  // assignment (which depends on interning order), so the hash is a pure
  // function of the multiset value.
  size_t Sum = 0;
  for (const auto &[Id, Count] : Vec) {
    size_t Entry = pa(Id).hash();
    hashCombine(Entry, static_cast<size_t>(Count));
    Sum += Entry;
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// StateArena
//===----------------------------------------------------------------------===//

StateArena::StateArena(unsigned Shards) : NumShardsRt(Shards) {
  assert(Shards >= 1 && Shards <= MaxShards &&
         (Shards & (Shards - 1)) == 0 && "shard count must be a power of "
                                         "two in [1, 16]");
  EmptyPaSet = internPaVec({});
}

template <typename Item, typename SameF, typename MakeF>
uint32_t StateArena::intern(Shard<Item> &S, size_t ShardIdx, uint64_t Hash,
                            SameF Same, MakeF Make) {
  uint64_t Tag = OpenTable<uint32_t>::mix(Hash) | OpenTable<uint32_t>::LiveBit;
  auto Match = [&](uint64_t SlotTag,
                   uint32_t Local) -> std::optional<uint32_t> {
    if (SlotTag == Tag && Same(S.Items[Local]))
      return Local;
    return std::nullopt;
  };
  Lookups.add();
  std::optional<uint32_t> Local = S.Index.find(Tag, Match);
  if (!Local) {
    std::lock_guard<std::mutex> Lock(S.Index.mutex());
    Local = S.Index.findLocked(Tag, Match);
    if (!Local) {
      // The item is complete before its slot is published.
      Local = static_cast<uint32_t>(S.Items.push_back(Make()));
      S.Index.insertLocked(Tag, *Local);
      return makeId(ShardIdx, *Local);
    }
  }
  Hits.add();
  return makeId(ShardIdx, *Local);
}

StoreId StateArena::internStore(const Store &S) {
  size_t Hash = S.hash(); // memoized inside Store
  size_t ShardIdx = shardFor(Hash);
  return intern(
      StoreShards[ShardIdx], ShardIdx, Hash,
      [&](const StoreItem &It) { return It.Value == S; },
      // The copy carries the memoized hash, so concurrent hash() calls on
      // the shared item are pure reads.
      [&]() { return StoreItem{S, Hash}; });
}

PaId StateArena::internPa(const PendingAsync &PA) {
  // Memoizes the argument-value hashes, which the stored copy shares, so
  // later concurrent hash() calls are pure reads.
  size_t Hash = PA.hash();
  size_t ShardIdx = shardFor(Hash);
  return intern(
      PaShards[ShardIdx], ShardIdx, Hash,
      [&](const PendingAsync &It) { return It == PA; }, [&]() { return PA; });
}

PaSetId StateArena::internPaSet(const PaMultiset &Omega) {
  PaCountVec Vec;
  Vec.reserve(Omega.entries().size());
  for (const auto &[PA, Count] : Omega.entries())
    Vec.emplace_back(internPa(PA), Count);
  std::sort(Vec.begin(), Vec.end());
  PaSetId Id = internPaVec(std::move(Vec));
  // We already hold the value form: record it so paSet() never has to
  // materialize this entry.
  PaSetItem &Item = PaSetShards[shardOf(Id)].Items[localOf(Id)];
  if (!Item.Value.load(std::memory_order_acquire)) {
    const PaMultiset *Fresh = new PaMultiset(Omega);
    const PaMultiset *Expected = nullptr;
    if (!Item.Value.compare_exchange_strong(Expected, Fresh,
                                            std::memory_order_release,
                                            std::memory_order_acquire))
      delete Fresh;
  }
  return Id;
}

PaCountVec StateArena::internPaList(const std::vector<PendingAsync> &List) {
  PaCountVec Vec;
  Vec.reserve(List.size());
  for (const PendingAsync &PA : List)
    Vec.emplace_back(internPa(PA), 1);
  std::sort(Vec.begin(), Vec.end());
  // Fold repeats of one PA into a count.
  size_t Out = 0;
  for (size_t I = 0; I < Vec.size(); ++I) {
    if (Out > 0 && Vec[Out - 1].first == Vec[I].first)
      Vec[Out - 1].second += Vec[I].second;
    else
      Vec[Out++] = Vec[I];
  }
  Vec.resize(Out);
  return Vec;
}

PaSetId StateArena::internPaVec(PaCountVec Vec) {
  assert(std::is_sorted(Vec.begin(), Vec.end()) && "PaCountVec not canonical");
  size_t Hash = hashPaCountVec(Vec);
  size_t ShardIdx = shardFor(Hash);
  return intern(
      PaSetShards[ShardIdx], ShardIdx, Hash,
      [&](const PaSetItem &It) { return It.Vec == Vec; },
      [&]() {
        PaSetItem Item;
        // pa() reads are lock-free, so computing the value hash under
        // this shard's mutex cannot deadlock.
        Item.ValueHash = paValueHash(Vec);
        Item.Vec = std::move(Vec);
        return Item;
      });
}

ConfigId StateArena::internConfig(StoreId G, PaSetId Omega) {
  // Shard by the configuration's value hash — ids depend on interning
  // order (racy under parallel interning), values do not, so per-shard
  // populations (and the shard-occupancy stat) stay deterministic.
  size_t ValueHash = StoreShards[shardOf(G)].Items[localOf(G)].ValueHash;
  hashCombine(ValueHash,
              PaSetShards[shardOf(Omega)].Items[localOf(Omega)].ValueHash);
  std::pair<StoreId, PaSetId> Key{G, Omega};
  size_t ShardIdx = shardFor(ValueHash);
  return intern(
      ConfigShards[ShardIdx], ShardIdx,
      (static_cast<uint64_t>(G) << 32) | Omega,
      [&](const std::pair<StoreId, PaSetId> &It) { return It == Key; },
      [&]() { return Key; });
}

ConfigId StateArena::internConfig(const Configuration &C) {
  assert(!C.isFailure() && "cannot intern the failure configuration");
  return internConfig(internStore(C.global()), internPaSet(C.pendingAsyncs()));
}

PaMultiset StateArena::materialize(const PaCountVec &Vec) const {
  PaMultiset Omega;
  for (const auto &[Id, Count] : Vec)
    Omega.insert(pa(Id), Count);
  return Omega;
}

const PaMultiset &StateArena::paSet(PaSetId Id) const {
  const PaSetItem &Item = PaSetShards[shardOf(Id)].Items[localOf(Id)];
  if (const PaMultiset *Hit = Item.Value.load(std::memory_order_acquire))
    return *Hit;
  const PaMultiset *Fresh = new PaMultiset(materialize(Item.Vec));
  const PaMultiset *Expected = nullptr;
  // Racing materializations build identical values; the loser's copy dies.
  if (!const_cast<PaSetItem &>(Item).Value.compare_exchange_strong(
          Expected, Fresh, std::memory_order_release,
          std::memory_order_acquire)) {
    delete Fresh;
    return *Expected;
  }
  return *Fresh;
}

std::vector<PaId> StateArena::orderOf(const PaCountVec &Vec) const {
  std::vector<PaId> Order;
  Order.reserve(Vec.size());
  for (const auto &[PaIdOf, Count] : Vec) {
    (void)Count;
    Order.push_back(PaIdOf);
  }
  std::sort(Order.begin(), Order.end(),
            [this](PaId A, PaId B) { return pa(A) < pa(B); });
  return Order;
}

const std::vector<PaId> &StateArena::paOrder(PaSetId Id) const {
  const PaSetItem &Item = PaSetShards[shardOf(Id)].Items[localOf(Id)];
  if (const std::vector<PaId> *Hit =
          Item.Order.load(std::memory_order_acquire))
    return *Hit;
  const std::vector<PaId> *Fresh =
      new std::vector<PaId>(orderOf(Item.Vec));
  const std::vector<PaId> *Expected = nullptr;
  if (!const_cast<PaSetItem &>(Item).Order.compare_exchange_strong(
          Expected, Fresh, std::memory_order_release,
          std::memory_order_acquire)) {
    delete Fresh;
    return *Expected;
  }
  return *Fresh;
}

Configuration StateArena::configuration(ConfigId Id) const {
  auto [G, Omega] = config(Id);
  return Configuration(store(G), paSet(Omega));
}

ArenaStats StateArena::stats() const {
  ArenaStats S;
  S.Shards = NumShardsRt;
  for (size_t I = 0; I < NumShardsRt; ++I) {
    S.Stores += StoreShards[I].Index.size();
    S.Pas += PaShards[I].Index.size();
    S.PaSets += PaSetShards[I].Index.size();
    size_t Configs = ConfigShards[I].Index.size();
    S.Configs += Configs;
    if (Configs > 0)
      ++S.ShardOccupancy;
  }
  S.Lookups = Lookups.load();
  S.Hits = Hits.load();
  return S;
}
