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

StoreId StateArena::internStore(const Store &S) {
  size_t Hash = S.hash(); // memoized inside Store
  Lookups.add();
  size_t SIdx = shardFor(Hash);
  auto &Shard = StoreShards[SIdx];
  std::lock_guard<std::mutex> Lock(Shard.M);
  std::vector<uint32_t> &Bucket = Shard.Buckets[Hash];
  for (uint32_t Local : Bucket)
    if (Shard.Items[Local].Value == S) {
      Hits.add();
      return makeId(SIdx, Local);
    }
  size_t Local = Shard.Items.push_back({S, Hash});
  Shard.Items[Local].Value.hash(); // memoize before sharing
  Bucket.push_back(static_cast<uint32_t>(Local));
  return makeId(SIdx, Local);
}

PaId StateArena::internPa(const PendingAsync &PA) {
  size_t Hash = PA.hash();
  Lookups.add();
  auto &Shard = PaShards[shardFor(Hash)];
  std::lock_guard<std::mutex> Lock(Shard.M);
  std::vector<uint32_t> &Bucket = Shard.Buckets[Hash];
  for (uint32_t Local : Bucket)
    if (Shard.Items[Local] == PA) {
      Hits.add();
      return makeId(shardFor(Hash), Local);
    }
  size_t Local = Shard.Items.push_back(PA);
  // Memoize the argument-value hashes on the stored copy before any other
  // thread can reach it, so later concurrent hash() calls are pure reads.
  Shard.Items[Local].hash();
  Bucket.push_back(static_cast<uint32_t>(Local));
  return makeId(shardFor(Hash), Local);
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

PaSetId StateArena::internPaVec(PaCountVec Vec) {
  assert(std::is_sorted(Vec.begin(), Vec.end()) && "PaCountVec not canonical");
  size_t Hash = hashPaCountVec(Vec);
  Lookups.add();
  size_t SIdx = shardFor(Hash);
  auto &Shard = PaSetShards[SIdx];
  std::lock_guard<std::mutex> Lock(Shard.M);
  std::vector<uint32_t> &Bucket = Shard.Buckets[Hash];
  for (uint32_t Local : Bucket)
    if (Shard.Items[Local].Vec == Vec) {
      Hits.add();
      return makeId(SIdx, Local);
    }
  PaSetItem Item;
  // pa() reads are lock-free, so computing the value hash under this
  // shard's mutex cannot deadlock.
  Item.ValueHash = paValueHash(Vec);
  Item.Vec = std::move(Vec);
  size_t Local = Shard.Items.push_back(std::move(Item));
  Bucket.push_back(static_cast<uint32_t>(Local));
  return makeId(SIdx, Local);
}

ConfigId StateArena::internConfig(StoreId G, PaSetId Omega) {
  // Shard by the configuration's value hash — ids depend on interning
  // order (racy under parallel interning), values do not, so per-shard
  // populations (and the shard-occupancy stat) stay deterministic.
  size_t Hash = StoreShards[shardOf(G)].Items[localOf(G)].ValueHash;
  hashCombine(Hash, PaSetShards[shardOf(Omega)].Items[localOf(Omega)].ValueHash);
  uint64_t Key = (static_cast<uint64_t>(G) << 32) | Omega;
  Lookups.add();
  auto &Shard = ConfigShards[shardFor(Hash)];
  std::lock_guard<std::mutex> Lock(Shard.M);
  auto It = Shard.Index.find(Key);
  if (It != Shard.Index.end()) {
    Hits.add();
    return makeId(shardFor(Hash), It->second);
  }
  size_t Local = Shard.Items.push_back({G, Omega});
  Shard.Index.emplace(Key, static_cast<uint32_t>(Local));
  return makeId(shardFor(Hash), Local);
}

ConfigId StateArena::internConfig(const Configuration &C) {
  assert(!C.isFailure() && "cannot intern the failure configuration");
  return internConfig(internStore(C.global()), internPaSet(C.pendingAsyncs()));
}

const Store &StateArena::store(StoreId Id) const {
  return StoreShards[shardOf(Id)].Items[localOf(Id)].Value;
}

const PendingAsync &StateArena::pa(PaId Id) const {
  return PaShards[shardOf(Id)].Items[localOf(Id)];
}

const PaCountVec &StateArena::paVec(PaSetId Id) const {
  return PaSetShards[shardOf(Id)].Items[localOf(Id)].Vec;
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

std::pair<StoreId, PaSetId> StateArena::config(ConfigId Id) const {
  return ConfigShards[shardOf(Id)].Items[localOf(Id)];
}

Configuration StateArena::configuration(ConfigId Id) const {
  auto [G, Omega] = config(Id);
  return Configuration(store(G), paSet(Omega));
}

ArenaStats StateArena::stats() const {
  ArenaStats S;
  S.Shards = NumShardsRt;
  for (size_t I = 0; I < NumShardsRt; ++I) {
    std::lock_guard<std::mutex> LS(StoreShards[I].M);
    S.Stores += StoreShards[I].Items.size();
  }
  for (size_t I = 0; I < NumShardsRt; ++I) {
    std::lock_guard<std::mutex> LP(PaShards[I].M);
    S.Pas += PaShards[I].Items.size();
  }
  for (size_t I = 0; I < NumShardsRt; ++I) {
    std::lock_guard<std::mutex> LO(PaSetShards[I].M);
    S.PaSets += PaSetShards[I].Items.size();
  }
  for (size_t I = 0; I < NumShardsRt; ++I) {
    std::lock_guard<std::mutex> LC(ConfigShards[I].M);
    S.Configs += ConfigShards[I].Items.size();
    if (ConfigShards[I].Items.size() > 0)
      ++S.ShardOccupancy;
  }
  S.Lookups = Lookups.load();
  S.Hits = Hits.load();
  return S;
}
