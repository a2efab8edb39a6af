//===- engine/StateArena.h - Hash-consed state interning --------*- C++ -*-===//
///
/// \file
/// The interning substrate of the state-space engine. Stores, pending
/// asyncs, PA multisets and whole configurations are hash-consed into
/// arenas and addressed by dense 32-bit handles, so seen-set membership,
/// transition dedup and cache keys become integer compares instead of deep
/// structural hashing.
///
/// Sharding and lock-free reads. Every table is split into a runtime
/// number of shards (a power of two, at most 16) keyed by value hash.
/// Each shard stores its items in exponentially-growing blocks published
/// through atomic pointers, so an item, once placed, never moves and can
/// be addressed from any thread. A handle obtained through any
/// release/acquire channel (a mutex, a chunk's done flag) is safe to
/// dereference — the placing thread's writes happen-before the handle's
/// publication.
///
/// Lock-free hits. Each shard's index is an OpenTable of (hash tag,
/// local id) slots, the table FlatMemo's stripes use. An intern call
/// probes it without a lock and compares the candidates' items; most
/// calls are hits and end there. A miss takes the shard mutex, probes
/// again, appends the item and then publishes its slot with release
/// order, so a reader that sees the slot sees the item.
///
/// Handle layout: the low 4 bits hold the shard, the remaining 28 bits
/// index into the shard (≈268M entries per shard). The layout is fixed
/// regardless of the runtime shard count, so handles carry no
/// configuration dependence. Handles are only meaningful relative to the
/// arena that issued them.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_STATEARENA_H
#define ISQ_ENGINE_STATEARENA_H

#include "engine/OpenTable.h"
#include "engine/ThreadSlots.h"
#include "semantics/Configuration.h"
#include "support/Hashing.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace isq {
namespace engine {

/// Handle of an interned global store.
using StoreId = uint32_t;
/// Handle of an interned pending async (action name + argument tuple).
using PaId = uint32_t;
/// Handle of an interned PA multiset Ω.
using PaSetId = uint32_t;
/// Handle of an interned (StoreId, PaSetId) configuration.
using ConfigId = uint32_t;

constexpr uint32_t InvalidId = UINT32_MAX;

/// The interned form of a PA multiset: (PaId, multiplicity) pairs sorted by
/// PaId with strictly positive multiplicities. Canonical within one arena.
using PaCountVec = std::vector<std::pair<PaId, uint64_t>>;

/// Removes one occurrence of \p Pa from sorted \p Vec (which must contain
/// it).
void paCountVecErase(PaCountVec &Vec, PaId Pa);

/// Merges two sorted (PaId, count) vectors, summing multiplicities (Ω ⊎).
PaCountVec paCountVecUnion(const PaCountVec &A, const PaCountVec &B);

/// Snapshot of arena occupancy and hash-consing effectiveness.
struct ArenaStats {
  size_t Stores = 0;
  size_t Pas = 0;
  size_t PaSets = 0;
  size_t Configs = 0;
  /// Total intern calls across all tables and the hits among them (an
  /// intern call that found an existing entry). Hits/Lookups is the
  /// hash-cons hit rate.
  size_t Lookups = 0;
  size_t Hits = 0;
  /// The arena's configured shard count and the number of configuration
  /// shards holding at least one entry. Configurations shard by *value*
  /// hash (not by handle, which depends on interning order), so the
  /// occupancy is identical for every thread count and engine mode.
  unsigned Shards = 0;
  unsigned ShardOccupancy = 0;
};

/// Append-only item storage with lock-free indexing: items live in
/// exponentially-growing blocks (block k holds BaseSize<<k items)
/// published through atomic pointers, so a placed item never moves and
/// operator[] takes no lock. push_back must be externally serialized
/// (the owning shard's index mutex).
template <typename Item> class BlockStore {
public:
  /// 18 blocks of 1024<<k items cover the 2^28 ids a shard can issue.
  static constexpr size_t BaseLog = 10;
  static constexpr size_t MaxBlocks = 18;

  BlockStore() = default;
  BlockStore(const BlockStore &) = delete;
  BlockStore &operator=(const BlockStore &) = delete;
  ~BlockStore() {
    for (size_t K = 0; K < MaxBlocks; ++K)
      delete[] Blocks[K].load(std::memory_order_relaxed);
  }

  size_t size() const { return Count; }

  /// Appends \p V and returns its index. Caller holds the shard mutex.
  size_t push_back(Item V) {
    size_t Index = Count;
    auto [K, Offset] = locate(Index);
    Item *Block = Blocks[K].load(std::memory_order_relaxed);
    if (!Block) {
      Block = new Item[BlockStore::blockSize(K)];
      // Release: a reader that acquires this pointer sees constructed
      // slots (the item itself is published by the id's own channel).
      Blocks[K].store(Block, std::memory_order_release);
    }
    Block[Offset] = std::move(V);
    ++Count;
    return Index;
  }

  const Item &operator[](size_t Index) const {
    auto [K, Offset] = locate(Index);
    return Blocks[K].load(std::memory_order_acquire)[Offset];
  }
  Item &operator[](size_t Index) {
    auto [K, Offset] = locate(Index);
    return Blocks[K].load(std::memory_order_acquire)[Offset];
  }

private:
  static size_t blockSize(size_t K) { return size_t(1) << (BaseLog + K); }
  static std::pair<size_t, size_t> locate(size_t Index) {
    // Blocks hold 2^10, 2^11, ... items; Index+2^10 falls in
    // [2^(10+k), 2^(11+k)) exactly for block k.
    size_t Pos = Index + (size_t(1) << BaseLog);
    size_t K = 63 - static_cast<size_t>(__builtin_clzll(Pos)) - BaseLog;
    assert(K < MaxBlocks && "index beyond shard capacity");
    return {K, Pos - (size_t(1) << (BaseLog + K))};
  }

  std::atomic<Item *> Blocks[MaxBlocks] = {};
  size_t Count = 0;
};

/// Thread-safe hash-consing arenas for stores, PAs, PA multisets and
/// configurations. Append-only: interned values are never moved or freed
/// before the arena dies, so references returned by the accessors remain
/// valid for the arena's lifetime.
class StateArena {
public:
  static constexpr unsigned MaxShards = 16;

  /// \p Shards must be a power of two in [1, MaxShards].
  explicit StateArena(unsigned Shards = MaxShards);
  StateArena(const StateArena &) = delete;
  StateArena &operator=(const StateArena &) = delete;

  unsigned shards() const { return NumShardsRt; }

  // Interning --------------------------------------------------------------

  StoreId internStore(const Store &S);
  PaId internPa(const PendingAsync &PA);
  /// Interns a value-level multiset (also records its materialized form).
  PaSetId internPaSet(const PaMultiset &Omega);
  /// Interns an engine-form multiset; \p Vec must be sorted by PaId.
  PaSetId internPaVec(PaCountVec Vec);
  /// Interns each PA of \p List and returns the engine form of the
  /// multiset they make up (not itself interned).
  PaCountVec internPaList(const std::vector<PendingAsync> &List);
  ConfigId internConfig(StoreId G, PaSetId Omega);
  /// Interns a non-failure configuration.
  ConfigId internConfig(const Configuration &C);

  // Lookup -----------------------------------------------------------------

  // The hot accessors are inline: every checker loop dereferences handles.
  const Store &store(StoreId Id) const {
    return StoreShards[shardOf(Id)].Items[localOf(Id)].Value;
  }
  const PendingAsync &pa(PaId Id) const {
    return PaShards[shardOf(Id)].Items[localOf(Id)];
  }
  const PaCountVec &paVec(PaSetId Id) const {
    return PaSetShards[shardOf(Id)].Items[localOf(Id)].Vec;
  }
  /// The multiset as a value-level PaMultiset; materialized on first use
  /// and cached for the arena's lifetime.
  const PaMultiset &paSet(PaSetId Id) const;
  /// The multiset's distinct PaIds in canonical value order (the order a
  /// value-level PaMultiset iterates its entries). This order is intrinsic
  /// to the PAs, unlike PaId order, which depends on interning order —
  /// iterating it keeps exploration deterministic regardless of which
  /// worker thread interned a PA first. Materialized on first use.
  const std::vector<PaId> &paOrder(PaSetId Id) const;
  std::pair<StoreId, PaSetId> config(ConfigId Id) const {
    return ConfigShards[shardOf(Id)].Items[localOf(Id)];
  }
  /// Materializes the full (g, Ω) configuration (copies).
  Configuration configuration(ConfigId Id) const;

  /// The interned empty multiset (terminating configurations have this Ω).
  PaSetId emptyPaSet() const { return EmptyPaSet; }

  ArenaStats stats() const;

private:
  static constexpr uint32_t HandleShardBits = 4;
  static constexpr uint32_t HandleShardMask = MaxShards - 1;

  static uint32_t makeId(size_t Shard, size_t Local) {
    return static_cast<uint32_t>((Local << HandleShardBits) | Shard);
  }
  static size_t shardOf(uint32_t Id) { return Id & HandleShardMask; }
  static size_t localOf(uint32_t Id) { return Id >> HandleShardBits; }
  size_t shardFor(size_t Hash) const { return Hash & (NumShardsRt - 1); }

  struct StoreItem {
    Store Value;
    size_t ValueHash = 0;
  };

  struct PaSetItem {
    PaCountVec Vec;
    /// Order-insensitive hash of the multiset's *values* (independent of
    /// PaId assignment); feeds configuration sharding.
    size_t ValueHash = 0;
    /// Lazily materialized value form and value-ordered view, published
    /// by compare-and-swap.
    std::atomic<const PaMultiset *> Value{nullptr};
    std::atomic<const std::vector<PaId> *> Order{nullptr};

    PaSetItem() = default;
    PaSetItem(PaSetItem &&O) noexcept
        : Vec(std::move(O.Vec)), ValueHash(O.ValueHash),
          Value(O.Value.load(std::memory_order_relaxed)),
          Order(O.Order.load(std::memory_order_relaxed)) {
      O.Value.store(nullptr, std::memory_order_relaxed);
      O.Order.store(nullptr, std::memory_order_relaxed);
    }
    PaSetItem &operator=(PaSetItem &&O) noexcept {
      Vec = std::move(O.Vec);
      ValueHash = O.ValueHash;
      Value.store(O.Value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      Order.store(O.Order.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      O.Value.store(nullptr, std::memory_order_relaxed);
      O.Order.store(nullptr, std::memory_order_relaxed);
      return *this;
    }
    ~PaSetItem() {
      delete Value.load(std::memory_order_relaxed);
      delete Order.load(std::memory_order_relaxed);
    }
  };

  /// One shard of a hash-consing table: the lock-free index of local ids
  /// by hash tag, and the items themselves. The index's mutex serializes
  /// appends to Items.
  template <typename Item> struct Shard {
    /// Slots in a fresh shard's index (16 bytes each).
    static constexpr size_t InitialIndexCap = 16;
    Shard() : Index(InitialIndexCap) {}
    OpenTable<uint32_t> Index;
    BlockStore<Item> Items;
  };

  Shard<StoreItem> StoreShards[MaxShards];
  Shard<PendingAsync> PaShards[MaxShards];
  Shard<PaSetItem> PaSetShards[MaxShards];
  /// Config identity is the exact (StoreId, PaSetId) pair, which is also
  /// what the index hashes. The shard, however, is chosen by the
  /// configuration's *value* hash so per-shard populations do not depend
  /// on interning order.
  Shard<std::pair<StoreId, PaSetId>> ConfigShards[MaxShards];

  unsigned NumShardsRt;

  PaSetId EmptyPaSet = InvalidId;

  StripedCounter Lookups;
  StripedCounter Hits;

  /// Hash-conses into \p S, shard number \p ShardIdx of its table: the
  /// handle of the item on \p Hash's probe path that \p Same accepts, or
  /// of Make()'s item, appended under the shard mutex. Hits take no lock.
  template <typename Item, typename SameF, typename MakeF>
  uint32_t intern(Shard<Item> &S, size_t ShardIdx, uint64_t Hash, SameF Same,
                  MakeF Make);

  static size_t hashPaCountVec(const PaCountVec &Vec);
  size_t paValueHash(const PaCountVec &Vec) const;
  PaMultiset materialize(const PaCountVec &Vec) const;
  std::vector<PaId> orderOf(const PaCountVec &Vec) const;
};

/// A set of explored configurations over a shared arena: the interned
/// universe handed to the mover / refinement / IS checkers.
struct StateSpace {
  std::shared_ptr<StateArena> Arena;
  std::vector<ConfigId> Configs;
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_STATEARENA_H
