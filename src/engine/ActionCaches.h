//===- engine/ActionCaches.h - Interned transition/gate caches ---*- C++ -*-===//
///
/// \file
/// Memoization layers over interned state. Keys are (action identity,
/// StoreId, PaId-of-args) triples — three integer-width values — so
/// lookups cost a small hash of machine words instead of deep structural
/// hashing of stores and argument tuples. Cached transitions are interned:
/// the successor store and created-PA multiset are handles, which makes
/// transition-set membership (the inner loop of the mover and IS checks)
/// an integer compare.
///
/// Transition relations never observe Ω and are pure functions of
/// (g, args), which is what makes both caches sound. User-supplied
/// transition enumerators are not required to be thread-safe: cache misses
/// serialize the underlying calls behind a single compute mutex, unless
/// the action declares Action::transitionsThreadSafe().
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_ACTIONCACHES_H
#define ISQ_ENGINE_ACTIONCACHES_H

#include "engine/StateArena.h"
#include "semantics/Action.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <mutex>
#include <vector>

namespace isq {
namespace engine {

/// Insert-only open-addressing memo with lock-free reads.
///
/// The checker's shared caches are read tens of millions of times but
/// written once per distinct key (misses are ~10% of lookups and already
/// pay a full evaluation), so the read path must not take a lock or chase
/// unordered_map buckets. Each slot publishes a nonzero 64-bit tag with
/// release order after its key/value are written; readers probe with
/// acquire loads and never block. Inserts serialize behind a single
/// mutex. Growth copies live slots into a fresh table and swaps an atomic
/// table pointer; superseded tables are retired until destruction so
/// in-flight readers can finish probing them. A reader probing a stale
/// table at worst misses a freshly inserted entry, re-evaluates the pure
/// function, and finds the existing entry under the insert lock — the
/// same benign double-compute the locked design allowed.
template <typename KeyT, typename ValueT> class FlatMemo {
public:
  FlatMemo() : TableP(new Table(InitialCap)) {}
  ~FlatMemo() {
    delete TableP.load(std::memory_order_relaxed);
    for (Table *T : Retired)
      delete T;
  }
  FlatMemo(const FlatMemo &) = delete;
  FlatMemo &operator=(const FlatMemo &) = delete;

  /// Lock-free lookup; returns nullptr on miss.
  const ValueT *find(const KeyT &K, uint64_t Hash) const {
    Hash = mix(Hash);
    const Table *T = TableP.load(std::memory_order_acquire);
    uint64_t Tag = Hash | TopBit;
    for (size_t I = Hash & T->Mask;; I = (I + 1) & T->Mask) {
      const Slot &S = T->Slots[I];
      uint64_t Tg = S.Tag.load(std::memory_order_acquire);
      if (Tg == 0)
        return nullptr;
      if (Tg == Tag && S.K == K)
        return &S.V;
    }
  }

  /// Inserts Make() under the insert lock unless \p K raced in; returns
  /// the stored value either way. Make is only invoked on a genuine
  /// insert, while the lock is held.
  template <typename MakeV>
  const ValueT &insertWith(const KeyT &K, uint64_t Hash, MakeV Make) {
    Hash = mix(Hash);
    std::lock_guard<std::mutex> Lock(M);
    Table *T = TableP.load(std::memory_order_relaxed);
    if ((Size + 1) * 5 > T->Cap * 3) { // keep occupancy under 60%
      Table *N = new Table(T->Cap * 2);
      for (size_t I = 0; I < T->Cap; ++I) {
        Slot &S = T->Slots[I];
        if (uint64_t Tg = S.Tag.load(std::memory_order_relaxed))
          N->place(Tg, S.K, S.V);
      }
      Retired.push_back(T);
      // Publishes every (relaxed) write to N above: readers acquire the
      // table pointer before touching slots.
      TableP.store(N, std::memory_order_release);
      T = N;
    }
    uint64_t Tag = Hash | TopBit;
    for (size_t I = Hash & T->Mask;; I = (I + 1) & T->Mask) {
      Slot &S = T->Slots[I];
      uint64_t Tg = S.Tag.load(std::memory_order_relaxed);
      if (Tg == Tag && S.K == K)
        return S.V; // racing miss computed the same pure value
      if (Tg == 0) {
        S.K = K;
        S.V = Make();
        S.Tag.store(Tag, std::memory_order_release);
        ++Size;
        return S.V;
      }
    }
  }

  const ValueT &insert(const KeyT &K, uint64_t Hash, ValueT V) {
    return insertWith(K, Hash, [&]() { return V; });
  }

private:
  // The tag is the mixed hash with the top bit forced on: nonzero marks
  // the slot live, and the untouched low bits keep the probe start
  // aligned with the hash so growth can re-place slots from tags alone.
  static constexpr uint64_t TopBit = uint64_t(1) << 63;
  static constexpr size_t InitialCap = 1024;

  /// Murmur3 finalizer. Caller hashes combine structured, near-sequential
  /// ids whose low bits cluster badly under a power-of-two mask (a prime
  /// modulus map forgives that; open addressing does not), so the table
  /// avalanches every probe start itself.
  static uint64_t mix(uint64_t X) {
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return X;
  }

  struct Slot {
    std::atomic<uint64_t> Tag{0};
    KeyT K;
    ValueT V;
  };
  struct Table {
    explicit Table(size_t C) : Cap(C), Mask(C - 1), Slots(new Slot[C]) {}
    ~Table() { delete[] Slots; }
    /// Pre-publication placement during growth; the release store of the
    /// table pointer orders these writes for readers.
    void place(uint64_t Tg, const KeyT &K, const ValueT &V) {
      for (size_t I = Tg & Mask;; I = (I + 1) & Mask) {
        Slot &S = Slots[I];
        if (S.Tag.load(std::memory_order_relaxed) == 0) {
          S.K = K;
          S.V = V;
          S.Tag.store(Tg, std::memory_order_relaxed);
          return;
        }
      }
    }
    size_t Cap;
    size_t Mask;
    Slot *Slots;
  };

  std::atomic<Table *> TableP;
  std::mutex M;       // serializes inserts and growth
  size_t Size = 0;    // guarded by M
  std::vector<Table *> Retired; // guarded by M; freed at destruction
};

/// One interned element of a transition relation.
struct InternedTransition {
  /// Successor global store g'.
  StoreId Global;
  /// The created PAs as an interned multiset (for equality compares).
  PaSetId CreatedSet;
  /// The created PAs in engine form (for successor-Ω merging).
  PaCountVec Created;
};

/// Memoizes Action::transitions per (action instance, StoreId, args PaId)
/// in interned form. The referenced actions and arena must outlive the
/// cache. Thread-safe; concurrent misses for distinct keys serialize the
/// user-level enumerator calls.
class InternedTransitionCache {
public:
  explicit InternedTransitionCache(StateArena &Arena) : Arena(Arena) {}

  /// Returns (and memoizes) \p A's transitions from (\p G, args of
  /// \p ArgsPa). Only the argument tuple of \p ArgsPa is used; its action
  /// symbol need not match \p A (abstractions run under the subject's PA).
  const std::vector<InternedTransition> &get(const Action &A, StoreId G,
                                             PaId ArgsPa) {
    uint64_t Sub = (static_cast<uint64_t>(G) << 32) | ArgsPa;
    Key K{&A, Sub};
    uint64_t Hash = hashKey(K);
    Lookups.fetch_add(1, std::memory_order_relaxed);
    if (const auto *Found = Memo.find(K, Hash)) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      return **Found;
    }
    // Miss: enumerate, intern, then publish. Enumerators that do not
    // declare themselves thread-safe may share internal memo state and are
    // serialized under the compute mutex; thread-safe ones (compiled ASL
    // actions, derived schedule invariants) enumerate concurrently.
    std::vector<InternedTransition> Interned;
    {
      std::unique_lock<std::mutex> Compute(ComputeMutex, std::defer_lock);
      if (!A.transitionsThreadSafe())
        Compute.lock();
      const Store &Global = Arena.store(G);
      const std::vector<Value> &Args = Arena.pa(ArgsPa).Args;
      for (const Transition &T : A.transitions(Global, Args)) {
        InternedTransition IT;
        IT.Global = Arena.internStore(T.Global);
        PaCountVec Created;
        Created.reserve(T.Created.size());
        for (const PendingAsync &New : T.Created) {
          PaId Id = Arena.internPa(New);
          bool Merged = false;
          for (auto &[Existing, Count] : Created)
            if (Existing == Id) {
              ++Count;
              Merged = true;
              break;
            }
          if (!Merged)
            Created.emplace_back(Id, 1);
        }
        std::sort(Created.begin(), Created.end());
        IT.CreatedSet = Arena.internPaVec(Created);
        IT.Created = std::move(Created);
        Interned.push_back(std::move(IT));
      }
    }
    // The deque is only mutated here, under the memo's insert lock, and
    // deque growth never moves settled elements, so published pointers
    // stay valid. A racing double-compute keeps the first entry.
    return *Memo.insertWith(K, Hash, [&]() {
      Storage.push_back(std::move(Interned));
      return &Storage.back();
    });
  }

  size_t lookups() const { return Lookups.load(std::memory_order_relaxed); }
  size_t hits() const { return Hits.load(std::memory_order_relaxed); }

private:
  struct Key {
    const void *Action;
    uint64_t Sub; // (StoreId << 32) | ArgsPa
    bool operator==(const Key &O) const {
      return Action == O.Action && Sub == O.Sub;
    }
  };
  static uint64_t hashKey(const Key &K) {
    size_t Seed = reinterpret_cast<size_t>(K.Action);
    hashCombine(Seed, static_cast<size_t>(K.Sub));
    return Seed;
  }

  StateArena &Arena;
  FlatMemo<Key, std::vector<InternedTransition> *> Memo;
  /// Backing storage for the interned transition vectors; mutated only
  /// under the memo's insert lock.
  std::deque<std::vector<InternedTransition>> Storage;
  /// Serializes calls into user transition enumerators.
  std::mutex ComputeMutex;
  std::atomic<size_t> Lookups{0};
  std::atomic<size_t> Hits{0};
};

/// Memoizes Ω-independent gate evaluations per (action instance, StoreId,
/// args PaId). Callers must only use this for actions with
/// gateReadsOmega() == false; Ω-observing gates must be evaluated
/// directly. Thread-safe; a racing double-compute is benign (gates are
/// pure functions of (g, args) under the contract).
class GateCache {
public:
  explicit GateCache(StateArena &Arena) : Arena(Arena) {}

  /// Evaluates (and memoizes) \p A's gate at (\p G, args of \p ArgsPa).
  /// \p OmegaForEval is passed through to the gate on a miss — the result
  /// must not depend on it (gateReadsOmega() == false).
  bool get(const Action &A, StoreId G, PaId ArgsPa,
           const PaMultiset &OmegaForEval) {
    assert(!A.gateReadsOmega() && "GateCache requires an Ω-independent gate");
    uint64_t Sub = (static_cast<uint64_t>(G) << 32) | ArgsPa;
    Key K{&A, Sub};
    uint64_t Hash = hashKey(K);
    if (const bool *Found = Memo.find(K, Hash))
      return *Found;
    bool Result =
        A.evalGate(Arena.store(G), Arena.pa(ArgsPa).Args, OmegaForEval);
    return Memo.insert(K, Hash, Result);
  }

private:
  struct Key {
    const void *Action;
    uint64_t Sub;
    bool operator==(const Key &O) const {
      return Action == O.Action && Sub == O.Sub;
    }
  };
  static uint64_t hashKey(const Key &K) {
    size_t Seed = reinterpret_cast<size_t>(K.Action);
    hashCombine(Seed, static_cast<size_t>(K.Sub));
    return Seed;
  }

  StateArena &Arena;
  FlatMemo<Key, bool> Memo;
};

/// Memoizes Ω-observing gate evaluations per (action instance, StoreId,
/// args PaId, PaSetId of Ω). Gates are pure functions of (g, args, Ω) under
/// the action contract, so keying on the interned Ω extends GateCache to
/// exactly the gates it must refuse. The checker evaluates the same
/// (gate, configuration) point once per mover pair and once per condition;
/// this cache collapses those repeats into a single interpreter run.
/// Thread-safe; a racing double-compute is benign (purity).
class OmegaGateCache {
public:
  explicit OmegaGateCache(StateArena &Arena) : Arena(Arena) {}

  /// Evaluates (and memoizes) \p A's gate at (\p G, args of \p ArgsPa,
  /// multiset of \p Omega).
  bool get(const Action &A, StoreId G, PaId ArgsPa, PaSetId Omega) {
    Key K{&A, (static_cast<uint64_t>(G) << 32) | ArgsPa, Omega};
    uint64_t Hash = hashKey(K);
    Lookups.fetch_add(1, std::memory_order_relaxed);
    if (const bool *Found = Memo.find(K, Hash)) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      return *Found;
    }
    bool Result =
        A.evalGate(Arena.store(G), Arena.pa(ArgsPa).Args, Arena.paSet(Omega));
    return Memo.insert(K, Hash, Result);
  }

  size_t lookups() const { return Lookups.load(std::memory_order_relaxed); }
  size_t hits() const { return Hits.load(std::memory_order_relaxed); }

private:
  struct Key {
    const void *Action;
    uint64_t Sub; // (StoreId << 32) | ArgsPa
    PaSetId Omega;
    bool operator==(const Key &O) const {
      return Action == O.Action && Sub == O.Sub && Omega == O.Omega;
    }
  };
  static uint64_t hashKey(const Key &K) {
    size_t Seed = reinterpret_cast<size_t>(K.Action);
    hashCombine(Seed, static_cast<size_t>(K.Sub));
    hashCombine(Seed, static_cast<size_t>(K.Omega));
    return Seed;
  }

  StateArena &Arena;
  FlatMemo<Key, bool> Memo;
  std::atomic<size_t> Lookups{0};
  std::atomic<size_t> Hits{0};
};

/// Memoizes interned successor multisets Ω − executed ⊎ created, keyed on
/// the interned triple (Ω, executed PA, created multiset). Every mover
/// pair and every cooperation obligation re-derives the Ω that holds
/// after a step; distinct Ω's are far fewer than configurations, so the
/// multiset arithmetic and the arena intern amortize across every
/// configuration sharing an Ω. Thread-safe; a racing double-compute
/// interns the same id (interning is idempotent).
class SuccessorOmegaCache {
public:
  explicit SuccessorOmegaCache(StateArena &Arena) : Arena(Arena) {}

  /// Returns the interned multiset of \p Omega with one \p Executed
  /// removed and \p T's created PAs added.
  PaSetId get(PaSetId Omega, PaId Executed, const InternedTransition &T) {
    Key K{(static_cast<uint64_t>(Omega) << 32) | Executed, T.CreatedSet};
    uint64_t Hash = hashKey(K);
    if (const PaSetId *Found = Memo.find(K, Hash))
      return *Found;
    PaCountVec Rest(Arena.paVec(Omega));
    paCountVecErase(Rest, Executed);
    return Memo.insert(K, Hash,
                       Arena.internPaVec(paCountVecUnion(Rest, T.Created)));
  }

private:
  struct Key {
    uint64_t OmegaExec; // (Omega << 32) | Executed
    PaSetId Created;
    bool operator==(const Key &O) const {
      return OmegaExec == O.OmegaExec && Created == O.Created;
    }
  };
  static uint64_t hashKey(const Key &K) {
    size_t Seed = static_cast<size_t>(K.OmegaExec);
    hashCombine(Seed, static_cast<size_t>(K.Created));
    return Seed;
  }

  StateArena &Arena;
  FlatMemo<Key, PaSetId> Memo;
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_ACTIONCACHES_H
