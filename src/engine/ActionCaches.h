//===- engine/ActionCaches.h - Interned transition/gate caches ---*- C++ -*-===//
///
/// \file
/// Memoization layers over interned state. Keys are a few integer-width
/// handles — an action identity, a StoreId, the args' PaId and, for
/// Ω-observing gates, Ω's PaSetId — so lookups cost a small hash of
/// machine words instead of deep structural hashing of stores and
/// argument tuples. Cached transitions are interned: the successor store
/// and created-PA multiset are handles, which makes transition-set
/// membership (the inner loop of the mover and IS checks) an integer
/// compare.
///
/// The gate memos key each gate on what it reads (Action.h's gate
/// footprint): a store-free gate keys on the NoStoreKey sentinel in place
/// of its store, so its verdict at one (args, Ω) is computed once for
/// every store; a gate that always holds skips the memo. A miss still
/// evaluates the gate at the real store. The reference checkers build
/// their GateCache with GateKeys::Exact, which keys and evaluates every
/// gate at its real store, so the differential tests between the two
/// paths check the declared footprints.
///
/// Transition relations never observe Ω and are pure functions of
/// (g, args), which is what makes the transition cache sound. User-supplied
/// transition enumerators are not required to be thread-safe: cache misses
/// serialize the underlying calls behind a single compute mutex, unless
/// the action declares Action::transitionsThreadSafe().
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_ACTIONCACHES_H
#define ISQ_ENGINE_ACTIONCACHES_H

#include "engine/OpenTable.h"
#include "engine/StateArena.h"
#include "engine/ThreadSlots.h"
#include "semantics/Action.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

namespace isq {
namespace engine {

/// Insert-only open-addressing memo with lock-free reads.
///
/// The checker's shared caches are read tens of millions of times but
/// written once per distinct key (misses are ~10% of lookups and already
/// pay a full evaluation), so the read path must not take a lock or chase
/// unordered_map buckets.
///
/// Stripes. The memo is NumStripes independent OpenTables (OpenTable.h)
/// picked by four bits of the mixed hash, so inserts and growth serialize
/// only the workers that hit the same stripe. The stripes start at
/// InitialStripeCap slots each (1 024 in all). OpenTable gives the
/// lock-free probe, the locked insert, and growth that frees the tables
/// a stripe outgrows (ThreadSlot hazards).
///
/// A reader that races an insert at worst misses, evaluates the pure
/// function itself, and lands on the existing entry under the stripe
/// lock: a benign double-compute. find() and insertWith() return the
/// value by copy, so no reference into a table outlives the call, and a
/// Make callback may insert into, and grow, another memo.
///
/// Slots. A slot is the 64-bit tag, the key and the value. A bool memo
/// keeps its value in tag bit 62 and has no value field, so a key of four
/// 32-bit words makes a 24-byte slot.
template <typename KeyT, typename ValueT> class FlatMemo {
  static constexpr bool ValueInTag = std::is_same_v<ValueT, bool>;
  struct KeyValue {
    KeyT K{};
    ValueT V{};
  };
  struct KeyOnly {
    KeyT K{};
  };
  using Payload = std::conditional_t<ValueInTag, KeyOnly, KeyValue>;
  using Stripe = OpenTable<Payload>;

public:
  static constexpr size_t NumStripes = 16;
  static constexpr size_t InitialStripeCap = 64;

  FlatMemo() = default;
  FlatMemo(const FlatMemo &) = delete;
  FlatMemo &operator=(const FlatMemo &) = delete;

  /// Lock-free lookup.
  std::optional<ValueT> find(const KeyT &K, uint64_t Hash) const {
    Hash = Stripe::mix(Hash);
    uint64_t Tag = tagOf(Hash);
    return Stripes[stripeOf(Hash)].find(Tag, matcher(K, Tag));
  }

  /// Inserts Make() under the stripe lock unless \p K raced in; returns
  /// the stored value either way. Make is only invoked on a genuine
  /// insert, while the lock of stripe stripeOfHash(Hash) is held.
  template <typename MakeV>
  ValueT insertWith(const KeyT &K, uint64_t Hash, MakeV Make) {
    Hash = Stripe::mix(Hash);
    Stripe &S = Stripes[stripeOf(Hash)];
    uint64_t Tag = tagOf(Hash);
    std::lock_guard<std::mutex> Lock(S.mutex());
    if (std::optional<ValueT> Raced = S.findLocked(Tag, matcher(K, Tag)))
      return *Raced; // racing miss computed the same pure value
    ValueT V = Make();
    if constexpr (ValueInTag)
      S.insertLocked(Tag | (V ? ValueBit : 0), KeyOnly{K});
    else
      S.insertLocked(Tag, KeyValue{K, V});
    return V;
  }

  ValueT insert(const KeyT &K, uint64_t Hash, ValueT V) {
    return insertWith(K, Hash, [&]() { return V; });
  }

  /// The stripe whose lock insertWith(K, \p Hash, ...) holds around Make.
  static size_t stripeOfHash(uint64_t Hash) {
    return stripeOf(Stripe::mix(Hash));
  }

  // Occupancy. Exact once no insert is in flight.
  size_t size() const {
    return sumOver([](const Stripe &S) { return S.size(); });
  }
  size_t capacity() const {
    return sumOver([](const Stripe &S) { return S.capacity(); });
  }
  size_t stripeCapacity(size_t I) const { return Stripes[I].capacity(); }
  static constexpr size_t slotBytes() { return Stripe::slotBytes(); }
  /// Slot bytes of every table allocated and not yet freed, superseded
  /// ones included; equals capacity() * slotBytes() once growth is done.
  size_t bytesHeld() const {
    return sumOver([](const Stripe &S) { return S.bytesHeld(); });
  }

private:
  // The tag is the mixed hash with the top bit forced on: nonzero marks
  // the slot live, and the untouched low bits keep the probe start
  // aligned with the hash so growth can re-place slots from tags alone.
  // Bits 58..61 pick the stripe; a bool memo stores its value in bit 62.
  static constexpr uint64_t ValueBit = ValueInTag ? uint64_t(1) << 62 : 0;
  static constexpr unsigned StripeShift = 58;

  static size_t stripeOf(uint64_t Mixed) {
    return (Mixed >> StripeShift) & (NumStripes - 1);
  }
  static uint64_t tagOf(uint64_t Mixed) {
    return (Mixed & ~ValueBit) | Stripe::LiveBit;
  }
  template <typename F> size_t sumOver(F Of) const {
    size_t Sum = 0;
    for (const Stripe &S : Stripes)
      Sum += Of(S);
    return Sum;
  }

  /// Matches \p K's slot on the probe path of \p Tag.
  static auto matcher(const KeyT &K, uint64_t Tag) {
    return [&K, Tag](uint64_t Tg, const Payload &P) -> std::optional<ValueT> {
      if ((Tg & ~ValueBit) != Tag || !(P.K == K))
        return std::nullopt;
      if constexpr (ValueInTag)
        return (Tg & ValueBit) != 0;
      else
        return P.V;
    };
  }

  struct DefaultStripe : Stripe {
    DefaultStripe() : Stripe(InitialStripeCap) {}
  };
  DefaultStripe Stripes[NumStripes];
};

/// A FlatMemo whose values live outside the table, at addresses that stay
/// valid for the memo's lifetime: a slot holds a pointer into per-stripe
/// storage, so the table can still grow and free what it outgrows while
/// callers keep references to the values.
template <typename KeyT, typename ValueT> class StableMemo {
public:
  const ValueT *find(const KeyT &K, uint64_t Hash) const {
    std::optional<const ValueT *> Found = Memo.find(K, Hash);
    return Found ? *Found : nullptr;
  }

  /// Stores \p V unless \p K raced in; returns the stored value either
  /// way (a racing double-compute keeps the first entry).
  const ValueT &insert(const KeyT &K, uint64_t Hash, ValueT V) {
    std::deque<ValueT> &Store = Storage[Memo.stripeOfHash(Hash)];
    return *Memo.insertWith(K, Hash, [&]() {
      Store.push_back(std::move(V));
      return &Store.back();
    });
  }

  /// Indexes \p External, which the caller keeps alive and unchanged for
  /// the memo's lifetime, unless \p K raced in; returns the indexed value
  /// either way.
  const ValueT &insertExternal(const KeyT &K, uint64_t Hash,
                               const ValueT &External) {
    return *Memo.insertWith(K, Hash, [&]() { return &External; });
  }

private:
  using Index = FlatMemo<KeyT, const ValueT *>;
  Index Memo;
  /// Storage[I] is mutated only under the lock of Memo's stripe I, and
  /// deque growth never moves settled elements.
  std::deque<ValueT> Storage[Index::NumStripes];
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

/// The memo key of an action evaluated at one point: the action instance
/// and (StoreId << 32) | args PaId.
struct ActionPointKey {
  const void *Action;
  uint64_t Sub;
  ActionPointKey(const isq::Action &A, StoreId G, PaId ArgsPa)
      : Action(&A), Sub((static_cast<uint64_t>(G) << 32) | ArgsPa) {}
  ActionPointKey() = default;
  bool operator==(const ActionPointKey &O) const {
    return Action == O.Action && Sub == O.Sub;
  }
  uint64_t hash() const {
    size_t Seed = reinterpret_cast<size_t>(Action);
    hashCombine(Seed, static_cast<size_t>(Sub));
    return Seed;
  }
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
    ActionPointKey K(A, G, ArgsPa);
    uint64_t Hash = K.hash();
    Lookups.add();
    if (const auto *Found = Memo.find(K, Hash)) {
      Hits.add();
      return *Found;
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
        IT.Created = Arena.internPaList(T.Created);
        IT.CreatedSet = Arena.internPaVec(IT.Created);
        Interned.push_back(std::move(IT));
      }
    }
    return Memo.insert(K, Hash, std::move(Interned));
  }

  /// Answers get(\p A, \p G, \p ArgsPa) from \p Interned: \p A's
  /// transitions from that point, interned by the caller, who keeps them
  /// alive and unchanged for the cache's lifetime. Counts as neither a
  /// lookup nor a hit.
  void seed(const Action &A, StoreId G, PaId ArgsPa,
            const std::vector<InternedTransition> &Interned) {
    ActionPointKey K(A, G, ArgsPa);
    Memo.insertExternal(K, K.hash(), Interned);
  }

  size_t lookups() const { return Lookups.load(); }
  size_t hits() const { return Hits.load(); }

private:
  StateArena &Arena;
  StableMemo<ActionPointKey, std::vector<InternedTransition>> Memo;
  /// Serializes calls into user transition enumerators.
  std::mutex ComputeMutex;
  StripedCounter Lookups;
  StripedCounter Hits;
};

/// The StoreId a gate memo key holds in place of a store-free gate's
/// store.
constexpr StoreId NoStoreKey = InvalidId;

/// The store a gate memo keys \p A's gate on when evaluated at \p G.
inline StoreId gateKeyStore(const Action &A, StoreId G) {
  return A.gateReadsStore() ? G : NoStoreKey;
}

/// How a GateCache keys the gates it memoizes.
enum class GateKeys : uint8_t {
  /// By footprint (the production checkers): a store-free gate keys on
  /// NoStoreKey, and a gate that always holds skips the memo.
  Footprint,
  /// By the real store, whatever the footprint (the reference checkers).
  Exact,
};

/// Memoizes Ω-independent gate evaluations per (action instance, StoreId,
/// args PaId), the StoreId keyed per \p Keys. Callers must only use this
/// for actions with gateReadsOmega() == false; Ω-observing gates must be
/// evaluated directly. Thread-safe; a racing double-compute is benign
/// (gates are pure functions of (g, args) under the contract).
class GateCache {
public:
  explicit GateCache(StateArena &Arena, GateKeys Keys = GateKeys::Footprint)
      : Arena(Arena), Keys(Keys) {}

  /// Evaluates (and memoizes) \p A's gate at (\p G, args of \p ArgsPa).
  /// \p OmegaForEval is materialized and passed through to the gate only
  /// on a miss — the result must not depend on it (gateReadsOmega() ==
  /// false).
  bool get(const Action &A, StoreId G, PaId ArgsPa, PaSetId OmegaForEval) {
    assert(!A.gateReadsOmega() && "GateCache requires an Ω-independent gate");
    StoreId KeyG = G;
    if (Keys == GateKeys::Footprint) {
      if (A.gateAlwaysHolds())
        return true;
      KeyG = gateKeyStore(A, G);
    }
    ActionPointKey K(A, KeyG, ArgsPa);
    uint64_t Hash = K.hash();
    if (std::optional<bool> Found = Memo.find(K, Hash))
      return *Found;
    bool Result = A.evalGate(Arena.store(G), Arena.pa(ArgsPa).Args,
                             Arena.paSet(OmegaForEval));
    return Memo.insert(K, Hash, Result);
  }

private:
  StateArena &Arena;
  GateKeys Keys;
  FlatMemo<ActionPointKey, bool> Memo;
};

/// Memoizes Ω-observing gate evaluations per (action instance, StoreId,
/// args PaId, PaSetId of Ω), keyed by footprint like a GateKeys::Footprint
/// GateCache (only the production checkers use this memo). Gates are pure
/// functions of (g, args, Ω) under the action contract, so keying on the
/// interned Ω extends GateCache to exactly the gates it must refuse. The
/// checker evaluates the same (gate, configuration) point once per mover
/// pair and once per condition; this cache collapses those repeats into a
/// single interpreter run. Thread-safe; a racing double-compute is benign
/// (purity).
///
/// This is the largest gate memo of a check, so its key is four 32-bit
/// words: the action instance is a dense per-cache id, and the bool lives
/// in the slot's tag (24-byte slots). Paxos's Ω-observing gates are all
/// store-free but ProposeAbs's: at R=2 N=3 the memo holds ≈28K entries in
/// 64K slots, at N=4 ≈121K in 256K (≈210K and ≈1.12M entries when every
/// gate keyed on its store).
class OmegaGateCache {
public:
  explicit OmegaGateCache(StateArena &Arena) : Arena(Arena) {}

  /// Evaluates (and memoizes) \p A's gate at (\p G, args of \p ArgsPa,
  /// multiset of \p Omega).
  bool get(const Action &A, StoreId G, PaId ArgsPa, PaSetId Omega) {
    if (A.gateAlwaysHolds())
      return true;
    Lookups.add();
    uint32_t Id = idOf(A);
    if (Id == InvalidId) // more gated actions than ids: evaluate directly
      return A.evalGate(Arena.store(G), Arena.pa(ArgsPa).Args,
                        Arena.paSet(Omega));
    Key K{Id, gateKeyStore(A, G), ArgsPa, Omega};
    uint64_t Hash = hashKey(K);
    if (std::optional<bool> Found = Memo.find(K, Hash)) {
      Hits.add();
      return *Found;
    }
    bool Result =
        A.evalGate(Arena.store(G), Arena.pa(ArgsPa).Args, Arena.paSet(Omega));
    return Memo.insert(K, Hash, Result);
  }

  size_t lookups() const { return Lookups.load(); }
  size_t hits() const { return Hits.load(); }

private:
  static constexpr size_t MaxActions = 64;

  struct Key {
    uint32_t Action; // idOf(action instance)
    StoreId G;
    PaId ArgsPa;
    PaSetId Omega;
    bool operator==(const Key &O) const {
      return Action == O.Action && G == O.G && ArgsPa == O.ArgsPa &&
             Omega == O.Omega;
    }
  };
  static uint64_t hashKey(const Key &K) {
    size_t Seed = (static_cast<size_t>(K.Action) << 32) | K.G;
    hashCombine(Seed, (static_cast<size_t>(K.ArgsPa) << 32) | K.Omega);
    return Seed;
  }

  /// The action's index in Actions, claiming the first free entry on its
  /// first use; InvalidId once all MaxActions entries hold other actions.
  /// Entries fill in index order and never change, so each action gets
  /// exactly one id.
  uint32_t idOf(const Action &A) {
    for (uint32_t I = 0; I < MaxActions; ++I) {
      const Action *Seen = Actions[I].load(std::memory_order_relaxed);
      if (!Seen && Actions[I].compare_exchange_strong(
                       Seen, &A, std::memory_order_relaxed))
        return I;
      if (Seen == &A)
        return I;
    }
    return InvalidId;
  }

  StateArena &Arena;
  std::atomic<const Action *> Actions[MaxActions] = {};
  FlatMemo<Key, bool> Memo;
  StripedCounter Lookups;
  StripedCounter Hits;
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
    if (std::optional<PaSetId> Found = Memo.find(K, Hash))
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
