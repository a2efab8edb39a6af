//===- engine/ArenaFingerprints.h - Memoized arena fingerprints --*- C++ -*-===//
///
/// \file
/// Content fingerprints for interned state, memoized per handle. The
/// obligation cache keys every scheduler slice by the *content* of the
/// interned stores/PAs/Ω-multisets the slice quantifies over
/// (semantics/Fingerprint.h explains why handles themselves are
/// unusable), and the same handle recurs across thousands of slices —
/// every co-pending pair in a configuration shares its store, every
/// context in a refinement universe shares most of its Ω's. This memo
/// computes each handle's fingerprint once and serves every later ask
/// with a lock-free probe.
///
/// Thread-safe under the same contract as the checker caches it sits
/// beside: fingerprinting is pure, so a racing double-compute produces
/// the identical value and FlatMemo keeps whichever insert wins.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_ARENAFINGERPRINTS_H
#define ISQ_ENGINE_ARENAFINGERPRINTS_H

#include "engine/ActionCaches.h"
#include "engine/StateArena.h"
#include "semantics/Fingerprint.h"

namespace isq {
namespace engine {

/// Handle → content fingerprint, memoized over one arena. The arena must
/// outlive the memo; entries are valid for the arena's lifetime (interned
/// state is immutable).
class ArenaFingerprints {
public:
  explicit ArenaFingerprints(StateArena &Arena) : Arena(Arena) {}

  Fingerprint store(StoreId Id) {
    if (std::optional<Fingerprint> F = Stores.find(Id, Id))
      return *F;
    return Stores.insertWith(Id, Id,
                             [&] { return fingerprintStore(Arena.store(Id)); });
  }

  Fingerprint pa(PaId Id) {
    if (std::optional<Fingerprint> F = Pas.find(Id, Id))
      return *F;
    return Pas.insertWith(
        Id, Id, [&] { return fingerprintPendingAsync(Arena.pa(Id)); });
  }

  Fingerprint paSet(PaSetId Id) {
    if (std::optional<Fingerprint> F = PaSets.find(Id, Id))
      return *F;
    return PaSets.insertWith(
        Id, Id, [&] { return fingerprintPaMultiset(Arena.paSet(Id)); });
  }

  /// A configuration's fingerprint: its store's and its Ω's, under the
  /// "config/v1" domain.
  Fingerprint config(ConfigId Id) {
    if (std::optional<Fingerprint> F = Configs.find(Id, Id))
      return *F;
    return Configs.insertWith(Id, Id, [&] {
      auto [G, Omega] = Arena.config(Id);
      FpHasher H("config/v1");
      H.boolean(false); // interned configurations are never failures
      H.fp(store(G));
      H.fp(paSet(Omega));
      return H.finish();
    });
  }

  StateArena &arena() { return Arena; }

private:
  StateArena &Arena;
  FlatMemo<StoreId, Fingerprint> Stores;
  FlatMemo<PaId, Fingerprint> Pas;
  FlatMemo<PaSetId, Fingerprint> PaSets;
  FlatMemo<ConfigId, Fingerprint> Configs;
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_ARENAFINGERPRINTS_H
