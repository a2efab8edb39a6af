//===- semantics/Fingerprint.h - Stable semantic fingerprints ----*- C++ -*-===//
///
/// \file
/// Canonical 128-bit fingerprints for the semantic objects a verification
/// obligation can depend on: values, stores, pending-async multisets,
/// configurations, symmetry specs, and (via the frontend) action bodies.
/// Fingerprints are the keys of the content-addressed obligation verdict
/// cache (engine/ObligationCache.h): a warm re-verification replays a
/// slice's recorded verdict exactly when every input the slice consumed
/// fingerprints identically, so the fingerprint must be a pure function of
/// *content* — stable across process restarts, interning orders, and
/// incidental edits.
///
/// Two stability rules follow, and every fingerprinter in this file obeys
/// them:
///
///  - Never hash an interned index. Symbol::index(), TypeId, and arena
///    handles (StoreId/PaId/...) depend on interning order, which depends
///    on compilation order and on which requests a process served first.
///    Symbols hash by their string; types by their rendered form; interned
///    state by its value content.
///  - Never hash an order that is itself index-derived. Store entries and
///    PA multiset entries sort by Symbol index, so collections keyed by
///    symbols fold with the commutative combineUnordered() instead of
///    sequential absorption.
///
/// The mixing is fixed explicitly (no std::hash, no platform-dependent
/// widths), so fingerprints are portable across builds of the same format
/// version. FpFormatVersion salts every hasher: bump it whenever the byte
/// stream fed for any object changes, and every cache key changes with it.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SEMANTICS_FINGERPRINT_H
#define ISQ_SEMANTICS_FINGERPRINT_H

#include "semantics/PendingAsync.h" // PaMultiset is a using-alias, not fwd-declarable

#include <cstdint>
#include <string>
#include <string_view>

namespace isq {

class Value;
class Store;
class Configuration;
class SymmetrySpec;

/// Version of the fingerprint byte streams. Part of every hasher's seed
/// and of the on-disk cache header: bumping it invalidates every
/// previously recorded verdict.
constexpr uint32_t FpFormatVersion = 1;

/// A 128-bit content fingerprint. Value-semantic and totally ordered so it
/// can key maps and be serialized directly.
struct Fingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Fingerprint &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }
  bool operator<(const Fingerprint &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }

  /// True for a default-constructed (never-assigned) fingerprint. The
  /// zero fingerprint is reserved as "absent": the hasher never produces
  /// it (finish() remaps it).
  bool isZero() const { return Hi == 0 && Lo == 0; }

  /// 32 lowercase hex digits, Hi first.
  std::string str() const;
};

/// Incremental fingerprint hasher. Deterministic across platforms and
/// process runs: absorbs explicit 64-bit words with fixed multipliers, no
/// std::hash anywhere. Not cryptographic — collision resistance is
/// "build-system grade" (the same bar content-addressed build caches
/// meet).
class FpHasher {
public:
  FpHasher() { u32(FpFormatVersion); }

  /// Seeds the stream with a domain-separation tag ("mover/v1", ...).
  explicit FpHasher(std::string_view Domain) : FpHasher() { str(Domain); }

  FpHasher &u64(uint64_t W) {
    absorb(W);
    return *this;
  }
  FpHasher &u32(uint32_t W) { return u64(W); }
  FpHasher &i64(int64_t W) { return u64(static_cast<uint64_t>(W)); }
  FpHasher &boolean(bool B) { return u64(B ? 1 : 0); }

  /// Absorbs length-prefixed bytes (no ambiguity between "ab","c" and
  /// "a","bc").
  FpHasher &str(std::string_view S);

  /// Absorbs a previously finished fingerprint.
  FpHasher &fp(const Fingerprint &F) { return u64(F.Hi).u64(F.Lo); }

  Fingerprint finish() const;

private:
  void absorb(uint64_t W);

  uint64_t A = 0x9e3779b97f4a7c15ULL;
  uint64_t B = 0xc6a4a7935bd1e995ULL;
  uint64_t Len = 0;
};

/// Commutative, associative fold of item fingerprints: the accumulator for
/// collections whose iteration order is interning-dependent (stores, PA
/// multisets, symbol-keyed maps). Items must themselves be finished
/// fingerprints (already well mixed).
inline Fingerprint combineUnordered(Fingerprint Acc, const Fingerprint &F) {
  Acc.Hi += F.Hi * 0x9ddfea08eb382d69ULL + 0x2545f4914f6cdd1dULL;
  Acc.Lo += F.Lo * 0xff51afd7ed558ccdULL + 0x9e3779b97f4a7c15ULL;
  return Acc;
}

// Fingerprinters for the semantic value domain. All are pure functions of
// content (see the file comment for the stability rules).
Fingerprint fingerprintValue(const Value &V);
Fingerprint fingerprintStore(const Store &G);
Fingerprint fingerprintPendingAsync(const PendingAsync &PA);
Fingerprint fingerprintPaMultiset(const PaMultiset &Omega);
Fingerprint fingerprintConfiguration(const Configuration &C);
/// Null spec fingerprints as a distinct constant (absent ≠ any real spec).
Fingerprint fingerprintSymmetry(const SymmetrySpec *Spec);

} // namespace isq

#endif // ISQ_SEMANTICS_FINGERPRINT_H
