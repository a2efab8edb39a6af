//===- semantics/Fingerprint.cpp - Stable semantic fingerprints ---------------===//

#include "semantics/Fingerprint.h"

#include "semantics/Store.h"

#include <algorithm>

using namespace isq;

namespace {

/// Murmur3's 64-bit finalizer: the word mixer of the whole scheme.
uint64_t fmix(uint64_t K) {
  K ^= K >> 33;
  K *= 0xff51afd7ed558ccdULL;
  K ^= K >> 33;
  K *= 0xc4ceb9fe1a85ec53ULL;
  K ^= K >> 33;
  return K;
}

uint64_t rotl(uint64_t X, unsigned R) { return (X << R) | (X >> (64 - R)); }

} // namespace

void FpHasher::absorb(uint64_t W) {
  // Two cross-fed lanes; every absorbed word perturbs both through the
  // full-width fmix, so single-bit input changes diffuse into all 128
  // output bits.
  A = fmix(A ^ (W + 0x2545f4914f6cdd1dULL));
  B = fmix(rotl(B, 29) + W) ^ rotl(A, 17);
  ++Len;
}

FpHasher &FpHasher::str(std::string_view S) {
  u64(S.size());
  uint64_t W = 0;
  unsigned N = 0;
  for (unsigned char C : S) {
    W |= static_cast<uint64_t>(C) << (8 * N);
    if (++N == 8) {
      absorb(W);
      W = 0;
      N = 0;
    }
  }
  if (N)
    absorb(W);
  return *this;
}

Fingerprint FpHasher::finish() const {
  Fingerprint F;
  F.Hi = fmix(A ^ fmix(B + Len));
  F.Lo = fmix(B ^ fmix(A + rotl(Len, 32)));
  if (F.isZero())
    F.Lo = 0x9e3779b97f4a7c15ULL; // reserve zero for "absent"
  return F;
}

Fingerprint isq::fingerprintValue(const Value &V) {
  FpHasher H("value/v1");
  // Explicit recursion via a worklist would obscure the structure; value
  // nesting is shallow in practice (protocol state), so plain recursion.
  struct Rec {
    static void feed(FpHasher &H, const Value &V) {
      H.u32(static_cast<uint32_t>(V.kind()));
      switch (V.kind()) {
      case ValueKind::Unit:
        break;
      case ValueKind::Bool:
        H.boolean(V.getBool());
        break;
      case ValueKind::Int:
        H.i64(V.getInt());
        break;
      case ValueKind::Tuple:
      case ValueKind::Set:
      case ValueKind::Seq:
        // Sets are canonically sorted by structural value order — a
        // content order, safe to absorb sequentially.
        H.u64(V.elems().size());
        for (const Value &E : V.elems())
          feed(H, E);
        break;
      case ValueKind::Option:
        H.boolean(V.isSome());
        if (V.isSome())
          feed(H, V.getSome());
        break;
      case ValueKind::Bag:
        H.u64(V.bagEntries().size());
        for (const auto &[Elem, Count] : V.bagEntries()) {
          feed(H, Elem);
          feed(H, Count);
        }
        break;
      case ValueKind::Map:
        H.u64(V.mapEntries().size());
        for (const auto &[Key, Val] : V.mapEntries()) {
          feed(H, Key);
          feed(H, Val);
        }
        break;
      }
    }
  };
  Rec::feed(H, V);
  return H.finish();
}

Fingerprint isq::fingerprintStore(const Store &G) {
  // Store entries sort by Symbol index (interning order): fold entry
  // fingerprints commutatively so the result is a pure function of the
  // (name, value) set.
  Fingerprint Acc = FpHasher("store/v1").u64(G.size()).finish();
  for (const auto &[Var, V] : G.entries()) {
    FpHasher Entry("store-entry/v1");
    Entry.str(Var.str());
    Entry.fp(fingerprintValue(V));
    Acc = combineUnordered(Acc, Entry.finish());
  }
  return Acc;
}

Fingerprint isq::fingerprintPendingAsync(const PendingAsync &PA) {
  FpHasher H("pa/v1");
  H.str(PA.Action.str());
  H.u64(PA.Args.size());
  for (const Value &Arg : PA.Args)
    H.fp(fingerprintValue(Arg));
  return H.finish();
}

Fingerprint isq::fingerprintPaMultiset(const PaMultiset &Omega) {
  // Entry order follows PendingAsync ordering, which compares Symbols by
  // interning index: commutative fold, like stores.
  Fingerprint Acc =
      FpHasher("omega/v1").u64(Omega.entries().size()).finish();
  for (const auto &[PA, Count] : Omega.entries()) {
    FpHasher Entry("omega-entry/v1");
    Entry.fp(fingerprintPendingAsync(PA));
    Entry.u64(Count);
    Acc = combineUnordered(Acc, Entry.finish());
  }
  return Acc;
}
