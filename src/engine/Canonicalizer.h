//===- engine/Canonicalizer.h - Orbit representatives -----------*- C++ -*-===//
///
/// \file
/// The engine's one symmetry canonicalization: maps an interned raw
/// configuration (StoreId, PaSetId) to its orbit representative's
/// ConfigId and orbit size, without interning the raw configuration.
/// Exploration and the IS closure test use it; SymmetrySpec::canonical
/// is the value-level reference. Configurations compare store-first, so
/// only the permutations minimizing the store (usually one) touch Ω.
///
/// Stage 1 memoizes raw StoreId → (canonical StoreId, those
/// permutations). Stage 2 works on handles: it maps Ω's PaCountVec
/// through a memoized (PaId, permutation) → PaId image table, orders the
/// images exactly as PaMultiset's operator< orders their values (entries
/// in PA value order, never PaId order, which depends on interning
/// order), and interns the least one with internPaVec, so no value-level
/// multiset is built, permuted or re-interned. Stage 2 memoizes the raw
/// pair → (representative, orbit size), the orbit size by
/// orbit-stabilizer from the Ω images tying for least. Thread-safe; a
/// racing double-compute is benign (purity).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_ENGINE_CANONICALIZER_H
#define ISQ_ENGINE_CANONICALIZER_H

#include "engine/ActionCaches.h"
#include "semantics/Symmetry.h"

#include <utility>
#include <vector>

namespace isq {
namespace engine {

class Canonicalizer {
public:
  /// \p Arena and \p Sym must outlive the canonicalizer.
  Canonicalizer(StateArena &Arena, const SymmetrySpec &Sym)
      : Arena(Arena), Sym(Sym) {}

  /// The orbit representative of the configuration (\p G, \p Omega),
  /// interned, and the orbit's size.
  std::pair<ConfigId, uint32_t> canon(StoreId G, PaSetId Omega);

  /// The image of \p Pa under permutation Sym.perm(\p Perm), interned and
  /// memoized.
  PaId paImage(PaId Pa, uint32_t Perm);
  /// The image of \p Omega under permutation Sym.perm(\p Perm), interned.
  PaSetId paSetImage(PaSetId Omega, uint32_t Perm);

  const SymmetrySpec &symmetry() const { return Sym; }

  /// canon() calls, and those answered by stage 2's memo.
  uint64_t calls() const { return Calls.load(); }
  uint64_t hits() const { return Hits.load(); }

private:
  struct StoreCanon {
    StoreId Canon;
    std::vector<uint32_t> MinPerms;
  };

  /// \p Omega's entries mapped through permutation \p Perm, unsorted.
  PaCountVec mapped(const PaCountVec &Omega, uint32_t Perm);

  StateArena &Arena;
  const SymmetrySpec &Sym;
  StableMemo<StoreId, StoreCanon> Stores;
  FlatMemo<uint64_t, PaId> PaImages;
  FlatMemo<uint64_t, std::pair<ConfigId, uint32_t>> Configs;
  StripedCounter Calls;
  StripedCounter Hits;
};

} // namespace engine
} // namespace isq

#endif // ISQ_ENGINE_CANONICALIZER_H
