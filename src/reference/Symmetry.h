//===- reference/Symmetry.h - Naive orbit canonicalization -------*- C++ -*-===//
///
/// \file
/// The group action of a SymmetrySpec on whole configurations, and the
/// naive orbit representative: every image enumerated and the least one
/// kept. engine::Canonicalizer, which permutes only Ω under the
/// permutations minimizing the store, is tested against it. Part of
/// isq_reference, which only tests, benches and examples link.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_REFERENCE_SYMMETRY_H
#define ISQ_REFERENCE_SYMMETRY_H

#include "semantics/Symmetry.h"

#include <cstdint>
#include <vector>

namespace isq {
namespace reference {

/// Applies the permutation \p Image of \p Spec's domain to every pending
/// async in \p Omega.
PaMultiset permuteOmega(const SymmetrySpec &Spec, const PaMultiset &Omega,
                        const std::vector<int64_t> &Image);

/// Applies the permutation \p Image to \p C's store and Ω. The failure
/// configuration is a fixed point.
Configuration permuteConfiguration(const SymmetrySpec &Spec,
                                   const Configuration &C,
                                   const std::vector<int64_t> &Image);

/// The orbit representative of \p C, the lexicographically least image
/// over the full group, found by enumerating every image. When
/// \p OrbitSize is non-null it receives the number of distinct images.
/// Failure configurations are their own orbit.
Configuration canonical(const SymmetrySpec &Spec, const Configuration &C,
                        uint64_t *OrbitSize = nullptr);

} // namespace reference
} // namespace isq

#endif // ISQ_REFERENCE_SYMMETRY_H
