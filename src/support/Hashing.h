//===- support/Hashing.h - Hash combinators ---------------------*- C++ -*-===//
///
/// \file
/// Small hash-combination utilities used to hash stores, values and
/// configurations for explicit-state deduplication.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SUPPORT_HASHING_H
#define ISQ_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace isq {

/// Mixes \p Value into the running hash \p Seed (boost::hash_combine style,
/// with a 64-bit multiplier for better dispersion).
inline void hashCombine(size_t &Seed, size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
}

/// Hashes \p V with std::hash and mixes it into \p Seed.
template <typename T> void hashCombineValue(size_t &Seed, const T &V) {
  hashCombine(Seed, std::hash<T>{}(V));
}

} // namespace isq

#endif // ISQ_SUPPORT_HASHING_H
