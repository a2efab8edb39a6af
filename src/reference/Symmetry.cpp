//===- reference/Symmetry.cpp - Naive orbit canonicalization ----------------===//

#include "reference/Symmetry.h"

#include <algorithm>

using namespace isq;

PaMultiset reference::permuteOmega(const SymmetrySpec &Spec,
                                   const PaMultiset &Omega,
                                   const std::vector<int64_t> &Image) {
  PaMultiset Out;
  for (const auto &[PA, Count] : Omega.entries())
    Out.insert(Spec.permutePendingAsync(PA, Image), Count);
  return Out;
}

Configuration reference::permuteConfiguration(
    const SymmetrySpec &Spec, const Configuration &C,
    const std::vector<int64_t> &Image) {
  if (C.isFailure())
    return C;
  return Configuration(Spec.permuteStore(C.global(), Image),
                       permuteOmega(Spec, C.pendingAsyncs(), Image));
}

Configuration reference::canonical(const SymmetrySpec &Spec,
                                   const Configuration &C,
                                   uint64_t *OrbitSize) {
  std::vector<Configuration> Images;
  Images.reserve(Spec.numPermutations());
  for (size_t I = 0; I < Spec.numPermutations(); ++I)
    Images.push_back(permuteConfiguration(Spec, C, Spec.perm(I)));
  std::sort(Images.begin(), Images.end());
  Images.erase(std::unique(Images.begin(), Images.end()), Images.end());
  if (OrbitSize)
    *OrbitSize = Images.size();
  return Images.front();
}
