//===- is/Measure.h - Well-founded measures ----------------------*- C++ -*-===//
///
/// \file
/// Well-founded orders over configurations for the cooperation condition
/// (CO) of the IS rule. We implement the paper's "checking cooperation is
/// easy" pattern (§4): a measure maps a configuration to a tuple of
/// natural numbers — channel sizes and PA counts — compared
/// lexicographically. Such measures are well-founded and monotonic under
/// multiset union by construction. The driver builds one from each ASL
/// module's declared measure; the stock measures of the native protocols
/// are in protocols/Measures.h.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_IS_MEASURE_H
#define ISQ_IS_MEASURE_H

#include "semantics/Configuration.h"
#include "semantics/Fingerprint.h"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

namespace isq {

/// A lexicographic measure over configurations. decreases(A, B) is the
/// well-founded order A ≫ B.
class Measure {
public:
  using Fn = std::function<std::vector<uint64_t>(const Configuration &)>;

  Measure() = default;
  Measure(std::string Name, Fn Eval)
      : Name(std::move(Name)), Eval(std::move(Eval)) {}

  bool isValid() const { return static_cast<bool>(Eval); }
  const std::string &name() const { return Name; }

  std::vector<uint64_t> eval(const Configuration &C) const {
    assert(Eval && "evaluating invalid measure");
    return Eval(C);
  }

  /// True iff eval(A) > eval(B) lexicographically (A ≫ B).
  bool decreases(const Configuration &A, const Configuration &B) const {
    return decreases(eval(A), eval(B));
  }
  /// True iff tuple \p MA > tuple \p MB lexicographically, the shorter
  /// one padded with zeros.
  static bool decreases(const std::vector<uint64_t> &MA,
                        const std::vector<uint64_t> &MB) {
    for (size_t I = 0; I < std::max(MA.size(), MB.size()); ++I) {
      uint64_t VA = I < MA.size() ? MA[I] : 0;
      uint64_t VB = I < MB.size() ? MB[I] : 0;
      if (VA != VB)
        return VA > VB;
    }
    return false;
  }

  /// Content fingerprint of what Eval computes, when known (the frontend
  /// stamps it from the declaration the measure was built from). Zero
  /// means "unknown" and makes cooperation obligations ineligible for the
  /// verdict cache.
  const Fingerprint &fp() const { return Fp; }
  void setFp(const Fingerprint &F) { Fp = F; }

private:
  std::string Name;
  Fn Eval;
  Fingerprint Fp;
};

} // namespace isq

#endif // ISQ_IS_MEASURE_H
