//===- support/Symbol.h - Interned identifiers ------------------*- C++ -*-===//
//
// Part of the inductive-sequentialization project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned strings used for variable and action names. A Symbol is a small
/// integer index into a global table, so symbol comparison and hashing are
/// O(1) and stores can be kept as sorted vectors keyed by Symbol.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SUPPORT_SYMBOL_H
#define ISQ_SUPPORT_SYMBOL_H

#include <cassert>
#include <cstdint>
#include <string>

namespace isq {

/// An interned identifier. Default-constructed symbols are invalid.
class Symbol {
public:
  Symbol() = default;

  /// Interns \p Name and returns its symbol. Repeated calls with the same
  /// name return the same symbol.
  static Symbol get(const std::string &Name);

  /// Returns the interned name. The symbol must be valid.
  const std::string &str() const;

  /// Rebuilds a symbol from a previously obtained index() — e.g. a callee
  /// index stored in HIR. The index must have been issued by get() in
  /// this process.
  static Symbol fromIndex(uint32_t Index) { return Symbol(Index); }

  bool isValid() const { return Index != InvalidIndex; }
  uint32_t index() const {
    assert(isValid() && "querying index of invalid symbol");
    return Index;
  }

  friend bool operator==(Symbol A, Symbol B) { return A.Index == B.Index; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Index != B.Index; }
  friend bool operator<(Symbol A, Symbol B) { return A.Index < B.Index; }

private:
  static constexpr uint32_t InvalidIndex = UINT32_MAX;
  explicit Symbol(uint32_t Index) : Index(Index) {}

  uint32_t Index = InvalidIndex;
};

} // namespace isq

namespace std {
template <> struct hash<isq::Symbol> {
  size_t operator()(isq::Symbol S) const noexcept {
    return S.isValid() ? static_cast<size_t>(S.index()) + 1 : 0;
  }
};
} // namespace std

#endif // ISQ_SUPPORT_SYMBOL_H
