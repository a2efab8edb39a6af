//===- semantics/Value.h - Dynamic protocol values --------------*- C++ -*-===//
///
/// \file
/// The value domain D of the paper's stores (§3). Values are immutable,
/// canonical (sets/bags/maps are kept sorted), totally ordered and hashable,
/// so stores and configurations can be deduplicated structurally during
/// explicit-state exploration. Compound values share their payload via
/// shared_ptr; "mutating" operations return new values.
///
/// Supported kinds: unit, bool, int, tuple, option, set, bag (multiset),
/// map (finite function), seq (FIFO list). Bags model the paper's
/// out-of-order channels; seqs model FIFO queues (Producer-Consumer).
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SEMANTICS_VALUE_H
#define ISQ_SEMANTICS_VALUE_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace isq {

/// Discriminator for Value. Used as a type tag; values of different kinds
/// compare by kind first.
enum class ValueKind : uint8_t {
  Unit,
  Bool,
  Int,
  Tuple,
  Option,
  Set,
  Bag,
  Map,
  Seq,
};

/// An immutable dynamic value.
class Value {
public:
  /// Default-constructs the unit value.
  Value() : Kind(ValueKind::Unit) {}

  // Constructors ----------------------------------------------------------

  static Value unit() { return Value(); }
  static Value boolean(bool B);
  static Value integer(int64_t N);
  /// An ordered, fixed-arity product.
  static Value tuple(std::vector<Value> Elems);
  /// The empty option.
  static Value none();
  /// An option holding \p Payload.
  static Value some(Value Payload);
  /// Builds a set; duplicates are collapsed.
  static Value set(std::vector<Value> Elems);
  /// Builds a bag (multiset); duplicates accumulate multiplicity.
  static Value bag(const std::vector<Value> &Elems);
  /// Builds a map; keys must be distinct.
  static Value map(std::vector<std::pair<Value, Value>> Pairs);
  /// Builds a FIFO sequence preserving order.
  static Value seq(std::vector<Value> Elems);

  // Inspectors ------------------------------------------------------------

  ValueKind kind() const { return Kind; }
  bool isUnit() const { return Kind == ValueKind::Unit; }

  bool getBool() const {
    assert(Kind == ValueKind::Bool && "not a bool");
    return Scalar != 0;
  }
  int64_t getInt() const {
    assert(Kind == ValueKind::Int && "not an int");
    return Scalar;
  }

  /// Tuple/seq/set element access (sets are in sorted order).
  size_t size() const;
  const Value &elem(size_t I) const;
  const std::vector<Value> &elems() const;

  /// Option access.
  bool isNone() const;
  bool isSome() const;
  const Value &getSome() const;

  // Set operations (value must be a set) -----------------------------------

  bool setContains(const Value &Elem) const;
  Value setInsert(const Value &Elem) const;
  Value setErase(const Value &Elem) const;
  uint64_t setSize() const { return size(); }
  /// True if this set is a subset of \p Other.
  bool setIsSubsetOf(const Value &Other) const;

  // Bag operations (value must be a bag) ------------------------------------

  /// Total number of elements counting multiplicity.
  uint64_t bagSize() const;
  uint64_t bagCount(const Value &Elem) const;
  Value bagInsert(const Value &Elem, uint64_t Count = 1) const;
  /// Removes \p Count copies; asserts enough copies exist.
  Value bagErase(const Value &Elem, uint64_t Count = 1) const;
  /// Distinct elements with their multiplicities, sorted.
  const std::vector<std::pair<Value, Value>> &bagEntries() const;
  /// Flattens to elements repeated per multiplicity.
  std::vector<Value> bagFlatten() const;
  /// Enumerates all sub-bags of exactly \p K elements (as bags). Used for
  /// nondeterministic receive of K messages from a channel.
  std::vector<Value> bagSubBagsOfSize(uint64_t K) const;

  // Map operations (value must be a map) ------------------------------------

  std::optional<Value> mapGet(const Value &Key) const;
  /// Lookup that asserts presence.
  const Value &mapAt(const Value &Key) const;
  bool mapContains(const Value &Key) const;
  Value mapSet(const Value &Key, const Value &Val) const;
  Value mapErase(const Value &Key) const;
  uint64_t mapSize() const;
  std::vector<Value> mapKeys() const;
  const std::vector<std::pair<Value, Value>> &mapEntries() const;

  // Seq operations (value must be a seq) -------------------------------------

  uint64_t seqSize() const { return size(); }
  const Value &seqFront() const;
  Value seqPushBack(const Value &Elem) const;
  Value seqPopFront() const;

  // Structural operations ----------------------------------------------------

  friend bool operator==(const Value &A, const Value &B);
  friend bool operator!=(const Value &A, const Value &B) { return !(A == B); }
  friend bool operator<(const Value &A, const Value &B);

  size_t hash() const;

  /// Renders the value for diagnostics, e.g. "bag{1, 2:x3}" or "(1, true)".
  std::string str() const;

private:
  struct Payload {
    /// Tuple/Option/Set/Seq elements (sets sorted).
    std::vector<Value> Elems;
    /// Map entries sorted by key; for bags, value is the Int multiplicity.
    std::vector<std::pair<Value, Value>> Pairs;
    /// Lazily memoized structural hash of the whole value (0 = not yet
    /// computed). Payloads are immutable after construction, so the memo
    /// is safe to share across copies.
    mutable size_t HashMemo = 0;
  };

  static int compare(const Value &A, const Value &B);

  ValueKind Kind;
  int64_t Scalar = 0;
  std::shared_ptr<const Payload> Data;
};

} // namespace isq

namespace std {
template <> struct hash<isq::Value> {
  size_t operator()(const isq::Value &V) const noexcept { return V.hash(); }
};
} // namespace std

#endif // ISQ_SEMANTICS_VALUE_H
