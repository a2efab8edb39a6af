//===- semantics/Symmetry.h - Orbit-canonical symmetry reduction -*- C++ -*-===//
///
/// \file
/// Scalarset-style symmetry reduction for the explicit-state engine. A
/// protocol built from interchangeable nodes declares one symmetric
/// node-ID sort (a finite integer domain); every permutation π of that
/// domain then acts on values, stores, pending asyncs and configurations,
/// and the engine explores the quotient graph by interning only the
/// lexicographically least image of each configuration (the *orbit
/// representative*).
///
/// Soundness rests on equivariance: if every action's gate and transition
/// relation commutes with π (succ(π·c) = π·succ(c)) and the initial store
/// is π-invariant, then the set of reachable orbits, the failure verdict,
/// and every π-invariant predicate (terminal-store membership up to π,
/// measure decrease with an orbit-invariant measure, commutation of
/// equivariant actions) coincide between the reduced and unreduced runs.
/// Equivariance is not checked statically; the `symmetry=false` unreduced
/// path is kept as a differential oracle (see DESIGN.md "Symmetry
/// reduction").
///
/// A SymmetrySpec describes *where* node IDs live: a ValueShape per global
/// variable and per action-argument position marks the Id leaves inside
/// each value tree. Positions not covered by a shape are fixed points.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_SEMANTICS_SYMMETRY_H
#define ISQ_SEMANTICS_SYMMETRY_H

#include "semantics/Configuration.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace isq {

/// A type skeleton locating symmetric node IDs inside a value. Shapes are
/// immutable and share their children; the `fixed` flag (no Id anywhere in
/// the subtree) lets the permutation short-circuit whole subtrees.
class ValueShape {
public:
  enum class Kind : uint8_t {
    Plain,  ///< No node IDs anywhere below (any value kind).
    Id,     ///< An Int drawn from the symmetric sort.
    Tuple,  ///< Per-element child shapes.
    Option, ///< One child: the payload shape.
    Set,    ///< One child: the element shape.
    Bag,    ///< One child: the element shape.
    Seq,    ///< One child: the element shape.
    Map,    ///< Two children: key shape, value shape.
  };

  /// Default: a plain (permutation-fixed) value.
  ValueShape() = default;

  static ValueShape plain() { return ValueShape(); }
  static ValueShape id();
  static ValueShape tuple(std::vector<ValueShape> Elems);
  static ValueShape option(ValueShape Payload);
  static ValueShape setOf(ValueShape Elem);
  static ValueShape bagOf(ValueShape Elem);
  static ValueShape seqOf(ValueShape Elem);
  static ValueShape mapOf(ValueShape Key, ValueShape Val);

  Kind kind() const { return K; }
  /// True when no Id occurs in this subtree: permutation is the identity.
  bool fixed() const { return Fixed; }
  size_t numChildren() const { return Children ? Children->size() : 0; }
  const ValueShape &child(size_t I) const {
    assert(Children && I < Children->size() && "shape child out of range");
    return (*Children)[I];
  }

private:
  ValueShape(Kind K, bool Fixed,
             std::shared_ptr<const std::vector<ValueShape>> Children)
      : K(K), Fixed(Fixed), Children(std::move(Children)) {}
  /// A \p K shape over \p Children, fixed iff every child is.
  static ValueShape compound(Kind K, std::vector<ValueShape> Children);

  Kind K = Kind::Plain;
  bool Fixed = true;
  std::shared_ptr<const std::vector<ValueShape>> Children;
};

/// The declared symmetry of a program: one symmetric sort (name + finite
/// integer domain), the shapes of the global variables and action
/// arguments that mention it, and the induced group action on
/// configurations. Immutable once attached to a Program (the engine shares
/// it across threads).
class SymmetrySpec {
public:
  /// Domains are capped so the full permutation group stays enumerable
  /// (8! = 40320 images per canonicalization in the worst case).
  static constexpr size_t MaxDomainSize = 8;

  /// \p Domain is the set of node IDs (deduplicated and sorted here);
  /// must be non-empty and at most MaxDomainSize elements.
  SymmetrySpec(std::string SortName, std::vector<int64_t> Domain);

  /// Declares the shape of global variable \p Var. Unshaped variables are
  /// fixed points.
  void setGlobalShape(Symbol Var, ValueShape Shape);
  /// Declares the per-argument shapes of action \p Name. Unshaped actions
  /// have all-plain arguments.
  void setActionShape(Symbol Name, std::vector<ValueShape> ArgShapes);

  const std::string &sortName() const { return SortName; }
  const std::vector<int64_t> &domain() const { return Domain; }
  size_t numPermutations() const { return Perms.size(); }
  /// The \p I-th permutation as an image vector; perm(0) is the identity.
  const std::vector<int64_t> &perm(size_t I) const { return Perms[I]; }

  /// The declared argument shapes of action \p Name, or null when the
  /// action carries no node IDs. Consumers (e.g. the driver's measure)
  /// use this to keep their own functions orbit-invariant.
  const std::vector<ValueShape> *actionShapes(Symbol Name) const {
    auto It = ActionShapes.find(Name);
    return It == ActionShapes.end() ? nullptr : &It->second;
  }

  /// Applies the permutation Domain[i] → Image[i] to \p V along \p Shape.
  /// Ints at Id positions outside the domain are fixed points (the action
  /// remains a group action on all values).
  Value permuteValue(const Value &V, const ValueShape &Shape,
                     const std::vector<int64_t> &Image) const;
  Store permuteStore(const Store &G, const std::vector<int64_t> &Image) const;
  PendingAsync permutePendingAsync(const PendingAsync &PA,
                                   const std::vector<int64_t> &Image) const;

  /// The lexicographically least image of \p G over the full group;
  /// \p MinPerms receives the indices of every permutation achieving it
  /// (the coset of the canonical store's stabilizer, never empty).
  /// Configurations compare store-first, so canonicalizing a
  /// configuration only has to permute Ω under these permutations
  /// (engine::Canonicalizer; its naive reference is reference::canonical,
  /// reference/Symmetry.h).
  Store canonicalStore(const Store &G, std::vector<uint32_t> &MinPerms) const;

  /// All distinct images of \p G, sorted. Used by the refinement
  /// cross-check to expand a canonical terminal store back to its orbit.
  std::vector<Store> storeOrbit(const Store &G) const;

  /// True iff every permutation fixes \p G. Checked via the adjacent
  /// transpositions (which generate the full group).
  bool isInvariantStore(const Store &G) const;

private:
  int64_t mapId(const std::vector<int64_t> &Image, int64_t N) const;

  std::string SortName;
  /// Sorted, distinct node IDs.
  std::vector<int64_t> Domain;
  /// Every permutation as an image vector (Domain[i] → Perms[p][i]);
  /// Perms[0] is the identity.
  std::vector<std::vector<int64_t>> Perms;
  std::unordered_map<Symbol, ValueShape> GlobalShapes;
  std::unordered_map<Symbol, std::vector<ValueShape>> ActionShapes;
};

} // namespace isq

#endif // ISQ_SEMANTICS_SYMMETRY_H
