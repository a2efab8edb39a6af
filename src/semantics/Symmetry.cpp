//===- semantics/Symmetry.cpp - Orbit-canonical symmetry reduction -----------===//

#include "semantics/Symmetry.h"

#include <algorithm>

using namespace isq;

ValueShape ValueShape::id() {
  return ValueShape(Kind::Id, /*Fixed=*/false, nullptr);
}

ValueShape ValueShape::compound(Kind K, std::vector<ValueShape> Children) {
  bool Fixed = std::all_of(Children.begin(), Children.end(),
                           [](const ValueShape &S) { return S.fixed(); });
  return ValueShape(K, Fixed,
                    std::make_shared<const std::vector<ValueShape>>(
                        std::move(Children)));
}

ValueShape ValueShape::tuple(std::vector<ValueShape> Elems) {
  return compound(Kind::Tuple, std::move(Elems));
}
ValueShape ValueShape::option(ValueShape Payload) {
  return compound(Kind::Option, {std::move(Payload)});
}
ValueShape ValueShape::setOf(ValueShape Elem) {
  return compound(Kind::Set, {std::move(Elem)});
}
ValueShape ValueShape::bagOf(ValueShape Elem) {
  return compound(Kind::Bag, {std::move(Elem)});
}
ValueShape ValueShape::seqOf(ValueShape Elem) {
  return compound(Kind::Seq, {std::move(Elem)});
}
ValueShape ValueShape::mapOf(ValueShape Key, ValueShape Val) {
  return compound(Kind::Map, {std::move(Key), std::move(Val)});
}

SymmetrySpec::SymmetrySpec(std::string SortName, std::vector<int64_t> Domain)
    : SortName(std::move(SortName)), Domain(std::move(Domain)) {
  std::sort(this->Domain.begin(), this->Domain.end());
  this->Domain.erase(std::unique(this->Domain.begin(), this->Domain.end()),
                     this->Domain.end());
  assert(!this->Domain.empty() && "symmetric sort needs a non-empty domain");
  assert(this->Domain.size() <= MaxDomainSize &&
         "symmetric domain exceeds the enumerable-group cap");
  // std::next_permutation enumerates from the sorted vector, so the
  // identity comes first.
  std::vector<int64_t> Image = this->Domain;
  do {
    Perms.push_back(Image);
  } while (std::next_permutation(Image.begin(), Image.end()));
}

void SymmetrySpec::setGlobalShape(Symbol Var, ValueShape Shape) {
  GlobalShapes[Var] = std::move(Shape);
}

void SymmetrySpec::setActionShape(Symbol Name,
                                  std::vector<ValueShape> ArgShapes) {
  ActionShapes[Name] = std::move(ArgShapes);
}

int64_t SymmetrySpec::mapId(const std::vector<int64_t> &Image,
                            int64_t N) const {
  auto It = std::lower_bound(Domain.begin(), Domain.end(), N);
  if (It == Domain.end() || *It != N)
    return N; // out-of-domain IDs are fixed points
  return Image[static_cast<size_t>(It - Domain.begin())];
}

Value SymmetrySpec::permuteValue(const Value &V, const ValueShape &Shape,
                                 const std::vector<int64_t> &Image) const {
  if (Shape.fixed())
    return V;
  switch (Shape.kind()) {
  case ValueShape::Kind::Plain:
    return V;
  case ValueShape::Kind::Id:
    if (V.kind() != ValueKind::Int)
      return V;
    return Value::integer(mapId(Image, V.getInt()));
  case ValueShape::Kind::Tuple: {
    assert(V.kind() == ValueKind::Tuple && "shape/value kind mismatch");
    assert(V.size() == Shape.numChildren() && "tuple arity mismatch");
    std::vector<Value> Elems;
    Elems.reserve(V.size());
    for (size_t I = 0; I < V.size(); ++I)
      Elems.push_back(permuteValue(V.elem(I), Shape.child(I), Image));
    return Value::tuple(std::move(Elems));
  }
  case ValueShape::Kind::Option: {
    assert(V.kind() == ValueKind::Option && "shape/value kind mismatch");
    if (V.isNone())
      return V;
    return Value::some(permuteValue(V.getSome(), Shape.child(0), Image));
  }
  case ValueShape::Kind::Set: {
    assert(V.kind() == ValueKind::Set && "shape/value kind mismatch");
    std::vector<Value> Elems;
    Elems.reserve(V.size());
    for (const Value &Elem : V.elems())
      Elems.push_back(permuteValue(Elem, Shape.child(0), Image));
    // Value::set re-sorts, restoring the canonical form.
    return Value::set(std::move(Elems));
  }
  case ValueShape::Kind::Bag: {
    assert(V.kind() == ValueKind::Bag && "shape/value kind mismatch");
    Value Out = Value::bag({});
    for (const auto &[Elem, Count] : V.bagEntries())
      Out = Out.bagInsert(permuteValue(Elem, Shape.child(0), Image),
                          static_cast<uint64_t>(Count.getInt()));
    return Out;
  }
  case ValueShape::Kind::Seq: {
    assert(V.kind() == ValueKind::Seq && "shape/value kind mismatch");
    std::vector<Value> Elems;
    Elems.reserve(V.size());
    for (const Value &Elem : V.elems())
      Elems.push_back(permuteValue(Elem, Shape.child(0), Image));
    return Value::seq(std::move(Elems));
  }
  case ValueShape::Kind::Map: {
    assert(V.kind() == ValueKind::Map && "shape/value kind mismatch");
    std::vector<std::pair<Value, Value>> Pairs;
    Pairs.reserve(V.mapSize());
    // π is injective, so permuted keys stay distinct; Value::map re-sorts.
    for (const auto &[Key, Val] : V.mapEntries())
      Pairs.emplace_back(permuteValue(Key, Shape.child(0), Image),
                         permuteValue(Val, Shape.child(1), Image));
    return Value::map(std::move(Pairs));
  }
  }
  assert(false && "unknown shape kind");
  return V;
}

Store SymmetrySpec::permuteStore(const Store &G,
                                 const std::vector<int64_t> &Image) const {
  // Rebuild the (already sorted) entry vector in one pass rather than
  // paying a full-store copy per shaped variable via Store::set.
  std::vector<std::pair<Symbol, Value>> Vars;
  Vars.reserve(G.size());
  bool Changed = false;
  for (const auto &[Var, Val] : G.entries()) {
    auto It = GlobalShapes.find(Var);
    if (It == GlobalShapes.end() || It->second.fixed()) {
      Vars.emplace_back(Var, Val);
      continue;
    }
    Vars.emplace_back(Var, permuteValue(Val, It->second, Image));
    Changed = Changed || Vars.back().second != Val;
  }
  if (!Changed)
    return G;
  return Store::make(std::move(Vars));
}

PendingAsync
SymmetrySpec::permutePendingAsync(const PendingAsync &PA,
                                  const std::vector<int64_t> &Image) const {
  auto It = ActionShapes.find(PA.Action);
  if (It == ActionShapes.end())
    return PA;
  const std::vector<ValueShape> &Shapes = It->second;
  assert(Shapes.size() == PA.Args.size() &&
         "action argument shape arity mismatch");
  std::vector<Value> Args;
  Args.reserve(PA.Args.size());
  bool Changed = false;
  for (size_t I = 0; I < PA.Args.size(); ++I) {
    Args.push_back(permuteValue(PA.Args[I], Shapes[I], Image));
    Changed = Changed || Args.back() != PA.Args[I];
  }
  if (!Changed)
    return PA;
  return PendingAsync(PA.Action, std::move(Args));
}

Store SymmetrySpec::canonicalStore(const Store &G,
                                   std::vector<uint32_t> &MinPerms) const {
  Store Best = G; // Perms[0] is the identity
  MinPerms.assign(1, 0);
  for (size_t I = 1; I < Perms.size(); ++I) {
    Store Img = permuteStore(G, Perms[I]);
    if (Img < Best) {
      Best = std::move(Img);
      MinPerms.assign(1, static_cast<uint32_t>(I));
    } else if (Img == Best) {
      MinPerms.push_back(static_cast<uint32_t>(I));
    }
  }
  return Best;
}

std::vector<Store>
SymmetrySpec::storeOrbit(const Store &G) const {
  std::vector<Store> Images;
  Images.reserve(Perms.size());
  Images.push_back(G);
  for (size_t I = 1; I < Perms.size(); ++I)
    Images.push_back(permuteStore(G, Perms[I]));
  std::sort(Images.begin(), Images.end());
  Images.erase(std::unique(Images.begin(), Images.end()), Images.end());
  return Images;
}

bool SymmetrySpec::isInvariantStore(const Store &G) const {
  // The adjacent transpositions generate the full symmetric group, so a
  // store fixed by each of them is fixed by every permutation.
  for (size_t I = 0; I + 1 < Domain.size(); ++I) {
    std::vector<int64_t> Image = Domain;
    std::swap(Image[I], Image[I + 1]);
    if (permuteStore(G, Image) != G)
      return false;
  }
  return true;
}
