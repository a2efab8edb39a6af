//===- semantics/Value.cpp - Dynamic protocol values -----------------------===//

#include "semantics/Value.h"

#include "support/Hashing.h"

#include <algorithm>
#include <functional>

using namespace isq;

// Construction ---------------------------------------------------------------

Value Value::boolean(bool B) {
  Value V;
  V.Kind = ValueKind::Bool;
  V.Scalar = B ? 1 : 0;
  return V;
}

Value Value::integer(int64_t N) {
  Value V;
  V.Kind = ValueKind::Int;
  V.Scalar = N;
  return V;
}

Value Value::tuple(std::vector<Value> Elems) {
  Value V;
  V.Kind = ValueKind::Tuple;
  auto P = std::make_shared<Payload>();
  P->Elems = std::move(Elems);
  V.Data = std::move(P);
  return V;
}

Value Value::none() {
  Value V;
  V.Kind = ValueKind::Option;
  V.Data = std::make_shared<Payload>();
  return V;
}

Value Value::some(Value Inner) {
  Value V;
  V.Kind = ValueKind::Option;
  auto P = std::make_shared<Payload>();
  P->Elems.push_back(std::move(Inner));
  V.Data = std::move(P);
  return V;
}

Value Value::set(std::vector<Value> Elems) {
  std::sort(Elems.begin(), Elems.end());
  Elems.erase(std::unique(Elems.begin(), Elems.end()), Elems.end());
  Value V;
  V.Kind = ValueKind::Set;
  auto P = std::make_shared<Payload>();
  P->Elems = std::move(Elems);
  V.Data = std::move(P);
  return V;
}

Value Value::bag(const std::vector<Value> &Elems) {
  Value V;
  V.Kind = ValueKind::Bag;
  V.Data = std::make_shared<Payload>();
  for (const Value &E : Elems)
    V = V.bagInsert(E);
  return V;
}

Value Value::map(std::vector<std::pair<Value, Value>> Pairs) {
  std::sort(Pairs.begin(), Pairs.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
#ifndef NDEBUG
  for (size_t I = 1; I < Pairs.size(); ++I)
    assert(Pairs[I - 1].first != Pairs[I].first && "duplicate map keys");
#endif
  Value V;
  V.Kind = ValueKind::Map;
  auto P = std::make_shared<Payload>();
  P->Pairs = std::move(Pairs);
  V.Data = std::move(P);
  return V;
}

Value Value::seq(std::vector<Value> Elems) {
  Value V;
  V.Kind = ValueKind::Seq;
  auto P = std::make_shared<Payload>();
  P->Elems = std::move(Elems);
  V.Data = std::move(P);
  return V;
}

// Element access --------------------------------------------------------------

static const std::vector<Value> &emptyElems() {
  static const std::vector<Value> Empty;
  return Empty;
}

static const std::vector<std::pair<Value, Value>> &emptyPairs() {
  static const std::vector<std::pair<Value, Value>> Empty;
  return Empty;
}

size_t Value::size() const {
  assert((Kind == ValueKind::Tuple || Kind == ValueKind::Set ||
          Kind == ValueKind::Seq || Kind == ValueKind::Option) &&
         "size() requires an element-carrying kind");
  return Data ? Data->Elems.size() : 0;
}

const Value &Value::elem(size_t I) const {
  assert(Data && I < Data->Elems.size() && "element index out of range");
  return Data->Elems[I];
}

const std::vector<Value> &Value::elems() const {
  return Data ? Data->Elems : emptyElems();
}

bool Value::isNone() const {
  assert(Kind == ValueKind::Option && "not an option");
  return !Data || Data->Elems.empty();
}

bool Value::isSome() const { return !isNone(); }

const Value &Value::getSome() const {
  assert(isSome() && "getSome() on none");
  return Data->Elems[0];
}

// Set operations ---------------------------------------------------------------

bool Value::setContains(const Value &Elem) const {
  assert(Kind == ValueKind::Set && "not a set");
  const auto &Es = elems();
  return std::binary_search(Es.begin(), Es.end(), Elem);
}

Value Value::setInsert(const Value &Elem) const {
  assert(Kind == ValueKind::Set && "not a set");
  if (setContains(Elem))
    return *this;
  std::vector<Value> Es = elems();
  Es.insert(std::lower_bound(Es.begin(), Es.end(), Elem), Elem);
  Value V;
  V.Kind = ValueKind::Set;
  auto P = std::make_shared<Payload>();
  P->Elems = std::move(Es);
  V.Data = std::move(P);
  return V;
}

Value Value::setErase(const Value &Elem) const {
  assert(Kind == ValueKind::Set && "not a set");
  if (!setContains(Elem))
    return *this;
  std::vector<Value> Es = elems();
  Es.erase(std::lower_bound(Es.begin(), Es.end(), Elem));
  Value V;
  V.Kind = ValueKind::Set;
  auto P = std::make_shared<Payload>();
  P->Elems = std::move(Es);
  V.Data = std::move(P);
  return V;
}

bool Value::setIsSubsetOf(const Value &Other) const {
  assert(Kind == ValueKind::Set && Other.Kind == ValueKind::Set &&
         "subset check requires sets");
  for (const Value &E : elems())
    if (!Other.setContains(E))
      return false;
  return true;
}

// Bag operations ----------------------------------------------------------------

const std::vector<std::pair<Value, Value>> &Value::bagEntries() const {
  assert(Kind == ValueKind::Bag && "not a bag");
  return Data ? Data->Pairs : emptyPairs();
}

uint64_t Value::bagSize() const {
  uint64_t N = 0;
  for (const auto &[Elem, Count] : bagEntries())
    N += static_cast<uint64_t>(Count.getInt());
  return N;
}

uint64_t Value::bagCount(const Value &Elem) const {
  for (const auto &[E, Count] : bagEntries())
    if (E == Elem)
      return static_cast<uint64_t>(Count.getInt());
  return 0;
}

Value Value::bagInsert(const Value &Elem, uint64_t Count) const {
  assert(Kind == ValueKind::Bag && "not a bag");
  if (Count == 0)
    return *this;
  std::vector<std::pair<Value, Value>> Entries = bagEntries();
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Elem,
      [](const auto &E, const Value &V) { return E.first < V; });
  if (It != Entries.end() && It->first == Elem)
    It->second = Value::integer(It->second.getInt() +
                                static_cast<int64_t>(Count));
  else
    Entries.insert(It, {Elem, Value::integer(static_cast<int64_t>(Count))});
  Value V;
  V.Kind = ValueKind::Bag;
  auto P = std::make_shared<Payload>();
  P->Pairs = std::move(Entries);
  V.Data = std::move(P);
  return V;
}

Value Value::bagErase(const Value &Elem, uint64_t Count) const {
  assert(Kind == ValueKind::Bag && "not a bag");
  std::vector<std::pair<Value, Value>> Entries = bagEntries();
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Elem,
      [](const auto &E, const Value &V) { return E.first < V; });
  assert(It != Entries.end() && It->first == Elem &&
         static_cast<uint64_t>(It->second.getInt()) >= Count &&
         "bagErase: not enough copies");
  int64_t Remaining = It->second.getInt() - static_cast<int64_t>(Count);
  if (Remaining == 0)
    Entries.erase(It);
  else
    It->second = Value::integer(Remaining);
  Value V;
  V.Kind = ValueKind::Bag;
  auto P = std::make_shared<Payload>();
  P->Pairs = std::move(Entries);
  V.Data = std::move(P);
  return V;
}

std::vector<Value> Value::bagFlatten() const {
  std::vector<Value> Out;
  for (const auto &[Elem, Count] : bagEntries())
    for (int64_t I = 0; I < Count.getInt(); ++I)
      Out.push_back(Elem);
  return Out;
}

std::vector<Value> Value::bagSubBagsOfSize(uint64_t K) const {
  assert(Kind == ValueKind::Bag && "not a bag");
  std::vector<Value> Result;
  if (K > bagSize())
    return Result;

  // Enumerate multiplicity choices per distinct element, recursively.
  const auto &Entries = bagEntries();
  std::vector<uint64_t> Chosen(Entries.size(), 0);
  std::function<void(size_t, uint64_t)> Go = [&](size_t Idx,
                                                 uint64_t Remaining) {
    if (Idx == Entries.size()) {
      if (Remaining != 0)
        return;
      Value Sub;
      Sub.Kind = ValueKind::Bag;
      auto P = std::make_shared<Payload>();
      for (size_t I = 0; I < Entries.size(); ++I)
        if (Chosen[I] > 0)
          P->Pairs.push_back(
              {Entries[I].first,
               Value::integer(static_cast<int64_t>(Chosen[I]))});
      Sub.Data = std::move(P);
      Result.push_back(std::move(Sub));
      return;
    }
    uint64_t Avail = static_cast<uint64_t>(Entries[Idx].second.getInt());
    uint64_t Max = std::min(Avail, Remaining);
    for (uint64_t C = 0; C <= Max; ++C) {
      Chosen[Idx] = C;
      Go(Idx + 1, Remaining - C);
    }
    Chosen[Idx] = 0;
  };
  Go(0, K);
  return Result;
}

// Map operations -----------------------------------------------------------------

const std::vector<std::pair<Value, Value>> &Value::mapEntries() const {
  assert(Kind == ValueKind::Map && "not a map");
  return Data ? Data->Pairs : emptyPairs();
}

std::optional<Value> Value::mapGet(const Value &Key) const {
  const auto &Entries = mapEntries();
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Key,
      [](const auto &E, const Value &V) { return E.first < V; });
  if (It != Entries.end() && It->first == Key)
    return It->second;
  return std::nullopt;
}

const Value &Value::mapAt(const Value &Key) const {
  const auto &Entries = mapEntries();
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Key,
      [](const auto &E, const Value &V) { return E.first < V; });
  assert(It != Entries.end() && It->first == Key && "mapAt: missing key");
  return It->second;
}

bool Value::mapContains(const Value &Key) const {
  return mapGet(Key).has_value();
}

Value Value::mapSet(const Value &Key, const Value &Val) const {
  assert(Kind == ValueKind::Map && "not a map");
  std::vector<std::pair<Value, Value>> Entries = mapEntries();
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Key,
      [](const auto &E, const Value &V) { return E.first < V; });
  if (It != Entries.end() && It->first == Key)
    It->second = Val;
  else
    Entries.insert(It, {Key, Val});
  Value V;
  V.Kind = ValueKind::Map;
  auto P = std::make_shared<Payload>();
  P->Pairs = std::move(Entries);
  V.Data = std::move(P);
  return V;
}

Value Value::mapErase(const Value &Key) const {
  assert(Kind == ValueKind::Map && "not a map");
  std::vector<std::pair<Value, Value>> Entries = mapEntries();
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Key,
      [](const auto &E, const Value &V) { return E.first < V; });
  if (It == Entries.end() || It->first != Key)
    return *this;
  Entries.erase(It);
  Value V;
  V.Kind = ValueKind::Map;
  auto P = std::make_shared<Payload>();
  P->Pairs = std::move(Entries);
  V.Data = std::move(P);
  return V;
}

uint64_t Value::mapSize() const { return mapEntries().size(); }

std::vector<Value> Value::mapKeys() const {
  std::vector<Value> Keys;
  for (const auto &[K, V] : mapEntries())
    Keys.push_back(K);
  return Keys;
}

// Seq operations -------------------------------------------------------------------

const Value &Value::seqFront() const {
  assert(Kind == ValueKind::Seq && Data && !Data->Elems.empty() &&
         "seqFront on empty seq");
  return Data->Elems.front();
}

Value Value::seqPushBack(const Value &Elem) const {
  assert(Kind == ValueKind::Seq && "not a seq");
  std::vector<Value> Es = elems();
  Es.push_back(Elem);
  return Value::seq(std::move(Es));
}

Value Value::seqPopFront() const {
  assert(Kind == ValueKind::Seq && Data && !Data->Elems.empty() &&
         "seqPopFront on empty seq");
  std::vector<Value> Es(Data->Elems.begin() + 1, Data->Elems.end());
  return Value::seq(std::move(Es));
}

// Comparison / hashing ----------------------------------------------------------------

int Value::compare(const Value &A, const Value &B) {
  if (A.Kind != B.Kind)
    return A.Kind < B.Kind ? -1 : 1;
  switch (A.Kind) {
  case ValueKind::Unit:
    return 0;
  case ValueKind::Bool:
  case ValueKind::Int:
    if (A.Scalar != B.Scalar)
      return A.Scalar < B.Scalar ? -1 : 1;
    return 0;
  case ValueKind::Tuple:
  case ValueKind::Option:
  case ValueKind::Set:
  case ValueKind::Seq: {
    const auto &AE = A.elems();
    const auto &BE = B.elems();
    size_t N = std::min(AE.size(), BE.size());
    for (size_t I = 0; I < N; ++I)
      if (int C = compare(AE[I], BE[I]))
        return C;
    if (AE.size() != BE.size())
      return AE.size() < BE.size() ? -1 : 1;
    return 0;
  }
  case ValueKind::Bag:
  case ValueKind::Map: {
    const auto &AP = A.Data ? A.Data->Pairs : emptyPairs();
    const auto &BP = B.Data ? B.Data->Pairs : emptyPairs();
    size_t N = std::min(AP.size(), BP.size());
    for (size_t I = 0; I < N; ++I) {
      if (int C = compare(AP[I].first, BP[I].first))
        return C;
      if (int C = compare(AP[I].second, BP[I].second))
        return C;
    }
    if (AP.size() != BP.size())
      return AP.size() < BP.size() ? -1 : 1;
    return 0;
  }
  }
  return 0;
}

namespace isq {
bool operator==(const Value &A, const Value &B) {
  return Value::compare(A, B) == 0;
}

bool operator<(const Value &A, const Value &B) {
  return Value::compare(A, B) < 0;
}
} // namespace isq

size_t Value::hash() const {
  if (Data && Data->HashMemo != 0)
    return Data->HashMemo;
  size_t Seed = static_cast<size_t>(Kind) * 0x9e3779b97f4a7c15ULL + 1;
  switch (Kind) {
  case ValueKind::Unit:
    break;
  case ValueKind::Bool:
  case ValueKind::Int:
    hashCombine(Seed, static_cast<size_t>(Scalar));
    break;
  case ValueKind::Tuple:
  case ValueKind::Option:
  case ValueKind::Set:
  case ValueKind::Seq:
    for (const Value &E : elems())
      hashCombine(Seed, E.hash());
    break;
  case ValueKind::Bag:
  case ValueKind::Map:
    for (const auto &[K, V] : (Data ? Data->Pairs : emptyPairs())) {
      hashCombine(Seed, K.hash());
      hashCombine(Seed, V.hash());
    }
    break;
  }
  if (Data) // 0 is the "not computed" sentinel; remap it without bit loss
    Data->HashMemo = Seed ? Seed : 0x9e3779b97f4a7c15ULL;
  return Data ? Data->HashMemo : Seed;
}

// Printing ---------------------------------------------------------------------------

std::string Value::str() const {
  switch (Kind) {
  case ValueKind::Unit:
    return "()";
  case ValueKind::Bool:
    return Scalar ? "true" : "false";
  case ValueKind::Int:
    return std::to_string(Scalar);
  case ValueKind::Tuple: {
    std::string Out = "(";
    for (size_t I = 0; I < elems().size(); ++I) {
      if (I)
        Out += ", ";
      Out += elems()[I].str();
    }
    return Out + ")";
  }
  case ValueKind::Option:
    return isNone() ? "none" : "some(" + getSome().str() + ")";
  case ValueKind::Set: {
    std::string Out = "set{";
    for (size_t I = 0; I < elems().size(); ++I) {
      if (I)
        Out += ", ";
      Out += elems()[I].str();
    }
    return Out + "}";
  }
  case ValueKind::Bag: {
    std::string Out = "bag{";
    bool First = true;
    for (const auto &[E, C] : bagEntries()) {
      if (!First)
        Out += ", ";
      First = false;
      Out += E.str();
      if (C.getInt() != 1)
        Out += ":x" + std::to_string(C.getInt());
    }
    return Out + "}";
  }
  case ValueKind::Map: {
    std::string Out = "map{";
    bool First = true;
    for (const auto &[K, V] : mapEntries()) {
      if (!First)
        Out += ", ";
      First = false;
      Out += K.str() + " -> " + V.str();
    }
    return Out + "}";
  }
  case ValueKind::Seq: {
    std::string Out = "seq[";
    for (size_t I = 0; I < elems().size(); ++I) {
      if (I)
        Out += ", ";
      Out += elems()[I].str();
    }
    return Out + "]";
  }
  }
  return "<invalid>";
}
