//===- lang/HirEval.cpp - HIR evaluator ----------------------------------------===//

#include "lang/HirEval.h"

#include "support/Symbol.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace isq;
using namespace isq::asl;

namespace {

using TK = TypeRef::Kind;

/// Builds the empty value of ASL type \p T.
Value emptyValueOf(const TypeRef &T) {
  switch (T.K) {
  case TK::Int:
    return Value::integer(0);
  case TK::Bool:
    return Value::boolean(false);
  case TK::Option:
    return Value::none();
  case TK::Set:
    return Value::set({});
  case TK::Bag:
    return Value::bag({});
  case TK::Map:
    return Value::map({});
  case TK::Seq:
    return Value::seq({});
  case TK::Invalid:
    break;
  }
  assert(false && "empty value of invalid type");
  return Value::unit();
}

Value evalCall(const hir::Expr &E, const Store &G, HirEnv &Env) {
  auto Arg = [&](size_t I) { return evalHirExpr(*E.Children[I], G, Env); };

  if (E.Name == "pending" || E.Name == "pending_le" ||
      E.Name == "pending_le_at") {
    if (!Env.Pending)
      return Value::integer(0);
    Symbol Want = E.CalleeIndex != hir::NoSlot
                      ? Symbol::fromIndex(E.CalleeIndex)
                      : Symbol::get(E.Callee);
    std::optional<int64_t> MaxFirst, ExactSecond;
    if (E.Children.size() >= 1)
      MaxFirst = Arg(0).getInt();
    if (E.Children.size() >= 2)
      ExactSecond = Arg(1).getInt();
    // Entries are sorted by action symbol first: count the PAs to Want.
    const auto &Entries = Env.Pending->entries();
    auto It = std::lower_bound(Entries.begin(), Entries.end(), Want,
                               [](const PaMultiset::Entry &En, Symbol S) {
                                 return En.first.Action < S;
                               });
    int64_t Total = 0;
    for (; It != Entries.end() && It->first.Action == Want; ++It) {
      const std::vector<Value> &Args = It->first.Args;
      if (MaxFirst && (Args.empty() || Args[0].getInt() > *MaxFirst))
        continue;
      if (ExactSecond && (Args.size() < 2 || Args[1].getInt() != *ExactSecond))
        continue;
      Total += static_cast<int64_t>(It->second);
    }
    return Value::integer(Total);
  }

  if (E.Name == "size") {
    Value C = Arg(0);
    switch (C.kind()) {
    case ValueKind::Set:
      return Value::integer(static_cast<int64_t>(C.setSize()));
    case ValueKind::Bag:
      return Value::integer(static_cast<int64_t>(C.bagSize()));
    case ValueKind::Seq:
      return Value::integer(static_cast<int64_t>(C.seqSize()));
    case ValueKind::Map:
      return Value::integer(static_cast<int64_t>(C.mapSize()));
    default:
      assert(false && "size() on non-collection");
      return Value::integer(0);
    }
  }
  if (E.Name == "contains") {
    Value C = Arg(0), Elem = Arg(1);
    if (C.kind() == ValueKind::Set)
      return Value::boolean(C.setContains(Elem));
    return Value::boolean(C.bagCount(Elem) > 0);
  }
  if (E.Name == "has_key")
    return Value::boolean(Arg(0).mapContains(Arg(1)));
  if (E.Name == "insert") {
    Value C = Arg(0), Elem = Arg(1);
    return C.kind() == ValueKind::Set ? C.setInsert(Elem)
                                      : C.bagInsert(Elem);
  }
  if (E.Name == "erase") {
    Value C = Arg(0), Elem = Arg(1);
    return C.kind() == ValueKind::Set ? C.setErase(Elem)
                                      : C.bagErase(Elem);
  }
  if (E.Name == "is_some")
    return Value::boolean(Arg(0).isSome());
  if (E.Name == "the")
    return Arg(0).getSome();
  if (E.Name == "max" || E.Name == "min") {
    Value C = Arg(0);
    std::vector<Value> Elems =
        C.kind() == ValueKind::Set ? C.elems() : C.bagFlatten();
    assert(!Elems.empty() && "max/min of empty collection");
    int64_t Best = Elems[0].getInt();
    for (const Value &V : Elems)
      Best = E.Name == "max" ? std::max(Best, V.getInt())
                             : std::min(Best, V.getInt());
    return Value::integer(Best);
  }
  if (E.Name == "front")
    return Arg(0).seqFront();
  if (E.Name == "push_back")
    return Arg(0).seqPushBack(Arg(1));
  if (E.Name == "pop_front")
    return Arg(0).seqPopFront();
  if (E.Name == "sub_bags") {
    Value C = Arg(0);
    int64_t K = Arg(1).getInt();
    assert(K >= 0 && "sub_bags with negative size");
    return Value::set(C.bagSubBagsOfSize(static_cast<uint64_t>(K)));
  }
  if (E.Name == "subsets") {
    const Value C = Arg(0);
    const std::vector<Value> &Elems = C.elems();
    assert(Elems.size() <= 16 && "subsets() limited to 16 elements");
    std::vector<Value> Out;
    for (uint64_t Mask = 0; Mask < (uint64_t(1) << Elems.size()); ++Mask) {
      std::vector<Value> Sub;
      for (size_t I = 0; I < Elems.size(); ++I)
        if (Mask & (uint64_t(1) << I))
          Sub.push_back(Elems[I]);
      Out.push_back(Value::set(std::move(Sub)));
    }
    return Value::set(std::move(Out));
  }
  if (E.Name == "diff") {
    Value A = Arg(0), B = Arg(1);
    if (A.kind() == ValueKind::Set) {
      for (const Value &Elem : B.elems())
        A = A.setErase(Elem);
      return A;
    }
    for (const auto &[Elem, Count] : B.bagEntries())
      A = A.bagErase(Elem, static_cast<uint64_t>(Count.getInt()));
    return A;
  }
  if (E.Name == "keys")
    return Value::set(Arg(0).mapKeys());
  assert(false && "unknown builtin survived type checking");
  return Value::unit();
}

} // namespace

Value asl::evalHirExpr(const hir::Expr &E, const Store &G, HirEnv &Env) {
  switch (E.Kind) {
  case hir::ExprKind::IntLit:
    return Value::integer(E.IntValue);
  case hir::ExprKind::BoolLit:
    return Value::boolean(E.IntValue != 0);
  case hir::ExprKind::NoneLit:
    return Value::none();
  case hir::ExprKind::EmptyLit:
    assert(Env.Types && "HIR evaluation without a type table");
    return emptyValueOf(Env.Types->get(E.Type));
  case hir::ExprKind::LocalRef:
    return Env.Slots[E.Slot];
  case hir::ExprKind::ConstRef:
    assert(false && "ConstRef survived instantiation");
    return Value::unit();
  case hir::ExprKind::GlobalRef:
    return G.get(E.Name);
  case hir::ExprKind::Index: {
    Value Base = evalHirExpr(*E.Children[0], G, Env);
    Value Key = evalHirExpr(*E.Children[1], G, Env);
    return Base.mapAt(Key);
  }
  case hir::ExprKind::Unary: {
    Value V = evalHirExpr(*E.Children[0], G, Env);
    if (E.Op == "-")
      return Value::integer(-V.getInt());
    return Value::boolean(!V.getBool());
  }
  case hir::ExprKind::Binary: {
    // Short-circuit booleans first.
    if (E.Op == "&&") {
      if (!evalHirExpr(*E.Children[0], G, Env).getBool())
        return Value::boolean(false);
      return evalHirExpr(*E.Children[1], G, Env);
    }
    if (E.Op == "||") {
      if (evalHirExpr(*E.Children[0], G, Env).getBool())
        return Value::boolean(true);
      return evalHirExpr(*E.Children[1], G, Env);
    }
    Value A = evalHirExpr(*E.Children[0], G, Env);
    Value B = evalHirExpr(*E.Children[1], G, Env);
    if (E.Op == "==")
      return Value::boolean(A == B);
    if (E.Op == "!=")
      return Value::boolean(A != B);
    if (E.Op == "<")
      return Value::boolean(A.getInt() < B.getInt());
    if (E.Op == "<=")
      return Value::boolean(A.getInt() <= B.getInt());
    if (E.Op == ">")
      return Value::boolean(A.getInt() > B.getInt());
    if (E.Op == ">=")
      return Value::boolean(A.getInt() >= B.getInt());
    if (E.Op == "+")
      return Value::integer(A.getInt() + B.getInt());
    if (E.Op == "-")
      return Value::integer(A.getInt() - B.getInt());
    if (E.Op == "*")
      return Value::integer(A.getInt() * B.getInt());
    if (E.Op == "/") {
      assert(B.getInt() != 0 && "division by zero");
      return Value::integer(A.getInt() / B.getInt());
    }
    assert(E.Op == "%" && "unknown binary operator");
    assert(B.getInt() != 0 && "modulo by zero");
    return Value::integer(A.getInt() % B.getInt());
  }
  case hir::ExprKind::Call:
    return evalCall(E, G, Env);
  case hir::ExprKind::Some:
    return Value::some(evalHirExpr(*E.Children[0], G, Env));
  case hir::ExprKind::MapCompr: {
    int64_t Lo = evalHirExpr(*E.Children[0], G, Env).getInt();
    int64_t Hi = evalHirExpr(*E.Children[1], G, Env).getInt();
    std::vector<std::pair<Value, Value>> Pairs;
    bool Bind = E.Slot != hir::NoSlot;
    Value Saved = Bind ? Env.Slots[E.Slot] : Value::unit();
    for (int64_t I = Lo; I <= Hi; ++I) {
      if (Bind)
        Env.Slots[E.Slot] = Value::integer(I);
      Pairs.push_back(
          {Value::integer(I), evalHirExpr(*E.Children[2], G, Env)});
    }
    if (Bind)
      Env.Slots[E.Slot] = std::move(Saved);
    return Value::map(std::move(Pairs));
  }
  }
  assert(false && "unhandled HIR expression kind");
  return Value::unit();
}

namespace {

/// The alternatives of `choose x in C`, in enumeration order: the members
/// of a set or sequence, the distinct members of a bag.
std::vector<Value> chooseElems(const Value &C) {
  switch (C.kind()) {
  case ValueKind::Set:
  case ValueKind::Seq:
    return C.elems();
  case ValueKind::Bag: {
    std::vector<Value> Elems;
    for (const auto &[Elem, Count] : C.bagEntries()) {
      (void)Count;
      Elems.push_back(Elem);
    }
    return Elems;
  }
  default:
    assert(false && "choose over non-collection");
    return {};
  }
}

/// Updates the nested map entry Base[Indices[Depth]]...[Indices.back()].
Value updateNested(const Value &Base, const std::vector<Value> &Indices,
                   size_t Depth, const Value &Rhs) {
  if (Depth == Indices.size())
    return Rhs;
  return Base.mapSet(
      Indices[Depth],
      updateNested(Base.mapAt(Indices[Depth]), Indices, Depth + 1, Rhs));
}

/// One control path being executed, with a slot vector for locals.
struct PathState {
  Store G;
  std::vector<Value> Slots;
  std::vector<PendingAsync> Created;
};

/// Path enumeration engine. Paths are enumerated in source order, which
/// fixes the order of an action's transitions and hence BFS discovery
/// order.
struct Runner {
  BodyOutcome Outcome;
  const hir::TypeTable *Types = nullptr;
  const PaMultiset *Pending = nullptr;

  Value eval(const hir::Expr &E, PathState &State) {
    HirEnv Env;
    Env.Slots = std::move(State.Slots);
    Env.Types = Types;
    Env.Pending = Pending;
    Value V = evalHirExpr(E, State.G, Env);
    State.Slots = std::move(Env.Slots);
    return V;
  }

  void runList(const std::vector<hir::StmtPtr> &Stmts, size_t Index,
               PathState State) {
    if (Index == Stmts.size()) {
      Outcome.Transitions.emplace_back(std::move(State.G),
                                       std::move(State.Created));
      return;
    }
    const hir::Stmt &S = *Stmts[Index];
    switch (S.Kind) {
    case hir::StmtKind::Skip:
      runList(Stmts, Index + 1, std::move(State));
      return;
    case hir::StmtKind::Assert:
      if (!eval(*S.Exprs[0], State).getBool()) {
        Outcome.CanFail = true;
        return; // the path fails; no transition
      }
      runList(Stmts, Index + 1, std::move(State));
      return;
    case hir::StmtKind::Await:
      if (!eval(*S.Exprs[0], State).getBool())
        return; // the path blocks; no transition, no failure
      runList(Stmts, Index + 1, std::move(State));
      return;
    case hir::StmtKind::Assign: {
      std::vector<Value> Indices;
      for (size_t I = 0; I + 1 < S.Exprs.size(); ++I)
        Indices.push_back(eval(*S.Exprs[I], State));
      Value Rhs = eval(*S.Exprs.back(), State);
      Value NewValue =
          Indices.empty()
              ? Rhs
              : updateNested(State.G.get(S.Name), Indices, 0, Rhs);
      State.G = State.G.set(S.Name, std::move(NewValue));
      runList(Stmts, Index + 1, std::move(State));
      return;
    }
    case hir::StmtKind::Async: {
      std::vector<Value> Args;
      for (const hir::ExprPtr &E : S.Exprs)
        Args.push_back(eval(*E, State));
      State.Created.emplace_back(S.Name, std::move(Args));
      runList(Stmts, Index + 1, std::move(State));
      return;
    }
    case hir::StmtKind::If: {
      bool Cond = eval(*S.Exprs[0], State).getBool();
      const std::vector<hir::StmtPtr> &Branch =
          Cond ? S.Body : S.ElseBody;
      runNested(Branch, std::move(State), Stmts, Index + 1);
      return;
    }
    case hir::StmtKind::For: {
      int64_t Lo = eval(*S.Exprs[0], State).getInt();
      int64_t Hi = eval(*S.Exprs[1], State).getInt();
      runForIteration(S, Lo, Hi, std::move(State), Stmts, Index + 1);
      return;
    }
    case hir::StmtKind::Choose: {
      // An empty collection blocks the path (no choice possible).
      for (const Value &Elem : chooseElems(eval(*S.Exprs[0], State))) {
        PathState Branch = State;
        if (S.Slot != hir::NoSlot)
          Branch.Slots[S.Slot] = Elem;
        runList(Stmts, Index + 1, std::move(Branch));
      }
      return;
    }
    }
  }

private:
  /// Runs \p Inner to completion, then resumes (\p Outer, \p OuterIndex).
  /// Slots flowing out of the block are intentionally block-scoped:
  /// restore the outer slot vector.
  void runNested(const std::vector<hir::StmtPtr> &Inner, PathState State,
                 const std::vector<hir::StmtPtr> &Outer,
                 size_t OuterIndex) {
    Runner Sub;
    Sub.Types = Types;
    Sub.Pending = Pending;
    std::vector<Value> OuterSlots = State.Slots;
    Sub.runList(Inner, 0, std::move(State));
    Outcome.CanFail = Outcome.CanFail || Sub.Outcome.CanFail;
    for (Transition &T : Sub.Outcome.Transitions) {
      PathState Resumed;
      Resumed.G = std::move(T.Global);
      Resumed.Slots = OuterSlots;
      Resumed.Created = std::move(T.Created);
      runList(Outer, OuterIndex, std::move(Resumed));
    }
  }

  void runForIteration(const hir::Stmt &S, int64_t I, int64_t Hi,
                       PathState State,
                       const std::vector<hir::StmtPtr> &Outer,
                       size_t OuterIndex) {
    if (I > Hi) {
      runList(Outer, OuterIndex, std::move(State));
      return;
    }
    // Bind the loop variable and run the body, then iterate.
    Runner Sub;
    Sub.Types = Types;
    Sub.Pending = Pending;
    std::vector<Value> SavedSlots = State.Slots;
    if (S.Slot != hir::NoSlot)
      State.Slots[S.Slot] = Value::integer(I);
    Sub.runList(S.Body, 0, std::move(State));
    Outcome.CanFail = Outcome.CanFail || Sub.Outcome.CanFail;
    for (Transition &T : Sub.Outcome.Transitions) {
      PathState Next;
      Next.G = std::move(T.Global);
      Next.Slots = SavedSlots;
      Next.Created = std::move(T.Created);
      runForIteration(S, I + 1, Hi, std::move(Next), Outer, OuterIndex);
    }
  }
};

} // namespace

BodyOutcome asl::runHirBody(const std::vector<hir::StmtPtr> &Body,
                            const Store &G, const HirEnv &Env) {
  Runner R;
  R.Types = Env.Types;
  R.Pending = Env.Pending;
  R.runList(Body, 0, PathState{G, Env.Slots, {}});
  return std::move(R.Outcome);
}

namespace {

/// The gate-only evaluator: a depth-first walk over the same paths as
/// Runner, in the same order, that stops at the first violated assert.
/// Paths carry no created PAs. A nested block or loop body runs under an
/// explicit continuation instead of being run to completion first, so a
/// path can be cut as soon as no assert is reachable from it.
struct GateRunner {
  const hir::TypeTable *Types = nullptr;
  const PaMultiset *Pending = nullptr;

  /// Gate paths need no created PAs.
  struct State {
    Store G;
    std::vector<Value> Slots;
  };

  /// Where a path resumes when its current block ends: at (Stmts, Index)
  /// with the block-scoped slots restored to *Slots — or, for a loop
  /// (Loop non-null), at iteration Next of Loop, proceeding to
  /// (Stmts, Index) after iteration Hi.
  struct Cont {
    const std::vector<hir::StmtPtr> *Stmts;
    size_t Index;
    const std::vector<Value> *Slots;
    const Cont *Up;
    const hir::Stmt *Loop;
    int64_t Next;
    int64_t Hi;
    /// An assert is reachable from this continuation (Up included).
    bool MayAssert;
  };

  static bool restMayAssert(const std::vector<hir::StmtPtr> &Stmts,
                            size_t Index) {
    return Index < Stmts.size() && Stmts[Index]->RestMayAssert;
  }

  Value eval(const hir::Expr &E, State &St) {
    HirEnv Env;
    Env.Slots = std::move(St.Slots);
    Env.Types = Types;
    Env.Pending = Pending;
    Value V = evalHirExpr(E, St.G, Env);
    St.Slots = std::move(Env.Slots);
    return V;
  }

  /// Whether some path from (Stmts, Index) under \p K violates an assert.
  bool fails(const std::vector<hir::StmtPtr> &Stmts, size_t Index, State St,
             const Cont *K) {
    for (;; ++Index) {
      if (!restMayAssert(Stmts, Index) && !(K && K->MayAssert))
        return false; // no assert reachable: the path cannot fail
      if (Index == Stmts.size())
        return resume(K, std::move(St));
      const hir::Stmt &S = *Stmts[Index];
      switch (S.Kind) {
      case hir::StmtKind::Skip:
      case hir::StmtKind::Async: // created PAs never reach a gate
        continue;
      case hir::StmtKind::Assert:
        if (!eval(*S.Exprs[0], St).getBool())
          return true;
        continue;
      case hir::StmtKind::Await:
        if (!eval(*S.Exprs[0], St).getBool())
          return false; // the path blocks: no failure
        continue;
      case hir::StmtKind::Assign: {
        std::vector<Value> Indices;
        for (size_t I = 0; I + 1 < S.Exprs.size(); ++I)
          Indices.push_back(eval(*S.Exprs[I], St));
        Value Rhs = eval(*S.Exprs.back(), St);
        Value NewValue =
            Indices.empty() ? Rhs
                            : updateNested(St.G.get(S.Name), Indices, 0, Rhs);
        St.G = St.G.set(S.Name, std::move(NewValue));
        continue;
      }
      case hir::StmtKind::If: {
        bool Cond = eval(*S.Exprs[0], St).getBool();
        std::vector<Value> Outer = St.Slots;
        Cont After{&Stmts, Index + 1, &Outer, K, nullptr, 0, 0,
                   restMayAssert(Stmts, Index + 1) || (K && K->MayAssert)};
        return fails(Cond ? S.Body : S.ElseBody, 0, std::move(St), &After);
      }
      case hir::StmtKind::For: {
        int64_t Lo = eval(*S.Exprs[0], St).getInt();
        int64_t Hi = eval(*S.Exprs[1], St).getInt();
        std::vector<Value> Saved = St.Slots;
        return iterate(S, Lo, Hi, &Saved, std::move(St), Stmts, Index + 1, K);
      }
      case hir::StmtKind::Choose: {
        std::vector<Value> Elems = chooseElems(eval(*S.Exprs[0], St));
        for (size_t I = 0; I < Elems.size(); ++I) {
          State Branch = I + 1 == Elems.size() ? std::move(St) : St;
          if (S.Slot != hir::NoSlot)
            Branch.Slots[S.Slot] = std::move(Elems[I]);
          if (fails(Stmts, Index + 1, std::move(Branch), K))
            return true;
        }
        return false; // every branch completed (or none: blocked)
      }
      }
    }
  }

  /// Runs iteration \p I of loop \p S (slots before binding: \p Saved),
  /// then the remaining ones, then (Outer, OuterIndex) under \p Up.
  bool iterate(const hir::Stmt &S, int64_t I, int64_t Hi,
               const std::vector<Value> *Saved, State St,
               const std::vector<hir::StmtPtr> &Outer, size_t OuterIndex,
               const Cont *Up) {
    if (I > Hi)
      return fails(Outer, OuterIndex, std::move(St), Up);
    if (S.Slot != hir::NoSlot)
      St.Slots[S.Slot] = Value::integer(I);
    Cont Next{&Outer, OuterIndex, Saved, Up, &S, I + 1, Hi,
              (I < Hi && restMayAssert(S.Body, 0)) ||
                  restMayAssert(Outer, OuterIndex) || (Up && Up->MayAssert)};
    return fails(S.Body, 0, std::move(St), &Next);
  }

  bool resume(const Cont *K, State St) {
    if (!K)
      return false; // the path completed
    St.Slots = *K->Slots;
    if (K->Loop)
      return iterate(*K->Loop, K->Next, K->Hi, K->Slots, std::move(St),
                     *K->Stmts, K->Index, K->Up);
    return fails(*K->Stmts, K->Index, std::move(St), K->Up);
  }
};

/// Whether \p E reads the global store.
bool readsStore(const hir::Expr &E) {
  if (E.Kind == hir::ExprKind::GlobalRef)
    return true;
  for (const hir::ExprPtr &C : E.Children)
    if (readsStore(*C))
      return true;
  return false;
}

/// Whether evaluating \p S itself (not its nested blocks) reads the
/// store: a GlobalRef in its expressions, or an indexed assignment, which
/// reads the target it updates.
bool readsStore(const hir::Stmt &S) {
  if (S.Kind == hir::StmtKind::Assign && S.Exprs.size() > 1)
    return true;
  for (const hir::ExprPtr &E : S.Exprs)
    if (readsStore(*E))
      return true;
  return false;
}

/// What markGates learns about one block.
struct BlockGateFacts {
  /// An assert is reachable from the start of the block.
  bool MayAssert = false;
  /// The gate evaluator can read the store in the block while an assert
  /// is reachable (given the enclosing continuation's MayAssert).
  bool ReadsLive = false;
  /// Some statement of the block, nested blocks included, reads the
  /// store.
  bool ReadsAny = false;
};

/// Sets RestMayAssert over \p Body (nested blocks included) and collects
/// its gate facts, where \p ContMayAssert says whether an assert is
/// reachable from the continuation the block ends in. One walk: a
/// statement's RestMayAssert is its block's suffix (known when walking
/// backwards) or its own nested blocks, and the live-path rule is
/// GateRunner::fails's — a statement's expressions are evaluated iff
/// RestMayAssert or the continuation's MayAssert holds.
BlockGateFacts markGates(std::vector<hir::StmtPtr> &Body, bool ContMayAssert) {
  BlockGateFacts F;
  for (size_t I = Body.size(); I-- > 0;) {
    hir::Stmt &S = *Body[I];
    // Nested blocks end in the rest of this block, then the continuation.
    bool After = F.MayAssert || ContMayAssert;
    BlockGateFacts InBody = markGates(S.Body, After);
    BlockGateFacts InElse = markGates(S.ElseBody, After);
    bool Rest = F.MayAssert || S.Kind == hir::StmtKind::Assert ||
                InBody.MayAssert || InElse.MayAssert;
    S.RestMayAssert = Rest;
    // A loop body that may assert is live throughout on every iteration
    // but the last (the next one may assert).
    bool BodyReads = S.Kind == hir::StmtKind::For && InBody.MayAssert
                         ? InBody.ReadsAny
                         : InBody.ReadsLive;
    bool SelfReads = readsStore(S);
    F.MayAssert = Rest;
    F.ReadsLive = F.ReadsLive || ((Rest || ContMayAssert) && SelfReads) ||
                  BodyReads || InElse.ReadsLive;
    F.ReadsAny =
        F.ReadsAny || SelfReads || InBody.ReadsAny || InElse.ReadsAny;
  }
  return F;
}

void resolveCallees(hir::Expr &E) {
  if (!E.Callee.empty())
    E.CalleeIndex = Symbol::get(E.Callee).index();
  for (hir::ExprPtr &C : E.Children)
    resolveCallees(*C);
}

void resolveCallees(std::vector<hir::StmtPtr> &Body) {
  for (hir::StmtPtr &S : Body) {
    for (hir::ExprPtr &E : S->Exprs)
      resolveCallees(*E);
    resolveCallees(S->Body);
    resolveCallees(S->ElseBody);
  }
}

} // namespace

bool asl::runHirGate(const std::vector<hir::StmtPtr> &Body, const Store &G,
                     const HirEnv &Env) {
  GateRunner R;
  R.Types = Env.Types;
  R.Pending = Env.Pending;
  return !R.fails(Body, 0, GateRunner::State{G, Env.Slots}, nullptr);
}

void asl::annotateGates(hir::Module &M) {
  for (hir::Action &A : M.Actions) {
    BlockGateFacts F = markGates(A.Body, /*ContMayAssert=*/false);
    A.GateMayFail = F.MayAssert;
    A.GateReadsStore = F.ReadsLive;
  }
}

void asl::resolvePendingCallees(hir::Module &M) {
  for (hir::Action &A : M.Actions)
    resolveCallees(A.Body);
}
