//===- lang/HirEval.cpp - HIR evaluator ----------------------------------------===//

#include "lang/HirEval.h"

#include "support/Symbol.h"

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
    int64_t WantIdx =
        static_cast<int64_t>(Symbol::get(E.Callee).index());
    std::optional<int64_t> MaxFirst, ExactSecond;
    if (E.Children.size() >= 1)
      MaxFirst = Arg(0).getInt();
    if (E.Children.size() >= 2)
      ExactSecond = Arg(1).getInt();
    int64_t Total = 0;
    for (const auto &[PaTuple, Count] : Env.Pending->bagEntries()) {
      if (PaTuple.elem(0).getInt() != WantIdx)
        continue;
      if (MaxFirst &&
          (PaTuple.size() < 2 || PaTuple.elem(1).getInt() > *MaxFirst))
        continue;
      if (ExactSecond &&
          (PaTuple.size() < 3 || PaTuple.elem(2).getInt() != *ExactSecond))
        continue;
      Total += Count.getInt();
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
  const Value *Pending = nullptr;

  static Value updateNested(const Value &Base,
                            const std::vector<Value> &Indices, size_t Depth,
                            const Value &Rhs) {
    if (Depth == Indices.size())
      return Rhs;
    return Base.mapSet(
        Indices[Depth],
        updateNested(Base.mapAt(Indices[Depth]), Indices, Depth + 1, Rhs));
  }

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
      Value C = eval(*S.Exprs[0], State);
      std::vector<Value> Elems;
      switch (C.kind()) {
      case ValueKind::Set:
      case ValueKind::Seq:
        Elems = C.elems();
        break;
      case ValueKind::Bag:
        for (const auto &[Elem, Count] : C.bagEntries()) {
          (void)Count;
          Elems.push_back(Elem);
        }
        break;
      default:
        assert(false && "choose over non-collection");
      }
      // An empty collection blocks the path (no choice possible).
      for (const Value &Elem : Elems) {
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
