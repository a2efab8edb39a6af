//===- lang/Hir.h - ASL high-level IR -----------------------------*- C++ -*-===//
///
/// \file
/// The typed high-level IR produced by the v2 frontend. HIR is the AST
/// after name resolution and type checking, with three structural
/// changes that make optimization and lowering mechanical:
///
///  - types are interned in a TypeTable (every node carries a TypeId);
///  - locals are slot-indexed: each action parameter and each for /
///    choose / map-comprehension binding owns a fresh slot, so name
///    shadowing is resolved statically and environments are flat
///    vectors;
///  - constants are a distinct expression kind (ConstRef) which the
///    instantiation step replaces by integer literals, making one HIR
///    module per (program, parameter binding) pair and enabling constant
///    folding across gates.
///
/// Statement structure is deliberately kept parallel to the AST
/// (including flat `choose` scoping over the remaining statements of its
/// block) so the HIR evaluator enumerates paths in source order — the
/// transition order, and with it every exploration's discovery order,
/// rests on that.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_HIR_H
#define ISQ_LANG_HIR_H

#include "lang/Ast.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace isq {
namespace asl {
namespace hir {

/// Index into TypeTable.
using TypeId = uint32_t;

/// Slot value marking an eliminated (never-read) binding: the evaluator
/// skips the write entirely.
constexpr uint32_t NoSlot = ~uint32_t(0);

/// Interned structural types. Keys on TypeRef::str(), which renders
/// symmetric sort names, so `node` and plain `int` intern to different
/// ids even though TypeRef::operator== ignores sorts — the lowering needs
/// the sort names to rebuild value shapes for the symmetry reduction.
class TypeTable {
public:
  TypeId intern(const TypeRef &T) {
    std::string Key = T.str();
    auto It = Ids.find(Key);
    if (It != Ids.end())
      return It->second;
    Types.push_back(T);
    TypeId Id = static_cast<TypeId>(Types.size() - 1);
    Ids.emplace(std::move(Key), Id);
    return Id;
  }

  const TypeRef &get(TypeId Id) const { return Types[Id]; }
  size_t size() const { return Types.size(); }

private:
  std::vector<TypeRef> Types;
  std::map<std::string, TypeId> Ids;
};

/// HIR expression kinds. VarRef splits into LocalRef / ConstRef /
/// GlobalRef; everything else parallels ExprKind.
enum class ExprKind : uint8_t {
  IntLit,    ///< IntValue
  BoolLit,   ///< IntValue (0/1)
  NoneLit,   ///< none
  EmptyLit,  ///< empty collection of type Type
  LocalRef,  ///< Slot
  ConstRef,  ///< Name — eliminated by instantiation
  GlobalRef, ///< Name
  Index,     ///< Children[0] [ Children[1] ]
  Unary,     ///< Op Children[0]
  Binary,    ///< Children[0] Op Children[1]
  Call,      ///< builtin Name(Children...); pending builtins keep the
             ///< target action's name in Callee
  Some,      ///< some(Children[0])
  MapCompr,  ///< map <Slot> in Children[0] .. Children[1] : Children[2]
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind Kind;
  SourceLoc Loc;
  TypeId Type = 0;
  int64_t IntValue = 0;
  uint32_t Slot = 0;  ///< LocalRef target / MapCompr binder
  std::string Name;   ///< builtin name (Call), const/global name
  std::string Callee; ///< pending builtins: target action name
  std::string Op;     ///< unary/binary operator spelling
  std::vector<ExprPtr> Children;
  /// Pending builtins: Callee resolved to its symbol index by
  /// annotateForEvaluation (lang/HirEval.h); NoSlot until then, when the
  /// evaluator resolves the name per call.
  uint32_t CalleeIndex = NoSlot;
};

enum class StmtKind : uint8_t {
  Assign, ///< Name[e1]...[ek] := e — Exprs = indices + rhs (last)
  If,     ///< if Exprs[0] Body else ElseBody
  For,    ///< for <Slot> in Exprs[0] .. Exprs[1] Body
  Async,  ///< async Name(Exprs...)
  Assert, ///< assert Exprs[0]
  Await,  ///< await Exprs[0]
  Choose, ///< choose <Slot> in Exprs[0] — scopes to rest of block
  Skip,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind Kind;
  SourceLoc Loc;
  std::string Name;   ///< Assign target global / Async target action
  uint32_t Slot = 0;  ///< For/Choose binder (NoSlot when eliminated)
  std::vector<ExprPtr> Exprs;
  std::vector<StmtPtr> Body;
  std::vector<StmtPtr> ElseBody;
  /// An assert is reachable from this statement to the end of its block,
  /// this statement's nested blocks included. Set once per statement by
  /// annotateForEvaluation (lang/HirEval.h); the gate-only evaluator ends
  /// a path where neither this bit nor any enclosing continuation's holds.
  /// True until annotated, so unannotated HIR is never pruned.
  bool RestMayAssert = true;
};

struct Param {
  std::string Name; ///< for printing only; references use the slot
  TypeId Type = 0;
  uint32_t Slot = 0;
};

struct Action {
  std::string Name;
  SourceLoc Loc;
  std::vector<Param> Params;
  std::vector<StmtPtr> Body;
  /// Total slot count (parameters + every binder), sizing the evaluation
  /// environment.
  uint32_t NumSlots = 0;
  /// The body mentions a pending builtin (the gate observes Ω).
  bool UsesPending = false;
};

struct Global {
  std::string Name;
  SourceLoc Loc;
  TypeId Type = 0;
  ExprPtr Init;
};

struct Symmetric {
  std::string Name;
  SourceLoc Loc;
  ExprPtr Lo;
  ExprPtr Hi;
};

/// One HIR module. After instantiation, ConstNames records the names the
/// instantiation substituted (for documentation/printing); no ConstRef
/// nodes remain.
struct Module {
  TypeTable Types;
  std::vector<std::string> ConstNames;
  std::vector<Global> Globals;
  std::vector<Symmetric> Symmetrics;
  std::vector<Action> Actions;
  /// Slot count shared by all global initializers and symmetric bounds
  /// (map-comprehension binders may occur there).
  uint32_t NumInitSlots = 0;
};

/// Renders the module in a stable textual form (used by tests for
/// optimizer idempotence and by --dump-hir style debugging).
std::string print(const Module &M);
std::string print(const Expr &E);
std::string print(const Stmt &S, unsigned Indent = 0);

} // namespace hir
} // namespace asl
} // namespace isq

#endif // ISQ_LANG_HIR_H
