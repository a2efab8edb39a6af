//===- lang/Ast.h - ASL abstract syntax ---------------------------*- C++ -*-===//
///
/// \file
/// The abstract syntax of ASL. A module declares integer constants
/// (bound at compile time, e.g. the instance size n), initialized global
/// variables, and actions. An action body is a statement list whose
/// operational reading produces the gate and the finitely branching
/// transition relation of a gated atomic action:
///
///  - `assert e;` contributes to the gate (a reachable violation makes the
///    gate false, i.e. the action can fail);
///  - `await e;` blocks the current path (no transition) when e is false;
///  - `choose x in e;` branches over the elements of a finite collection;
///  - `async A(e...);` records a pending async;
///  - assignments, `if`, and bounded `for` are standard.
///
//===----------------------------------------------------------------------===//

#ifndef ISQ_LANG_AST_H
#define ISQ_LANG_AST_H

#include "lang/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace isq {
namespace asl {

/// A structural ASL type.
struct TypeRef {
  enum class Kind : uint8_t {
    Invalid,
    Int,
    Bool,
    Option,
    Set,
    Bag,
    Map,
    Seq,
  };

  Kind K = Kind::Invalid;
  /// Element types: one for option/set/bag/seq, two (key, value) for map.
  std::vector<TypeRef> Params;
  /// Non-empty when this is a named symmetric sort (structurally an int
  /// drawn from the declared domain). The sort name is a refinement
  /// annotation only: it does not participate in type equality, so a
  /// node-typed value flows freely where an int is expected.
  std::string Sort;

  static TypeRef invalid() { return TypeRef(); }
  static TypeRef intTy() { return TypeRef{Kind::Int, {}, {}}; }
  static TypeRef boolTy() { return TypeRef{Kind::Bool, {}, {}}; }
  static TypeRef sortTy(std::string Name) {
    return TypeRef{Kind::Int, {}, std::move(Name)};
  }
  static TypeRef optionTy(TypeRef Elem) {
    return TypeRef{Kind::Option, {std::move(Elem)}, {}};
  }
  static TypeRef setTy(TypeRef Elem) {
    return TypeRef{Kind::Set, {std::move(Elem)}, {}};
  }
  static TypeRef bagTy(TypeRef Elem) {
    return TypeRef{Kind::Bag, {std::move(Elem)}, {}};
  }
  static TypeRef mapTy(TypeRef Key, TypeRef Val) {
    return TypeRef{Kind::Map, {std::move(Key), std::move(Val)}, {}};
  }
  static TypeRef seqTy(TypeRef Elem) {
    return TypeRef{Kind::Seq, {std::move(Elem)}, {}};
  }

  bool isValid() const { return K != Kind::Invalid; }
  /// Structural equality; Sort is deliberately ignored (see above).
  bool operator==(const TypeRef &O) const {
    return K == O.K && Params == O.Params;
  }
  bool operator!=(const TypeRef &O) const { return !(*this == O); }

  /// Renders "map<int, bag<int>>".
  std::string str() const;
};

/// Expression node kinds.
enum class ExprKind : uint8_t {
  IntLit,   ///< IntValue
  BoolLit,  ///< IntValue (0/1)
  NoneLit,  ///< none
  EmptyLit, ///< {} or [] — collection type inferred from context
  VarRef,   ///< Name
  Index,    ///< Children[0] [ Children[1] ]
  Unary,    ///< Op Children[0]
  Binary,   ///< Children[0] Op Children[1]
  Call,     ///< builtin Name(Children...)
  SomeExpr, ///< some(Children[0])
  MapCompr, ///< map Name in Children[0] .. Children[1] : Children[2]
};

/// A uniform expression node (kind-tagged).
struct Expr {
  ExprKind Kind;
  unsigned Line = 0;
  unsigned Column = 0;
  /// SourceManager id of the owning file (0 = main input).
  uint32_t File = 0;

  SourceLoc loc() const { return {File, Line, Column}; }
  int64_t IntValue = 0;
  std::string Name; ///< variable / builtin / bound comprehension variable
  std::string Op;   ///< unary/binary operator spelling
  std::vector<std::unique_ptr<Expr>> Children;
  /// Resolved type, filled in by the type checker (used by the evaluator
  /// to construct correctly typed empty collections).
  TypeRef Type;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Statement node kinds.
enum class StmtKind : uint8_t {
  Assign, ///< Name[e1]...[ek] := e — Exprs = indices + rhs (last)
  If,     ///< if Exprs[0] Body else ElseBody
  For,    ///< for Name in Exprs[0] .. Exprs[1] Body
  Async,  ///< async Name(Exprs...)
  Assert, ///< assert Exprs[0]
  Await,  ///< await Exprs[0]
  Choose, ///< choose Name in Exprs[0] — Name scopes to the rest of block
  Skip,
};

struct Stmt {
  StmtKind Kind;
  unsigned Line = 0;
  unsigned Column = 0;
  uint32_t File = 0;
  std::string Name;

  SourceLoc loc() const { return {File, Line, Column}; }
  std::vector<ExprPtr> Exprs;
  std::vector<std::unique_ptr<Stmt>> Body;
  std::vector<std::unique_ptr<Stmt>> ElseBody;
};

using StmtPtr = std::unique_ptr<Stmt>;

/// An action parameter.
struct ParamDecl {
  std::string Name;
  TypeRef Type;
};

/// An action declaration.
struct ActionDecl {
  std::string Name;
  std::vector<ParamDecl> Params;
  std::vector<StmtPtr> Body;
  unsigned Line = 0;
  unsigned Column = 0;
  uint32_t File = 0;
};

/// A compile-time integer constant. Three spellings:
///
///   const x: int;          host-bound (a --const binding is required)
///   param n: int;          instantiation parameter, no default
///                          (a --const binding is required)
///   param n: int := 2;     instantiation parameter with a default
///   const q: int := e;     derived: folded from parameters and earlier
///                          constants; never externally bindable
struct ConstDecl {
  std::string Name;
  unsigned Line = 0;
  unsigned Column = 0;
  uint32_t File = 0;
  /// Declared with `param` (externally bindable, may carry a default).
  bool IsParam = false;
  /// Default (param) or derived-value (const) initializer expression;
  /// null for host-bound constants and defaultless parameters.
  ExprPtr Init;
};

/// An initialized global variable.
struct VarDecl {
  std::string Name;
  TypeRef Type;
  ExprPtr Init;
  unsigned Line = 0;
  unsigned Column = 0;
  uint32_t File = 0;
};

/// A declared symmetric node-ID sort: `symmetric node: lo .. hi;`. The
/// bounds are constant expressions (they may reference module constants);
/// variables and parameters typed with the sort's name hold IDs that are
/// interchangeable under permutation.
struct SymmetricDecl {
  std::string Name;
  ExprPtr Lo;
  ExprPtr Hi;
  unsigned Line = 0;
  unsigned Column = 0;
  uint32_t File = 0;
};

/// An `import "path.asl";` declaration. Kept on the parsed module so the
/// printer round-trips; the module resolver consumes and clears them when
/// it merges the imported declarations in.
struct ImportDecl {
  std::string Path;
  unsigned Line = 0;
  unsigned Column = 0;
  uint32_t File = 0;
};

/// A parsed ASL module.
struct Module {
  std::vector<ImportDecl> Imports;
  std::vector<ConstDecl> Consts;
  std::vector<SymmetricDecl> Symmetrics;
  std::vector<VarDecl> Vars;
  std::vector<ActionDecl> Actions;

  const ActionDecl *findAction(const std::string &Name) const {
    for (const ActionDecl &A : Actions)
      if (A.Name == Name)
        return &A;
    return nullptr;
  }
};

} // namespace asl
} // namespace isq

#endif // ISQ_LANG_AST_H
