//===- lang/Lowering.cpp - HIR to semantic objects -----------------------------===//

#include "lang/Lowering.h"

#include "lang/HirEval.h"
#include "semantics/Fingerprint.h"
#include "semantics/Symmetry.h"

#include <memory>

using namespace isq;
using namespace isq::asl;

namespace {

/// The value shape induced by an ASL type: Id leaves exactly where the
/// declared symmetric sort \p Sort is named.
ValueShape shapeOf(const TypeRef &T, const std::string &Sort) {
  using TK = TypeRef::Kind;
  switch (T.K) {
  case TK::Int:
    return T.Sort == Sort ? ValueShape::id() : ValueShape::plain();
  case TK::Option:
    return ValueShape::option(shapeOf(T.Params[0], Sort));
  case TK::Set:
    return ValueShape::setOf(shapeOf(T.Params[0], Sort));
  case TK::Bag:
    return ValueShape::bagOf(shapeOf(T.Params[0], Sort));
  case TK::Seq:
    return ValueShape::seqOf(shapeOf(T.Params[0], Sort));
  case TK::Map:
    return ValueShape::mapOf(shapeOf(T.Params[0], Sort),
                             shapeOf(T.Params[1], Sort));
  default:
    return ValueShape::plain();
  }
}

/// Structural fingerprint of an optimized HIR action body — the behavior
/// fingerprint stamped on the lowered Action for the obligation verdict
/// cache. Two deliberate exclusions keep it α-invariant: SourceLocs
/// (moving code or editing comments must not shift it) and binder names
/// (Param::Name is print-only; every reference resolves through slots,
/// and slot numbering is structural). Types hash by their rendered form,
/// never by TypeId — interning order differs across modules. Runs on the
/// *optimized* HIR, so optimizer-equivalent sources fingerprint
/// identically.
void hashHirExpr(FpHasher &H, const hir::Expr &E,
                 const hir::TypeTable &Types) {
  H.u32(static_cast<uint32_t>(E.Kind));
  H.str(Types.get(E.Type).str());
  H.i64(E.IntValue);
  H.u32(E.Slot);
  H.str(E.Name);
  H.str(E.Callee);
  H.str(E.Op);
  H.u64(E.Children.size());
  for (const hir::ExprPtr &C : E.Children)
    hashHirExpr(H, *C, Types);
}

void hashHirStmts(FpHasher &H, const std::vector<hir::StmtPtr> &Body,
                  const hir::TypeTable &Types);

void hashHirStmt(FpHasher &H, const hir::Stmt &S,
                 const hir::TypeTable &Types) {
  H.u32(static_cast<uint32_t>(S.Kind));
  H.str(S.Name);
  H.u32(S.Slot);
  H.u64(S.Exprs.size());
  for (const hir::ExprPtr &E : S.Exprs)
    hashHirExpr(H, *E, Types);
  hashHirStmts(H, S.Body, Types);
  hashHirStmts(H, S.ElseBody, Types);
}

void hashHirStmts(FpHasher &H, const std::vector<hir::StmtPtr> &Body,
                  const hir::TypeTable &Types) {
  H.u64(Body.size());
  for (const hir::StmtPtr &S : Body)
    hashHirStmt(H, *S, Types);
}

Fingerprint fingerprintHirAction(const hir::Action &A,
                                 const hir::TypeTable &Types) {
  FpHasher H("hir-action/v1");
  H.u64(A.Params.size());
  for (const hir::Param &P : A.Params) {
    H.str(Types.get(P.Type).str()); // not P.Name: binder names are print-only
    H.u32(P.Slot);
  }
  H.u32(A.NumSlots);
  H.boolean(A.UsesPending);
  hashHirStmts(H, A.Body, Types);
  return H.finish();
}

} // namespace

std::optional<CompiledModule> asl::lowerHir(hir::Module &&M,
                                            std::vector<Diagnostic> &Diags) {
  // The compiled actions share ownership of the HIR.
  auto Shared = std::make_shared<hir::Module>(std::move(M));

  // Initial store: evaluate initializers in declaration order; later
  // initializers may read earlier variables. Global initializers and
  // symmetric bounds share one slot space (map-comprehension binders).
  HirEnv InitEnv;
  InitEnv.Slots.assign(Shared->NumInitSlots, Value::unit());
  InitEnv.Types = &Shared->Types;
  Store Init;
  for (const hir::Global &G : Shared->Globals)
    Init = Init.set(G.Name, evalHirExpr(*G.Init, Init, InitEnv));

  // The declared symmetric sort, if any. The domain must stay small
  // enough for the full permutation group to be enumerated, and the
  // initial store must be invariant under it (otherwise the quotient
  // exploration would be unsound and the declaration is rejected).
  std::shared_ptr<SymmetrySpec> Sym;
  for (const hir::Symmetric &D : Shared->Symmetrics) {
    int64_t Lo = evalHirExpr(*D.Lo, Init, InitEnv).getInt();
    int64_t Hi = evalHirExpr(*D.Hi, Init, InitEnv).getInt();
    if (Lo > Hi) {
      Diags.push_back({"symmetric sort '" + D.Name + "' has empty domain " +
                           std::to_string(Lo) + " .. " + std::to_string(Hi),
                       D.Loc.Line, D.Loc.Column, Severity::Error,
                       D.Loc.File});
      continue;
    }
    size_t Size = static_cast<size_t>(Hi - Lo + 1);
    if (Size > SymmetrySpec::MaxDomainSize) {
      Diags.push_back(
          {"symmetric sort '" + D.Name + "' has " + std::to_string(Size) +
               " members; at most " +
               std::to_string(SymmetrySpec::MaxDomainSize) + " supported",
           D.Loc.Line, D.Loc.Column, Severity::Error, D.Loc.File});
      continue;
    }
    std::vector<int64_t> Domain;
    for (int64_t N = Lo; N <= Hi; ++N)
      Domain.push_back(N);
    Sym = std::make_shared<SymmetrySpec>(D.Name, std::move(Domain));
    for (const hir::Global &G : Shared->Globals) {
      ValueShape Shape = shapeOf(Shared->Types.get(G.Type), D.Name);
      if (!Shape.fixed())
        Sym->setGlobalShape(Symbol::get(G.Name), Shape);
    }
    for (const hir::Action &A : Shared->Actions) {
      std::vector<ValueShape> ArgShapes;
      bool AnyId = false;
      for (const hir::Param &P : A.Params) {
        ArgShapes.push_back(shapeOf(Shared->Types.get(P.Type), D.Name));
        AnyId = AnyId || !ArgShapes.back().fixed();
      }
      if (AnyId)
        Sym->setActionShape(Symbol::get(A.Name), std::move(ArgShapes));
    }
    if (!Sym->isInvariantStore(Init)) {
      Diags.push_back(
          {"initial store is not invariant under permutations of "
           "symmetric sort '" +
               D.Name + "'",
           D.Loc.Line, D.Loc.Column, Severity::Error, D.Loc.File});
      Sym.reset();
    }
  }
  if (!Diags.empty())
    return std::nullopt;

  // Lower the actions, each carrying its gate's footprint.
  annotateGates(*Shared);
  CompiledModule Result;
  Result.InitialStore = Init;
  Result.Hir = Shared;
  for (const hir::Action &A : Shared->Actions) {
    size_t Arity = A.Params.size();
    const hir::Action *Decl = &A;
    auto BindSlots = [Shared, Decl](const std::vector<Value> &Args) {
      std::vector<Value> Slots(Decl->NumSlots, Value::unit());
      for (size_t I = 0; I < Decl->Params.size(); ++I)
        Slots[Decl->Params[I].Slot] = Args[I];
      return Slots;
    };
    Action::GateFn Gate = [Shared, Decl, BindSlots](const GateContext &Ctx) {
      HirEnv Env;
      Env.Slots = BindSlots(Ctx.Args);
      Env.Types = &Shared->Types;
      // The pending builtins read Ω in place.
      Env.Pending = &Ctx.Omega;
      return runHirGate(Decl->Body, Ctx.Global, Env);
    };
    Action::TransitionsFn Transitions =
        [Shared, Decl, BindSlots](const Store &G,
                                  const std::vector<Value> &Args) {
          HirEnv Env;
          Env.Slots = BindSlots(Args);
          Env.Types = &Shared->Types;
          return runHirBody(Decl->Body, G, Env).Transitions;
        };
    // The evaluator is a pure function of (HIR, store, slots), so the
    // enumerator may run from concurrent checker jobs.
    Action Lowered(A.Name, Arity, std::move(Gate), std::move(Transitions),
                   A.UsesPending,
                   /*TransitionsThreadSafe=*/true);
    Lowered.setFp(fingerprintHirAction(A, Shared->Types));
    Lowered.setGateFootprint(!A.GateMayFail    ? GateFootprint::AlwaysHolds
                             : A.GateReadsStore ? GateFootprint::Store
                                                : GateFootprint::NoStore);
    Result.P.addAction(std::move(Lowered));
  }
  // Resolve last: every name a pending builtin can target is an action
  // interned above, so resolving the callees interns nothing new —
  // interning order fixes symbol order, which Ω's canonical order and
  // with it exploration order rest on.
  resolvePendingCallees(*Shared);
  if (Sym)
    Result.P.setSymmetry(std::move(Sym));
  return Result;
}
