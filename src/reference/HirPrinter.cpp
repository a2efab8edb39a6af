//===- reference/HirPrinter.cpp - HIR printing -----------------------------===//

#include "reference/Printer.h"

#include <cassert>

using namespace isq;
using namespace isq::asl;

namespace {

std::string indentOf(unsigned Indent) { return std::string(2 * Indent, ' '); }

std::string printBlock(const std::vector<hir::StmtPtr> &Body,
                       unsigned Indent) {
  std::string Out = "{\n";
  for (const hir::StmtPtr &S : Body)
    Out += hir::print(*S, Indent + 1);
  Out += indentOf(Indent) + "}";
  return Out;
}

std::string slotName(uint32_t Slot) {
  if (Slot == hir::NoSlot)
    return "%_";
  std::string Out = "%";
  Out += std::to_string(Slot);
  return Out;
}

} // namespace

std::string hir::print(const hir::Expr &E) {
  switch (E.Kind) {
  case hir::ExprKind::IntLit:
    return std::to_string(E.IntValue);
  case hir::ExprKind::BoolLit:
    return E.IntValue ? "true" : "false";
  case hir::ExprKind::NoneLit:
    return "none";
  case hir::ExprKind::EmptyLit:
    return "empty:" + std::to_string(E.Type);
  case hir::ExprKind::LocalRef:
    return slotName(E.Slot);
  case hir::ExprKind::ConstRef:
    return "const:" + E.Name;
  case hir::ExprKind::GlobalRef:
    return "@" + E.Name;
  case hir::ExprKind::Index:
    return print(*E.Children[0]) + "[" + print(*E.Children[1]) + "]";
  case hir::ExprKind::Unary:
    return "(" + E.Op + " " + print(*E.Children[0]) + ")";
  case hir::ExprKind::Binary: {
    std::string Out = "(";
    Out += print(*E.Children[0]);
    return Out + " " + E.Op + " " + print(*E.Children[1]) + ")";
  }
  case hir::ExprKind::Call: {
    std::string Out = E.Name + "(";
    if (!E.Callee.empty())
      Out += E.Callee;
    for (size_t I = 0; I < E.Children.size(); ++I) {
      if (I || !E.Callee.empty())
        Out += ", ";
      Out += print(*E.Children[I]);
    }
    return Out + ")";
  }
  case hir::ExprKind::Some:
    return "some(" + print(*E.Children[0]) + ")";
  case hir::ExprKind::MapCompr:
    return "map " + slotName(E.Slot) + " in " + print(*E.Children[0]) +
           " .. " + print(*E.Children[1]) + " : " + print(*E.Children[2]);
  }
  assert(false && "unhandled HIR expression kind");
  return "";
}

std::string hir::print(const hir::Stmt &S, unsigned Indent) {
  std::string Pad = indentOf(Indent);
  switch (S.Kind) {
  case hir::StmtKind::Skip:
    return Pad + "skip;\n";
  case hir::StmtKind::Assert:
    return Pad + "assert " + print(*S.Exprs[0]) + ";\n";
  case hir::StmtKind::Await:
    return Pad + "await " + print(*S.Exprs[0]) + ";\n";
  case hir::StmtKind::Assign: {
    std::string Out = Pad + "@" + S.Name;
    for (size_t I = 0; I + 1 < S.Exprs.size(); ++I) {
      Out += "[";
      Out += print(*S.Exprs[I]);
      Out += "]";
    }
    return Out + " := " + print(*S.Exprs.back()) + ";\n";
  }
  case hir::StmtKind::If: {
    std::string Out =
        Pad + "if " + print(*S.Exprs[0]) + " " + printBlock(S.Body, Indent);
    if (!S.ElseBody.empty())
      Out += " else " + printBlock(S.ElseBody, Indent);
    return Out + "\n";
  }
  case hir::StmtKind::For:
    return Pad + "for " + slotName(S.Slot) + " in " + print(*S.Exprs[0]) +
           " .. " + print(*S.Exprs[1]) + " " + printBlock(S.Body, Indent) +
           "\n";
  case hir::StmtKind::Async: {
    std::string Out = Pad + "async " + S.Name + "(";
    for (size_t I = 0; I < S.Exprs.size(); ++I) {
      if (I)
        Out += ", ";
      Out += print(*S.Exprs[I]);
    }
    return Out + ");\n";
  }
  case hir::StmtKind::Choose:
    return Pad + "choose " + slotName(S.Slot) + " in " +
           print(*S.Exprs[0]) + ";\n";
  }
  assert(false && "unhandled HIR statement kind");
  return "";
}

std::string hir::print(const hir::Module &M) {
  std::string Out;
  for (const std::string &C : M.ConstNames)
    Out += "const " + C + ";\n";
  for (const hir::Symmetric &S : M.Symmetrics)
    Out += "symmetric " + S.Name + ": " + print(*S.Lo) + " .. " +
           print(*S.Hi) + ";\n";
  for (const hir::Global &G : M.Globals)
    Out += "global @" + G.Name + ": " + M.Types.get(G.Type).str() +
           " := " + print(*G.Init) + ";\n";
  for (const hir::Action &A : M.Actions) {
    Out += "action " + A.Name + "(";
    for (size_t I = 0; I < A.Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += slotName(A.Params[I].Slot) + ": " +
             M.Types.get(A.Params[I].Type).str();
    }
    Out += ") slots=" + std::to_string(A.NumSlots) +
           (A.UsesPending ? " pending " : " ") + printBlock(A.Body, 0) +
           "\n";
  }
  return Out;
}
