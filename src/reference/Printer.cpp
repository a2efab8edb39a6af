//===- reference/Printer.cpp - ASL pretty-printer --------------------------===//

#include "reference/Printer.h"

#include <cassert>

using namespace isq;
using namespace isq::asl;

namespace {

/// Precedence used for minimal parenthesization; mirrors the parser.
int precedenceOf(const std::string &Op) {
  if (Op == "||")
    return 1;
  if (Op == "&&")
    return 2;
  if (Op == "==" || Op == "!=")
    return 3;
  if (Op == "<" || Op == "<=" || Op == ">" || Op == ">=")
    return 4;
  if (Op == "+" || Op == "-")
    return 5;
  return 6; // * / %
}

/// Prints \p E, parenthesizing when its precedence is below \p MinPrec.
std::string printPrec(const Expr &E, int MinPrec) {
  if (E.Kind != ExprKind::Binary)
    return printExpr(E);
  int Prec = precedenceOf(E.Op);
  // Left-associative operators: the right operand needs one level more.
  std::string Body = printPrec(*E.Children[0], Prec) + " " + E.Op + " " +
                     printPrec(*E.Children[1], Prec + 1);
  if (Prec < MinPrec)
    return "(" + Body + ")";
  return Body;
}

std::string indentOf(unsigned Indent) {
  return std::string(2 * Indent, ' ');
}

std::string printBlock(const std::vector<StmtPtr> &Body, unsigned Indent) {
  std::string Out = "{\n";
  for (const StmtPtr &S : Body)
    Out += printStmt(*S, Indent + 1);
  Out += indentOf(Indent) + "}";
  return Out;
}

std::string printType(const TypeRef &T) { return T.str(); }

} // namespace

std::string asl::printExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLit:
    return std::to_string(E.IntValue);
  case ExprKind::BoolLit:
    return E.IntValue ? "true" : "false";
  case ExprKind::NoneLit:
    return "none";
  case ExprKind::EmptyLit:
    return E.IntValue || E.Type.K == TypeRef::Kind::Seq ? "[]" : "{}";
  case ExprKind::VarRef:
    return E.Name;
  case ExprKind::Index:
    return printExpr(*E.Children[0]) + "[" + printExpr(*E.Children[1]) +
           "]";
  case ExprKind::Unary:
    return E.Op + printPrec(*E.Children[0], 7);
  case ExprKind::Binary:
    return printPrec(E, 0);
  case ExprKind::Call: {
    std::string Out = E.Name + "(";
    for (size_t I = 0; I < E.Children.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(*E.Children[I]);
    }
    return Out + ")";
  }
  case ExprKind::SomeExpr:
    return "some(" + printExpr(*E.Children[0]) + ")";
  case ExprKind::MapCompr:
    return "map " + E.Name + " in " + printExpr(*E.Children[0]) + " .. " +
           printExpr(*E.Children[1]) + " : " + printExpr(*E.Children[2]);
  }
  assert(false && "unhandled expression kind");
  return "";
}

std::string asl::printStmt(const Stmt &S, unsigned Indent) {
  std::string Pad = indentOf(Indent);
  switch (S.Kind) {
  case StmtKind::Skip:
    return Pad + "skip;\n";
  case StmtKind::Assert:
    return Pad + "assert " + printExpr(*S.Exprs[0]) + ";\n";
  case StmtKind::Await:
    return Pad + "await " + printExpr(*S.Exprs[0]) + ";\n";
  case StmtKind::Assign: {
    std::string Out = Pad + S.Name;
    for (size_t I = 0; I + 1 < S.Exprs.size(); ++I) {
      Out += "[";
      Out += printExpr(*S.Exprs[I]);
      Out += "]";
    }
    return Out + " := " + printExpr(*S.Exprs.back()) + ";\n";
  }
  case StmtKind::If: {
    std::string Out = Pad + "if " + printExpr(*S.Exprs[0]) + " " +
                      printBlock(S.Body, Indent);
    if (!S.ElseBody.empty())
      Out += " else " + printBlock(S.ElseBody, Indent);
    return Out + "\n";
  }
  case StmtKind::For:
    return Pad + "for " + S.Name + " in " + printExpr(*S.Exprs[0]) +
           " .. " + printExpr(*S.Exprs[1]) + " " +
           printBlock(S.Body, Indent) + "\n";
  case StmtKind::Async: {
    std::string Out = Pad + "async " + S.Name + "(";
    for (size_t I = 0; I < S.Exprs.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(*S.Exprs[I]);
    }
    return Out + ");\n";
  }
  case StmtKind::Choose:
    return Pad + "choose " + S.Name + " in " + printExpr(*S.Exprs[0]) +
           ";\n";
  }
  assert(false && "unhandled statement kind");
  return "";
}

std::string asl::printModule(const Module &M) {
  std::string Out;
  for (const ImportDecl &I : M.Imports)
    Out += "import \"" + I.Path + "\";\n";
  if (!M.Imports.empty())
    Out += "\n";
  for (const ConstDecl &C : M.Consts) {
    Out += (C.IsParam ? "param " : "const ") + C.Name + ": int";
    if (C.Init)
      Out += " := " + printExpr(*C.Init);
    Out += ";\n";
  }
  for (const SymmetricDecl &D : M.Symmetrics)
    Out += "symmetric " + D.Name + ": " + printExpr(*D.Lo) + " .. " +
           printExpr(*D.Hi) + ";\n";
  if (!M.Consts.empty() || !M.Symmetrics.empty())
    Out += "\n";
  for (const VarDecl &V : M.Vars)
    Out += "var " + V.Name + ": " + printType(V.Type) + " := " +
           printExpr(*V.Init) + ";\n";
  if (!M.Vars.empty())
    Out += "\n";
  for (const ActionDecl &A : M.Actions) {
    Out += "action " + A.Name + "(";
    for (size_t I = 0; I < A.Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += A.Params[I].Name + ": " + printType(A.Params[I].Type);
    }
    Out += ") " + printBlock(A.Body, 0) + "\n\n";
  }
  return Out;
}
