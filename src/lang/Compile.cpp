//===- lang/Compile.cpp - ASL constant resolution ----------------------------------===//

#include "lang/Compile.h"

using namespace isq;
using namespace isq::asl;

namespace {

/// Minimal compile-time integer evaluator for constant initializers.
/// Only literals, references to already-resolved constants, unary minus,
/// and integer arithmetic are permitted.
std::optional<int64_t>
evalConstExpr(const Expr &E, const std::map<std::string, int64_t> &Resolved,
              std::vector<Diagnostic> &Diags) {
  auto Fail = [&](const std::string &Msg) -> std::optional<int64_t> {
    Diags.push_back({Msg, E.Line, E.Column, Severity::Error, E.File});
    return std::nullopt;
  };
  switch (E.Kind) {
  case ExprKind::IntLit:
    return E.IntValue;
  case ExprKind::VarRef: {
    auto It = Resolved.find(E.Name);
    if (It == Resolved.end())
      return Fail("constant initializer references '" + E.Name +
                  "', which is not a previously declared constant");
    return It->second;
  }
  case ExprKind::Unary: {
    if (E.Op != "-")
      return Fail("constant initializer must be an integer expression");
    auto V = evalConstExpr(*E.Children[0], Resolved, Diags);
    if (!V)
      return std::nullopt;
    return -*V;
  }
  case ExprKind::Binary: {
    auto L = evalConstExpr(*E.Children[0], Resolved, Diags);
    auto R = evalConstExpr(*E.Children[1], Resolved, Diags);
    if (!L || !R)
      return std::nullopt;
    if (E.Op == "+")
      return *L + *R;
    if (E.Op == "-")
      return *L - *R;
    if (E.Op == "*")
      return *L * *R;
    if (E.Op == "/" || E.Op == "%") {
      if (*R == 0)
        return Fail("division by zero in constant initializer");
      return E.Op == "/" ? *L / *R : *L % *R;
    }
    return Fail("constant initializer must be an integer expression");
  }
  default:
    return Fail(
        "constant initializer must be a compile-time integer expression");
  }
}

} // namespace

bool asl::resolveConstBindings(const Module &M,
                               const std::map<std::string, int64_t> &Bindings,
                               std::map<std::string, int64_t> &Resolved,
                               std::vector<Diagnostic> &Diags) {
  size_t Before = Diags.size();
  for (const ConstDecl &C : M.Consts) {
    auto It = Bindings.find(C.Name);
    if (It != Bindings.end()) {
      if (!C.IsParam && C.Init) {
        Diags.push_back({"constant '" + C.Name +
                             "' is derived and cannot be bound externally",
                         C.Line, C.Column, Severity::Error, C.File});
        continue;
      }
      Resolved[C.Name] = It->second;
      continue;
    }
    if (C.Init) {
      if (auto V = evalConstExpr(*C.Init, Resolved, Diags))
        Resolved[C.Name] = *V;
      continue;
    }
    Diags.push_back({"no binding supplied for constant '" + C.Name + "'",
                     C.Line, C.Column, Severity::Error, C.File});
  }
  for (const auto &[Name, V] : Bindings) {
    (void)V;
    bool Known = false;
    for (const ConstDecl &C : M.Consts)
      Known = Known || C.Name == Name;
    if (!Known)
      Diags.push_back(
          {"binding for undeclared constant '" + Name + "'", 0, 0});
  }
  return Diags.size() == Before;
}
