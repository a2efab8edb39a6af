//===- lang/Parser.cpp - ASL parser --------------------------------------------===//

#include "lang/Parser.h"

using namespace isq;
using namespace isq::asl;

namespace {

/// The parser state: a token cursor with diagnostics.
class Parser {
public:
  Parser(std::vector<Token> Tokens, std::vector<Diagnostic> &Diags,
         uint32_t FileId)
      : Tokens(std::move(Tokens)), Diags(Diags), FileId(FileId) {}

  std::optional<Module> parseModule();

private:
  const Token &peek(size_t Ahead = 0) const {
    size_t Index = std::min(Pos + Ahead, Tokens.size() - 1);
    return Tokens[Index];
  }
  const Token &advance() { return Tokens[std::min(Pos++, Tokens.size() - 1)]; }
  bool check(TokenKind K) const { return peek().is(K); }
  bool match(TokenKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind K, const char *Context) {
    if (match(K))
      return true;
    error(std::string("expected ") + tokenKindName(K) + " " + Context +
          ", found " + tokenKindName(peek().Kind));
    return false;
  }
  void error(const std::string &Message) {
    Diags.push_back(
        {Message, peek().Line, peek().Column, Severity::Error, FileId});
    Failed = true;
  }
  ExprPtr makeExpr(ExprKind Kind, const Token &At) const {
    auto E = std::make_unique<Expr>();
    E->Kind = Kind;
    E->Line = At.Line;
    E->Column = At.Column;
    E->File = FileId;
    return E;
  }

  std::optional<TypeRef> parseType();
  ExprPtr parseExpr();
  ExprPtr parseBinaryRhs(int MinPrec, ExprPtr Lhs);
  ExprPtr parseUnary();
  ExprPtr parsePrimary();
  StmtPtr parseStmt();
  bool parseBlock(std::vector<StmtPtr> &Out);

  std::vector<Token> Tokens;
  std::vector<Diagnostic> &Diags;
  uint32_t FileId = 0;
  size_t Pos = 0;
  bool Failed = false;
};

/// Binary operator precedence (higher binds tighter); -1 for non-operators.
int precedenceOf(TokenKind K) {
  switch (K) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::EqEq:
  case TokenKind::BangEq:
    return 3;
  case TokenKind::Less:
  case TokenKind::LessEq:
  case TokenKind::Greater:
  case TokenKind::GreaterEq:
    return 4;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 5;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 6;
  default:
    return -1;
  }
}

} // namespace

std::optional<TypeRef> Parser::parseType() {
  const Token &T = advance();
  auto Param = [&]() -> std::optional<TypeRef> {
    if (!expect(TokenKind::Less, "in type"))
      return std::nullopt;
    auto Inner = parseType();
    if (!Inner)
      return std::nullopt;
    if (!expect(TokenKind::Greater, "closing type parameter"))
      return std::nullopt;
    return Inner;
  };
  switch (T.Kind) {
  case TokenKind::KwInt:
    return TypeRef::intTy();
  case TokenKind::KwBool:
    return TypeRef::boolTy();
  case TokenKind::KwOption: {
    auto Inner = Param();
    return Inner ? std::optional<TypeRef>(TypeRef::optionTy(*Inner))
                 : std::nullopt;
  }
  case TokenKind::KwSet: {
    auto Inner = Param();
    return Inner ? std::optional<TypeRef>(TypeRef::setTy(*Inner))
                 : std::nullopt;
  }
  case TokenKind::KwBag: {
    auto Inner = Param();
    return Inner ? std::optional<TypeRef>(TypeRef::bagTy(*Inner))
                 : std::nullopt;
  }
  case TokenKind::KwSeq: {
    auto Inner = Param();
    return Inner ? std::optional<TypeRef>(TypeRef::seqTy(*Inner))
                 : std::nullopt;
  }
  case TokenKind::KwMap: {
    if (!expect(TokenKind::Less, "in map type"))
      return std::nullopt;
    auto Key = parseType();
    if (!Key || !expect(TokenKind::Comma, "between map type parameters"))
      return std::nullopt;
    auto Val = parseType();
    if (!Val || !expect(TokenKind::Greater, "closing map type"))
      return std::nullopt;
    return TypeRef::mapTy(*Key, *Val);
  }
  case TokenKind::Identifier:
    // A named symmetric sort (structurally int). The type checker
    // verifies the name is actually declared.
    return TypeRef::sortTy(T.Text);
  default:
    error(std::string("expected a type, found ") + tokenKindName(T.Kind));
    return std::nullopt;
  }
}

ExprPtr Parser::parsePrimary() {
  const Token &T = peek();
  switch (T.Kind) {
  case TokenKind::IntLiteral: {
    ExprPtr E = makeExpr(ExprKind::IntLit, T);
    E->IntValue = T.IntValue;
    advance();
    return E;
  }
  case TokenKind::KwTrue:
  case TokenKind::KwFalse: {
    ExprPtr E = makeExpr(ExprKind::BoolLit, T);
    E->IntValue = T.Kind == TokenKind::KwTrue ? 1 : 0;
    advance();
    return E;
  }
  case TokenKind::KwNone: {
    advance();
    return makeExpr(ExprKind::NoneLit, T);
  }
  case TokenKind::LBrace: {
    // {} — empty set/bag/map literal, typed from context.
    ExprPtr E = makeExpr(ExprKind::EmptyLit, T);
    advance();
    expect(TokenKind::RBrace, "closing empty collection literal");
    return E;
  }
  case TokenKind::LBracket: {
    // [] — empty sequence literal (IntValue marks the bracket spelling
    // so the printer can round-trip before type checking).
    ExprPtr E = makeExpr(ExprKind::EmptyLit, T);
    E->IntValue = 1;
    advance();
    expect(TokenKind::RBracket, "closing empty sequence literal");
    return E;
  }
  case TokenKind::KwSome: {
    ExprPtr E = makeExpr(ExprKind::SomeExpr, T);
    advance();
    expect(TokenKind::LParen, "after 'some'");
    E->Children.push_back(parseExpr());
    expect(TokenKind::RParen, "closing 'some'");
    return E;
  }
  case TokenKind::KwMap: {
    // map i in lo .. hi : body
    ExprPtr E = makeExpr(ExprKind::MapCompr, T);
    advance();
    if (check(TokenKind::Identifier)) {
      E->Name = peek().Text;
      advance();
    } else {
      error("expected comprehension variable after 'map'");
    }
    expect(TokenKind::KwIn, "in map comprehension");
    E->Children.push_back(parseExpr());
    expect(TokenKind::DotDot, "in map comprehension range");
    E->Children.push_back(parseExpr());
    expect(TokenKind::Colon, "before map comprehension body");
    E->Children.push_back(parseExpr());
    return E;
  }
  case TokenKind::LParen: {
    advance();
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "closing parenthesis");
    return E;
  }
  case TokenKind::Identifier: {
    Token Id = advance();
    if (match(TokenKind::LParen)) {
      // Builtin call.
      ExprPtr E = makeExpr(ExprKind::Call, Id);
      E->Name = Id.Text;
      if (!check(TokenKind::RParen)) {
        do {
          E->Children.push_back(parseExpr());
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "closing call");
      return E;
    }
    ExprPtr E = makeExpr(ExprKind::VarRef, Id);
    E->Name = Id.Text;
    // Indexing chains: a[i][j].
    while (match(TokenKind::LBracket)) {
      ExprPtr Index = makeExpr(ExprKind::Index, Id);
      Index->Children.push_back(std::move(E));
      Index->Children.push_back(parseExpr());
      expect(TokenKind::RBracket, "closing index");
      E = std::move(Index);
    }
    return E;
  }
  default:
    error(std::string("expected an expression, found ") +
          tokenKindName(T.Kind));
    advance();
    return makeExpr(ExprKind::IntLit, T);
  }
}

ExprPtr Parser::parseUnary() {
  const Token &T = peek();
  if (T.is(TokenKind::Minus) || T.is(TokenKind::Bang)) {
    advance();
    ExprPtr E = makeExpr(ExprKind::Unary, T);
    E->Op.assign(1, T.is(TokenKind::Minus) ? '-' : '!');
    E->Children.push_back(parseUnary());
    return E;
  }
  return parsePrimary();
}

ExprPtr Parser::parseBinaryRhs(int MinPrec, ExprPtr Lhs) {
  while (true) {
    int Prec = precedenceOf(peek().Kind);
    if (Prec < MinPrec)
      return Lhs;
    Token Op = advance();
    ExprPtr Rhs = parseUnary();
    int NextPrec = precedenceOf(peek().Kind);
    if (NextPrec > Prec)
      Rhs = parseBinaryRhs(Prec + 1, std::move(Rhs));
    ExprPtr Bin = makeExpr(ExprKind::Binary, Op);
    Bin->Op = Op.Text;
    Bin->Children.push_back(std::move(Lhs));
    Bin->Children.push_back(std::move(Rhs));
    Lhs = std::move(Bin);
  }
}

ExprPtr Parser::parseExpr() { return parseBinaryRhs(1, parseUnary()); }

bool Parser::parseBlock(std::vector<StmtPtr> &Out) {
  if (!expect(TokenKind::LBrace, "to open block"))
    return false;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    StmtPtr S = parseStmt();
    if (!S)
      return false;
    Out.push_back(std::move(S));
  }
  return expect(TokenKind::RBrace, "to close block");
}

StmtPtr Parser::parseStmt() {
  const Token &T = peek();
  auto S = std::make_unique<Stmt>();
  S->Line = T.Line;
  S->Column = T.Column;
  S->File = FileId;
  switch (T.Kind) {
  case TokenKind::KwSkip:
    advance();
    S->Kind = StmtKind::Skip;
    expect(TokenKind::Semicolon, "after 'skip'");
    return S;
  case TokenKind::KwAssert:
    advance();
    S->Kind = StmtKind::Assert;
    S->Exprs.push_back(parseExpr());
    expect(TokenKind::Semicolon, "after 'assert'");
    return S;
  case TokenKind::KwAwait:
    advance();
    S->Kind = StmtKind::Await;
    S->Exprs.push_back(parseExpr());
    expect(TokenKind::Semicolon, "after 'await'");
    return S;
  case TokenKind::KwAsync: {
    advance();
    S->Kind = StmtKind::Async;
    if (check(TokenKind::Identifier)) {
      S->Name = peek().Text;
      advance();
    } else {
      error("expected action name after 'async'");
    }
    expect(TokenKind::LParen, "after async action name");
    if (!check(TokenKind::RParen)) {
      do {
        S->Exprs.push_back(parseExpr());
      } while (match(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "closing async arguments");
    expect(TokenKind::Semicolon, "after async call");
    return S;
  }
  case TokenKind::KwChoose: {
    advance();
    S->Kind = StmtKind::Choose;
    if (check(TokenKind::Identifier)) {
      S->Name = peek().Text;
      advance();
    } else {
      error("expected variable name after 'choose'");
    }
    expect(TokenKind::KwIn, "in choose statement");
    S->Exprs.push_back(parseExpr());
    expect(TokenKind::Semicolon, "after choose");
    return S;
  }
  case TokenKind::KwIf: {
    advance();
    S->Kind = StmtKind::If;
    S->Exprs.push_back(parseExpr());
    if (!parseBlock(S->Body))
      return nullptr;
    if (match(TokenKind::KwElse))
      if (!parseBlock(S->ElseBody))
        return nullptr;
    return S;
  }
  case TokenKind::KwFor: {
    advance();
    S->Kind = StmtKind::For;
    if (check(TokenKind::Identifier)) {
      S->Name = peek().Text;
      advance();
    } else {
      error("expected loop variable after 'for'");
    }
    expect(TokenKind::KwIn, "in for statement");
    S->Exprs.push_back(parseExpr());
    expect(TokenKind::DotDot, "in for range");
    S->Exprs.push_back(parseExpr());
    if (!parseBlock(S->Body))
      return nullptr;
    return S;
  }
  case TokenKind::Identifier: {
    // Assignment: name[idx]* := expr ;
    S->Kind = StmtKind::Assign;
    S->Name = T.Text;
    advance();
    while (match(TokenKind::LBracket)) {
      S->Exprs.push_back(parseExpr());
      expect(TokenKind::RBracket, "closing index in assignment");
    }
    expect(TokenKind::Assign, "in assignment");
    S->Exprs.push_back(parseExpr());
    expect(TokenKind::Semicolon, "after assignment");
    return S;
  }
  default:
    error(std::string("expected a statement, found ") +
          tokenKindName(T.Kind));
    advance();
    return nullptr;
  }
}

std::optional<Module> Parser::parseModule() {
  Module M;
  while (!check(TokenKind::Eof)) {
    // `symmetric`, `import`, and `param` are context-sensitive keywords:
    // only an identifier with that spelling in declaration position opens
    // the corresponding declaration, so existing modules may keep using
    // the names elsewhere (e.g. as action parameters).
    if (check(TokenKind::Identifier) && peek().Text == "import") {
      ImportDecl D;
      D.Line = peek().Line;
      D.Column = peek().Column;
      D.File = FileId;
      advance();
      if (check(TokenKind::StringLiteral)) {
        D.Path = peek().Text;
        advance();
        if (D.Path.empty())
          error("import path must not be empty");
      } else {
        error("expected a quoted path after 'import'");
      }
      expect(TokenKind::Semicolon, "after import declaration");
      M.Imports.push_back(std::move(D));
      continue;
    }
    if (check(TokenKind::Identifier) && peek().Text == "param") {
      ConstDecl D;
      D.Line = peek().Line;
      D.Column = peek().Column;
      D.File = FileId;
      D.IsParam = true;
      advance();
      if (check(TokenKind::Identifier)) {
        D.Name = peek().Text;
        advance();
      } else {
        error("expected parameter name after 'param'");
      }
      expect(TokenKind::Colon, "in param declaration");
      auto Ty = parseType();
      if (Ty && *Ty != TypeRef::intTy())
        error("parameters must have type int");
      if (match(TokenKind::Assign))
        D.Init = parseExpr();
      expect(TokenKind::Semicolon, "after param declaration");
      M.Consts.push_back(std::move(D));
      continue;
    }
    if (check(TokenKind::Identifier) && peek().Text == "symmetric") {
      SymmetricDecl D;
      D.Line = peek().Line;
      D.Column = peek().Column;
      D.File = FileId;
      advance();
      if (check(TokenKind::Identifier)) {
        D.Name = peek().Text;
        advance();
      } else {
        error("expected sort name after 'symmetric'");
      }
      expect(TokenKind::Colon, "in symmetric declaration");
      D.Lo = parseExpr();
      expect(TokenKind::DotDot, "in symmetric sort range");
      D.Hi = parseExpr();
      expect(TokenKind::Semicolon, "after symmetric declaration");
      M.Symmetrics.push_back(std::move(D));
      continue;
    }
    if (match(TokenKind::KwConst)) {
      ConstDecl D;
      D.Line = peek().Line;
      D.Column = peek().Column;
      D.File = FileId;
      if (check(TokenKind::Identifier)) {
        D.Name = peek().Text;
        advance();
      } else {
        error("expected constant name");
      }
      expect(TokenKind::Colon, "in const declaration");
      auto Ty = parseType();
      if (Ty && *Ty != TypeRef::intTy())
        error("constants must have type int");
      if (match(TokenKind::Assign))
        D.Init = parseExpr();
      expect(TokenKind::Semicolon, "after const declaration");
      M.Consts.push_back(std::move(D));
      continue;
    }
    if (match(TokenKind::KwVar)) {
      VarDecl D;
      D.Line = peek().Line;
      D.Column = peek().Column;
      D.File = FileId;
      if (check(TokenKind::Identifier)) {
        D.Name = peek().Text;
        advance();
      } else {
        error("expected variable name");
      }
      expect(TokenKind::Colon, "in var declaration");
      auto Ty = parseType();
      if (Ty)
        D.Type = *Ty;
      expect(TokenKind::Assign, "var declarations need an initializer");
      D.Init = parseExpr();
      expect(TokenKind::Semicolon, "after var declaration");
      M.Vars.push_back(std::move(D));
      continue;
    }
    if (match(TokenKind::KwAction)) {
      ActionDecl A;
      A.Line = peek().Line;
      A.Column = peek().Column;
      A.File = FileId;
      if (check(TokenKind::Identifier)) {
        A.Name = peek().Text;
        advance();
      } else {
        error("expected action name");
      }
      expect(TokenKind::LParen, "after action name");
      if (!check(TokenKind::RParen)) {
        do {
          ParamDecl P;
          if (check(TokenKind::Identifier)) {
            P.Name = peek().Text;
            advance();
          } else {
            error("expected parameter name");
          }
          expect(TokenKind::Colon, "in parameter declaration");
          auto Ty = parseType();
          if (Ty)
            P.Type = *Ty;
          A.Params.push_back(std::move(P));
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "closing parameter list");
      if (!parseBlock(A.Body))
        return std::nullopt;
      M.Actions.push_back(std::move(A));
      continue;
    }
    error(std::string("expected a declaration, found ") +
          tokenKindName(peek().Kind));
    advance();
  }
  if (Failed)
    return std::nullopt;
  return M;
}

std::optional<Module> asl::parseModule(const std::string &Source,
                                       std::vector<Diagnostic> &Diags,
                                       uint32_t FileId) {
  std::vector<Token> Tokens = lex(Source, Diags, FileId);
  if (!Diags.empty())
    return std::nullopt;
  Parser P(std::move(Tokens), Diags, FileId);
  return P.parseModule();
}
