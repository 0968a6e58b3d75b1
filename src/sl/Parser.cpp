//===- sl/Parser.cpp - Concrete syntax for entailments ---------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "sl/Parser.h"

#include <cctype>
#include <cstdio>
#include <sstream>

using namespace slp;
using namespace slp::sl;

std::string ParseError::render() const {
  std::ostringstream OS;
  OS << Line << ':' << Column << ": error: " << Message;
  return OS.str();
}

namespace {

enum class TokKind {
  Ident,
  Eq,       // = or ==
  Ne,       // !=
  Arrow,    // ->
  Star,     // *
  Amp,      // & (also /\)
  Turnstile,// |- or |=
  LParen,
  RParen,
  Comma,
  Unknown, ///< An unrecognized character; Text carries it.
  End,
};

struct Token {
  TokKind Kind;
  std::string_view Text;
  unsigned Line;
  unsigned Column;
};

class Lexer {
public:
  explicit Lexer(std::string_view Input) : Input(Input) {}

  Token next() {
    skipTrivia();
    unsigned TokLine = Line, TokCol = Column;
    auto Make = [&](TokKind K, size_t Len) {
      Token T{K, Input.substr(Pos, Len), TokLine, TokCol};
      Pos += Len;
      Column += static_cast<unsigned>(Len);
      return T;
    };
    if (Pos >= Input.size())
      return Make(TokKind::End, 0);
    char C = Input[Pos];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Len = 1;
      while (Pos + Len < Input.size() &&
             (std::isalnum(static_cast<unsigned char>(Input[Pos + Len])) ||
              Input[Pos + Len] == '_' || Input[Pos + Len] == '\''))
        ++Len;
      return Make(TokKind::Ident, Len);
    }
    if (startsWith("|-") || startsWith("|="))
      return Make(TokKind::Turnstile, 2);
    if (startsWith("=="))
      return Make(TokKind::Eq, 2);
    if (startsWith("!="))
      return Make(TokKind::Ne, 2);
    if (startsWith("->"))
      return Make(TokKind::Arrow, 2);
    if (startsWith("/\\"))
      return Make(TokKind::Amp, 2);
    switch (C) {
    case '=':
      return Make(TokKind::Eq, 1);
    case '*':
      return Make(TokKind::Star, 1);
    case '&':
      return Make(TokKind::Amp, 1);
    case '(':
      return Make(TokKind::LParen, 1);
    case ')':
      return Make(TokKind::RParen, 1);
    case ',':
      return Make(TokKind::Comma, 1);
    default:
      // Carry the offending character so diagnostics can name it with
      // its real position instead of claiming the input ended.
      return Make(TokKind::Unknown, 1);
    }
  }

  unsigned line() const { return Line; }
  unsigned column() const { return Column; }

private:
  bool startsWith(std::string_view S) const {
    return Input.substr(Pos, S.size()) == S;
  }

  void skipTrivia() {
    while (Pos < Input.size()) {
      char C = Input[Pos];
      if (C == '\n') {
        ++Line;
        Column = 1;
        ++Pos;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++Column;
        ++Pos;
        continue;
      }
      if (C == '#' || startsWith("//")) {
        while (Pos < Input.size() && Input[Pos] != '\n') {
          ++Pos;
          ++Column;
        }
        continue;
      }
      break;
    }
  }

  std::string_view Input;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Column = 1;
};

/// Recursive-descent parser over the token stream.
class Parser {
public:
  Parser(TermTable &Terms, std::string_view Input)
      : Terms(Terms), Lex(Input) {
    Tok = Lex.next();
  }

  ParseResult parseEntailment() {
    Entailment E;
    if (!parseAssertion(E.Lhs, /*AllowFalse=*/false))
      return {std::nullopt, Err};
    if (!expect(TokKind::Turnstile, "'|-'"))
      return {std::nullopt, Err};
    if (!parseAssertion(E.Rhs, /*AllowFalse=*/true))
      return {std::nullopt, Err};
    if (Tok.Kind != TokKind::End) {
      fail("unexpected trailing input");
      return {std::nullopt, Err};
    }
    return {E, std::nullopt};
  }

private:
  void advance() { Tok = Lex.next(); }

  bool fail(std::string Message) {
    if (!Err) {
      // An unrecognized character is the root cause of whatever the
      // grammar expected; report it by name and position. Bytes
      // outside printable ASCII (UTF-8 continuation bytes, control
      // characters) are rendered as hex escapes so the diagnostic
      // itself stays well-formed.
      if (Tok.Kind == TokKind::Unknown) {
        char C = Tok.Text.empty() ? '\0' : Tok.Text.front();
        if (std::isprint(static_cast<unsigned char>(C))) {
          Message = std::string("unrecognized character '") + C + "'";
        } else {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\x%02X",
                        static_cast<unsigned char>(C));
          Message = std::string("unrecognized character '") + Buf + "'";
        }
      }
      Err = ParseError{std::move(Message), Tok.Line, Tok.Column};
    }
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (Tok.Kind != K)
      return fail(std::string("expected ") + What);
    advance();
    return true;
  }

  Symbol parseVar() {
    if (Tok.Kind != TokKind::Ident) {
      fail("expected a program variable or nil");
      return {};
    }
    Symbol T = Terms.constant(Tok.Text);
    advance();
    return T;
  }

  /// assertion := "true" | "false" | atom (("&"|"*") atom)*
  bool parseAssertion(Assertion &Out, bool AllowFalse) {
    if (Tok.Kind == TokKind::Ident && Tok.Text == "true") {
      advance();
      if (Tok.Kind == TokKind::Amp || Tok.Kind == TokKind::Star) {
        advance();
        return parseAtoms(Out, AllowFalse);
      }
      return true;
    }
    return parseAtoms(Out, AllowFalse);
  }

  bool parseAtoms(Assertion &Out, bool AllowFalse) {
    for (;;) {
      if (!parseAtom(Out, AllowFalse))
        return false;
      if (Tok.Kind == TokKind::Amp || Tok.Kind == TokKind::Star) {
        advance();
        continue;
      }
      return true;
    }
  }

  bool parseAtom(Assertion &Out, bool AllowFalse) {
    if (Tok.Kind != TokKind::Ident)
      return fail("expected an atom");

    if (Tok.Text == "emp") {
      advance();
      return true;
    }
    if (Tok.Text == "false") {
      if (!AllowFalse)
        return fail("'false' is only allowed on the right-hand side");
      advance();
      // ⊥ := nil != nil (with an empty spatial part).
      Out.Pure.push_back(PureAtom::ne(Terms.nil(), Terms.nil()));
      return true;
    }
    if (Tok.Text == "next" || Tok.Text == "lseg") {
      bool IsNext = Tok.Text == "next";
      advance();
      if (!expect(TokKind::LParen, "'('"))
        return false;
      Symbol A = parseVar();
      if (!A.valid())
        return false;
      if (!expect(TokKind::Comma, "','"))
        return false;
      Symbol V = parseVar();
      if (!V.valid())
        return false;
      if (!expect(TokKind::RParen, "')'"))
        return false;
      Out.Spatial.push_back(IsNext ? HeapAtom::next(A, V)
                                   : HeapAtom::lseg(A, V));
      return true;
    }

    // ident (= | != | ->) ident
    Symbol L = parseVar();
    if (!L.valid())
      return false;
    switch (Tok.Kind) {
    case TokKind::Eq:
      advance();
      break;
    case TokKind::Ne: {
      advance();
      Symbol R = parseVar();
      if (!R.valid())
        return false;
      Out.Pure.push_back(PureAtom::ne(L, R));
      return true;
    }
    case TokKind::Arrow: {
      advance();
      Symbol R = parseVar();
      if (!R.valid())
        return false;
      Out.Spatial.push_back(HeapAtom::next(L, R));
      return true;
    }
    default:
      return fail("expected '=', '!=' or '->' after variable");
    }
    Symbol R = parseVar();
    if (!R.valid())
      return false;
    Out.Pure.push_back(PureAtom::eq(L, R));
    return true;
  }

  TermTable &Terms;
  Lexer Lex;
  Token Tok;
  std::optional<ParseError> Err;
};

} // namespace

ParseResult sl::parseEntailment(TermTable &Terms, std::string_view Input) {
  Parser P(Terms, Input);
  return P.parseEntailment();
}
