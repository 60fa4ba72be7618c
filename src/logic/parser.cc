#include "logic/parser.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "common/strings.h"
#include "logic/analysis.h"
#include "logic/builder.h"

namespace bvq {

namespace {

enum class TokKind {
  kEnd,
  kIdent,   // predicate names, keywords, variables
  kNumber,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kComma,
  kDot,
  kAmp,
  kPipe,
  kBang,
  kArrow,     // ->
  kDArrow,    // <->
  kEquals,
  kSlash,
};

struct Token {
  TokKind kind;
  std::string text;
  std::size_t pos;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_' || text_[j] == '\'')) {
          ++j;
        }
        out.push_back({TokKind::kIdent, text_.substr(i, j - i), i});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        while (j < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[j]))) {
          ++j;
        }
        out.push_back({TokKind::kNumber, text_.substr(i, j - i), i});
        i = j;
        continue;
      }
      switch (c) {
        case '(':
          out.push_back({TokKind::kLParen, "(", i});
          break;
        case ')':
          out.push_back({TokKind::kRParen, ")", i});
          break;
        case '[':
          out.push_back({TokKind::kLBracket, "[", i});
          break;
        case ']':
          out.push_back({TokKind::kRBracket, "]", i});
          break;
        case ',':
          out.push_back({TokKind::kComma, ",", i});
          break;
        case '.':
          out.push_back({TokKind::kDot, ".", i});
          break;
        case '&':
          out.push_back({TokKind::kAmp, "&", i});
          break;
        case '|':
          out.push_back({TokKind::kPipe, "|", i});
          break;
        case '!':
          out.push_back({TokKind::kBang, "!", i});
          break;
        case '=':
          out.push_back({TokKind::kEquals, "=", i});
          break;
        case '/':
          out.push_back({TokKind::kSlash, "/", i});
          break;
        case '-':
          if (i + 1 < text_.size() && text_[i + 1] == '>') {
            out.push_back({TokKind::kArrow, "->", i});
            ++i;
            break;
          }
          return Status::ParseError(
              StrCat("unexpected '-' at offset ", i));
        case '<':
          if (i + 2 < text_.size() && text_[i + 1] == '-' &&
              text_[i + 2] == '>') {
            out.push_back({TokKind::kDArrow, "<->", i});
            i += 2;
            break;
          }
          return Status::ParseError(
              StrCat("unexpected '<' at offset ", i));
        default:
          return Status::ParseError(
              StrCat("unexpected character '", std::string(1, c),
                     "' at offset ", i));
      }
      ++i;
    }
    out.push_back({TokKind::kEnd, "", text_.size()});
    return out;
  }

 private:
  const std::string& text_;
};

// True if ident is a variable token xN with N >= 1; sets *index to N-1.
bool IsVarToken(const std::string& ident, std::size_t* index) {
  if (ident.size() < 2 || ident[0] != 'x') return false;
  for (std::size_t i = 1; i < ident.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(ident[i]))) return false;
  }
  std::size_t n = 0;
  if (!ParseSizeT(std::string_view(ident).substr(1), &n) || n == 0) {
    return false;  // 0, or an index too large to represent: not a variable
  }
  *index = n - 1;
  return true;
}

// A parsed subformula with its tree height (edges on the longest
// root-to-leaf path), carried along so the height limit costs O(1) a node.
struct Parsed {
  FormulaPtr f;
  std::size_t height = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<FormulaPtr> Parse() {
    auto f = ParseIff();
    if (!f.ok()) return f.status();
    if (Cur().kind != TokKind::kEnd) {
      return Err("trailing input");
    }
    return std::move(f->f);
  }

  Result<Query> ParseQueryText() {
    std::vector<std::size_t> answer_vars;
    bool explicit_tuple = false;
    // Optional leading "(x1,...,xm)" answer tuple: lookahead for "(" "xN"
    // followed by "," or ") <more input>" where what follows isn't an
    // operator (to disambiguate from a parenthesized formula).
    if (Cur().kind == TokKind::kLParen) {
      std::size_t save = pos_;
      ++pos_;
      std::vector<std::size_t> vars;
      bool is_tuple = true;
      if (Cur().kind == TokKind::kRParen) {
        // "()" — empty answer tuple (Boolean query).
        ++pos_;
        is_tuple = Cur().kind != TokKind::kEnd;
        if (is_tuple) {
          explicit_tuple = true;
        } else {
          pos_ = save;
        }
      } else {
        for (;;) {
          std::size_t v;
          if (Cur().kind != TokKind::kIdent || !IsVarToken(Cur().text, &v)) {
            is_tuple = false;
            break;
          }
          vars.push_back(v);
          ++pos_;
          if (Cur().kind == TokKind::kComma) {
            ++pos_;
            continue;
          }
          break;
        }
        if (is_tuple && Cur().kind == TokKind::kRParen) {
          ++pos_;
          // A real tuple must be followed by more input that starts a
          // formula; "(x1)" alone or "(x1) & ..." is a formula.
          if (Cur().kind == TokKind::kEnd || Cur().kind == TokKind::kAmp ||
              Cur().kind == TokKind::kPipe || Cur().kind == TokKind::kArrow ||
              Cur().kind == TokKind::kDArrow ||
              Cur().kind == TokKind::kEquals) {
            is_tuple = false;
          }
        } else {
          is_tuple = false;
        }
        if (is_tuple) {
          explicit_tuple = true;
          answer_vars = std::move(vars);
        } else {
          pos_ = save;
        }
      }
    }
    auto f = ParseIff();
    if (!f.ok()) return f.status();
    if (Cur().kind != TokKind::kEnd) return Err("trailing input");
    Query q;
    q.formula = std::move(f->f);
    if (explicit_tuple) {
      q.answer_vars = std::move(answer_vars);
    } else {
      for (std::size_t v : FreeVars(q.formula)) q.answer_vars.push_back(v);
    }
    return q;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }

  Status Err(const std::string& what) const {
    return Status::ParseError(
        StrCat(what, " at offset ", Cur().pos, " (near '", Cur().text, "')"));
  }

  bool Accept(TokKind kind) {
    if (Cur().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(TokKind kind, const char* what) {
    if (!Accept(kind)) return Err(StrCat("expected ", what));
    return Status::OK();
  }

  Result<std::size_t> ExpectVar() {
    if (Cur().kind != TokKind::kIdent) return Err("expected variable");
    std::size_t v;
    if (!IsVarToken(Cur().text, &v)) {
      return Err(StrCat("expected variable (x1, x2, ...), got '", Cur().text,
                        "'"));
    }
    ++pos_;
    return v;
  }

  Result<std::vector<std::size_t>> ParseVarList() {
    std::vector<std::size_t> vars;
    BVQ_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    if (Accept(TokKind::kRParen)) return vars;
    for (;;) {
      auto v = ExpectVar();
      if (!v.ok()) return v.status();
      vars.push_back(*v);
      if (Accept(TokKind::kComma)) continue;
      BVQ_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return vars;
    }
  }

  // kMaxFormulaDepth bounds both the parser's own recursion and the height
  // of every node it builds, checked before the node exists: a deeper
  // formula is rejected without ever being built (or destroyed) whole.
  Status CheckDepth(std::size_t depth) const {
    if (depth <= kMaxFormulaDepth) return Status::OK();
    return Err(StrCat("formula depth ", depth, " exceeds the limit of ",
                      kMaxFormulaDepth));
  }

  // Holds one level of parser recursion: `!`, quantifier bodies, the right
  // side of `->`, parenthesized and bracketed bodies.
  struct Nest {
    explicit Nest(std::size_t& counter) : depth(counter) { ++depth; }
    ~Nest() { --depth; }
    std::size_t& depth;
  };

  Result<Parsed> Binary(FormulaKind kind, Parsed lhs, Parsed rhs) const {
    const std::size_t height = std::max(lhs.height, rhs.height) + 1;
    BVQ_RETURN_IF_ERROR(CheckDepth(height));
    return Parsed{std::make_shared<BinaryFormula>(kind, std::move(lhs.f),
                                                  std::move(rhs.f)),
                  height};
  }

  Result<Parsed> ParseIff() {
    auto out = ParseImp();
    while (out.ok() && Accept(TokKind::kDArrow)) {
      auto rhs = ParseImp();
      if (!rhs.ok()) return rhs;
      out = Binary(FormulaKind::kIff, std::move(*out), std::move(*rhs));
    }
    return out;
  }

  Result<Parsed> ParseImp() {
    auto lhs = ParseOr();
    if (!lhs.ok() || !Accept(TokKind::kArrow)) return lhs;
    Nest nest(depth_);
    BVQ_RETURN_IF_ERROR(CheckDepth(depth_));
    auto rhs = ParseImp();  // right associative
    if (!rhs.ok()) return rhs;
    return Binary(FormulaKind::kImplies, std::move(*lhs), std::move(*rhs));
  }

  Result<Parsed> ParseOr() {
    auto out = ParseAnd();
    while (out.ok() && Accept(TokKind::kPipe)) {
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      out = Binary(FormulaKind::kOr, std::move(*out), std::move(*rhs));
    }
    return out;
  }

  Result<Parsed> ParseAnd() {
    auto out = ParseUnary();
    while (out.ok() && Accept(TokKind::kAmp)) {
      auto rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      out = Binary(FormulaKind::kAnd, std::move(*out), std::move(*rhs));
    }
    return out;
  }

  Result<Parsed> ParseUnary() {
    if (Accept(TokKind::kBang)) {
      Nest nest(depth_);
      BVQ_RETURN_IF_ERROR(CheckDepth(depth_));
      auto sub = ParseUnary();
      if (!sub.ok()) return sub;
      const std::size_t height = sub->height + 1;
      BVQ_RETURN_IF_ERROR(CheckDepth(height));
      return Parsed{Not(std::move(sub->f)), height};
    }
    if (Cur().kind == TokKind::kIdent &&
        (Cur().text == "exists" || Cur().text == "forall")) {
      const bool is_exists = Cur().text == "exists";
      ++pos_;
      auto v = ExpectVar();
      if (!v.ok()) return v.status();
      BVQ_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
      Nest nest(depth_);
      BVQ_RETURN_IF_ERROR(CheckDepth(depth_));
      auto body = ParseIff();  // maximal scope
      if (!body.ok()) return body;
      const std::size_t height = body->height + 1;
      BVQ_RETURN_IF_ERROR(CheckDepth(height));
      return Parsed{is_exists ? Exists(*v, std::move(body->f))
                              : ForAll(*v, std::move(body->f)),
                    height};
    }
    if (Cur().kind == TokKind::kIdent && Cur().text == "exists2") {
      ++pos_;
      if (Cur().kind != TokKind::kIdent) return Err("expected relation name");
      const std::string name = Cur().text;
      ++pos_;
      BVQ_RETURN_IF_ERROR(Expect(TokKind::kSlash, "'/'"));
      if (Cur().kind != TokKind::kNumber) return Err("expected arity");
      std::size_t arity = 0;
      if (!ParseSizeT(Cur().text, &arity)) return Err("arity out of range");
      ++pos_;
      BVQ_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
      Nest nest(depth_);
      BVQ_RETURN_IF_ERROR(CheckDepth(depth_));
      auto body = ParseIff();
      if (!body.ok()) return body;
      const std::size_t height = body->height + 1;
      BVQ_RETURN_IF_ERROR(CheckDepth(height));
      return Parsed{SoExists(name, arity, std::move(body->f)), height};
    }
    return ParsePrimary();
  }

  Result<Parsed> ParsePrimary() {
    if (Accept(TokKind::kLParen)) {
      Nest nest(depth_);
      BVQ_RETURN_IF_ERROR(CheckDepth(depth_));
      auto f = ParseIff();
      if (!f.ok()) return f;
      BVQ_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return f;
    }
    if (Accept(TokKind::kLBracket)) {
      if (Cur().kind != TokKind::kIdent ||
          (Cur().text != "lfp" && Cur().text != "gfp" &&
           Cur().text != "pfp" && Cur().text != "ifp")) {
        return Err("expected lfp/gfp/pfp/ifp");
      }
      FixpointKind op = FixpointKind::kLeast;
      if (Cur().text == "gfp") op = FixpointKind::kGreatest;
      if (Cur().text == "pfp") op = FixpointKind::kPartial;
      if (Cur().text == "ifp") op = FixpointKind::kInflationary;
      ++pos_;
      if (Cur().kind != TokKind::kIdent) return Err("expected relation name");
      const std::string name = Cur().text;
      ++pos_;
      auto bound = ParseVarList();
      if (!bound.ok()) return bound.status();
      BVQ_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
      Nest nest(depth_);
      BVQ_RETURN_IF_ERROR(CheckDepth(depth_));
      auto body = ParseIff();
      if (!body.ok()) return body;
      BVQ_RETURN_IF_ERROR(Expect(TokKind::kRBracket, "']'"));
      auto args = ParseVarList();
      if (!args.ok()) return args.status();
      const std::size_t height = body->height + 1;
      BVQ_RETURN_IF_ERROR(CheckDepth(height));
      return Parsed{std::make_shared<FixpointFormula>(
                        op, name, std::move(*bound), std::move(body->f),
                        std::move(*args)),
                    height};
    }
    if (Cur().kind == TokKind::kIdent) {
      const std::string ident = Cur().text;
      if (ident == "true") {
        ++pos_;
        return Parsed{True()};
      }
      if (ident == "false") {
        ++pos_;
        return Parsed{False()};
      }
      std::size_t v;
      if (IsVarToken(ident, &v)) {
        ++pos_;
        BVQ_RETURN_IF_ERROR(Expect(TokKind::kEquals, "'=' after variable"));
        auto rhs = ExpectVar();
        if (!rhs.ok()) return rhs.status();
        return Parsed{Eq(v, *rhs)};
      }
      // Atom.
      ++pos_;
      if (Cur().kind == TokKind::kLParen) {
        auto args = ParseVarList();
        if (!args.ok()) return args.status();
        return Parsed{Atom(ident, std::move(*args))};
      }
      return Parsed{Atom(ident, {})};  // bare 0-ary atom
    }
    return Err("expected formula");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // current parser nesting (see Nest)
};

void Print(const FormulaPtr& f, std::string& out);

void PrintVarList(const std::vector<std::size_t>& vars, std::string& out) {
  out += "(";
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += ",";
    out += "x" + std::to_string(vars[i] + 1);
  }
  out += ")";
}

void Print(const FormulaPtr& f, std::string& out) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
      out += "true";
      return;
    case FormulaKind::kFalse:
      out += "false";
      return;
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      out += atom.pred();
      if (!atom.args().empty()) PrintVarList(atom.args(), out);
      return;
    }
    case FormulaKind::kEquals: {
      const auto& eq = static_cast<const EqualsFormula&>(*f);
      out += "x" + std::to_string(eq.lhs() + 1) + " = x" +
             std::to_string(eq.rhs() + 1);
      return;
    }
    case FormulaKind::kNot: {
      out += "!(";
      Print(static_cast<const NotFormula&>(*f).sub(), out);
      out += ")";
      return;
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      const char* op = "&";
      if (f->kind() == FormulaKind::kOr) op = "|";
      if (f->kind() == FormulaKind::kImplies) op = "->";
      if (f->kind() == FormulaKind::kIff) op = "<->";
      out += "(";
      Print(b.lhs(), out);
      out += " ";
      out += op;
      out += " ";
      Print(b.rhs(), out);
      out += ")";
      return;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      // The whole quantified formula is parenthesized: the parser gives
      // quantifiers maximal scope, so a bare "exists x1 . a | b" would
      // re-parse with b inside the body.
      const auto& q = static_cast<const QuantFormula&>(*f);
      out += "(";
      out += f->kind() == FormulaKind::kExists ? "exists x" : "forall x";
      out += std::to_string(q.var() + 1);
      out += " . ";
      Print(q.body(), out);
      out += ")";
      return;
    }
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      out += "[";
      switch (fp.op()) {
        case FixpointKind::kLeast:
          out += "lfp ";
          break;
        case FixpointKind::kGreatest:
          out += "gfp ";
          break;
        case FixpointKind::kPartial:
          out += "pfp ";
          break;
        case FixpointKind::kInflationary:
          out += "ifp ";
          break;
      }
      out += fp.rel_var();
      PrintVarList(fp.bound_vars(), out);
      out += " . ";
      Print(fp.body(), out);
      out += "]";
      PrintVarList(fp.apply_args(), out);
      return;
    }
    case FormulaKind::kSecondOrderExists: {
      const auto& so = static_cast<const SoExistsFormula&>(*f);
      out += "(exists2 " + so.rel_var() + "/" + std::to_string(so.arity()) +
             " . ";
      Print(so.body(), out);
      out += ")";
      return;
    }
  }
}

}  // namespace

Result<FormulaPtr> ParseFormula(const std::string& text) {
  Lexer lexer(text);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.Parse();
}

Result<Query> ParseQuery(const std::string& text) {
  Lexer lexer(text);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.ParseQueryText();
}

std::string FormulaToString(const FormulaPtr& formula) {
  std::string out;
  Print(formula, out);
  return out;
}

std::string QueryToString(const Query& query) {
  std::string out;
  PrintVarList(query.answer_vars, out);
  out += " ";
  Print(query.formula, out);
  return out;
}

}  // namespace bvq
