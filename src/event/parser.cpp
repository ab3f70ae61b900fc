#include "event/parser.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <vector>

namespace gryphon {

namespace {

enum class TokKind { kIdent, kNumber, kString, kOp, kAmp, kLBrace, kRBrace, kColon, kComma, kEnd };

struct Token {
  TokKind kind{TokKind::kEnd};
  std::string text;
  std::size_t pos{0};
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Token next() {
    skip_ws();
    Token tok;
    tok.pos = pos_;
    if (pos_ >= input_.size()) return tok;
    const char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      tok.kind = TokKind::kIdent;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) || input_[pos_] == '_' ||
              input_[pos_] == '.')) {
        tok.text += input_[pos_++];
      }
      return tok;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        ((c == '-' || c == '+') && pos_ + 1 < input_.size() &&
         std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
      tok.kind = TokKind::kNumber;
      tok.text += input_[pos_++];
      while (pos_ < input_.size() && (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
                                      input_[pos_] == '.' || input_[pos_] == 'e' ||
                                      input_[pos_] == 'E' ||
                                      ((input_[pos_] == '-' || input_[pos_] == '+') &&
                                       (input_[pos_ - 1] == 'e' || input_[pos_ - 1] == 'E')))) {
        tok.text += input_[pos_++];
      }
      return tok;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++pos_;
      tok.kind = TokKind::kString;
      while (pos_ < input_.size() && input_[pos_] != quote) {
        if (input_[pos_] == '\\' && pos_ + 1 < input_.size()) ++pos_;
        tok.text += input_[pos_++];
      }
      if (pos_ >= input_.size()) throw ParseError("unterminated string at position " +
                                                  std::to_string(tok.pos));
      ++pos_;  // closing quote
      return tok;
    }
    switch (c) {
      case '&':
        ++pos_;
        if (pos_ < input_.size() && input_[pos_] == '&') ++pos_;
        tok.kind = TokKind::kAmp;
        return tok;
      case '{': ++pos_; tok.kind = TokKind::kLBrace; return tok;
      case '}': ++pos_; tok.kind = TokKind::kRBrace; return tok;
      case ':': ++pos_; tok.kind = TokKind::kColon; return tok;
      case ',': ++pos_; tok.kind = TokKind::kComma; return tok;
      case '=': case '!': case '<': case '>': {
        tok.kind = TokKind::kOp;
        tok.text += input_[pos_++];
        if (pos_ < input_.size() && input_[pos_] == '=') tok.text += input_[pos_++];
        if (tok.text == "!") throw ParseError("stray '!' at position " + std::to_string(tok.pos));
        return tok;
      }
      case '(': case ')':
        // Outer parentheses are tolerated and skipped.
        ++pos_;
        return next();
      default:
        throw ParseError(std::string("unexpected character '") + c + "' at position " +
                         std::to_string(tok.pos));
    }
  }

 private:
  void skip_ws() {
    while (pos_ < input_.size() && std::isspace(static_cast<unsigned char>(input_[pos_]))) ++pos_;
  }

  std::string_view input_;
  std::size_t pos_{0};
};

Value parse_literal(const Token& tok, AttributeType expected) {
  if (tok.kind == TokKind::kString) {
    if (expected != AttributeType::kString) {
      throw std::invalid_argument("literal \"" + tok.text + "\" is a string but attribute is " +
                                  to_string(expected));
    }
    return Value(tok.text);
  }
  if (tok.kind == TokKind::kIdent && (tok.text == "true" || tok.text == "false")) {
    if (expected != AttributeType::kBool) {
      throw std::invalid_argument("boolean literal for non-bool attribute");
    }
    return Value(tok.text == "true");
  }
  if (tok.kind == TokKind::kNumber) {
    if (expected == AttributeType::kInt &&
        tok.text.find_first_of(".eE") == std::string::npos) {
      std::int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(tok.text.data(), tok.text.data() + tok.text.size(), v);
      if (ec != std::errc() || ptr != tok.text.data() + tok.text.size()) {
        throw ParseError("bad integer literal '" + tok.text + "'");
      }
      return Value(v);
    }
    if (expected == AttributeType::kDouble || expected == AttributeType::kInt) {
      const double v = std::stod(tok.text);
      if (expected == AttributeType::kInt) {
        const auto i = static_cast<std::int64_t>(v);
        if (static_cast<double>(i) != v) {
          throw std::invalid_argument("non-integer literal '" + tok.text +
                                      "' for int attribute");
        }
        return Value(i);
      }
      return Value(v);
    }
    throw std::invalid_argument("numeric literal for non-numeric attribute");
  }
  throw ParseError("expected a literal, got '" + tok.text + "'");
}

// Accumulates possibly-multiple comparisons on one attribute.
struct TestBuilder {
  bool used{false};
  std::optional<Value> eq;
  std::optional<Value> ne;
  std::optional<Value> lo;
  bool lo_inclusive{false};
  std::optional<Value> hi;
  bool hi_inclusive{false};

  void add(const std::string& op, Value v, const std::string& attr) {
    used = true;
    if (op == "=" || op == "==") {
      if (eq && *eq != v) throw std::invalid_argument("contradictory equality on '" + attr + "'");
      eq = std::move(v);
    } else if (op == "!=") {
      if (ne) throw std::invalid_argument("multiple != tests on '" + attr + "' not supported");
      ne = std::move(v);
    } else if (op == "<" || op == "<=") {
      const bool inc = op == "<=";
      if (!hi || v < *hi || (v == *hi && !inc)) {
        hi = std::move(v);
        hi_inclusive = inc;
      }
    } else if (op == ">" || op == ">=") {
      const bool inc = op == ">=";
      if (!lo || *lo < v || (v == *lo && !inc)) {
        lo = std::move(v);
        lo_inclusive = inc;
      }
    } else {
      throw ParseError("unknown operator '" + op + "'");
    }
  }

  AttributeTest build(const std::string& attr) const {
    if (!used) return AttributeTest::dont_care();
    if (eq) {
      if (ne || lo || hi) {
        // Equality composed with bounds: verify consistency, reduce to equality.
        const AttributeTest range = AttributeTest::range(lo, hi, lo_inclusive, hi_inclusive);
        if ((lo || hi) && !range.accepts(*eq)) {
          throw std::invalid_argument("contradictory tests on '" + attr + "'");
        }
        if (ne && *ne == *eq) {
          throw std::invalid_argument("contradictory tests on '" + attr + "'");
        }
      }
      return AttributeTest::equals(*eq);
    }
    if (ne) {
      if (lo || hi) {
        throw std::invalid_argument("mixing != with range bounds on '" + attr +
                                    "' is not supported");
      }
      return AttributeTest::not_equals(*ne);
    }
    if (lo && hi) {
      if (*hi < *lo || (*hi == *lo && !(lo_inclusive && hi_inclusive))) {
        throw std::invalid_argument("empty range on '" + attr + "'");
      }
    }
    return AttributeTest::range(lo, hi, lo_inclusive, hi_inclusive);
  }
};

}  // namespace

Subscription parse_subscription(const SchemaPtr& schema, std::string_view text) {
  if (!schema) throw std::invalid_argument("parse_subscription: null schema");
  Lexer lexer(text);
  std::vector<TestBuilder> builders(schema->attribute_count());

  // Match-everything special forms: empty text, "all", "*" (optionally in
  // parentheses — the rendering of Subscription::match_all().to_text()).
  {
    std::string trimmed;
    for (const char c : text) {
      if (!std::isspace(static_cast<unsigned char>(c)) && c != '(' && c != ')') trimmed += c;
    }
    if (trimmed.empty() || trimmed == "all" || trimmed == "*") {
      return Subscription::match_all(schema);
    }
  }

  Token tok = lexer.next();

  while (true) {
    if (tok.kind != TokKind::kIdent) {
      throw ParseError("expected attribute name at position " + std::to_string(tok.pos));
    }
    const auto index = schema->index_of(tok.text);
    if (!index) throw std::invalid_argument("unknown attribute '" + tok.text + "'");
    const std::string attr_name = tok.text;

    Token op = lexer.next();
    if (op.kind != TokKind::kOp) {
      throw ParseError("expected comparison operator after '" + attr_name + "'");
    }
    Token lit = lexer.next();
    Value v = parse_literal(lit, schema->attribute(*index).type);
    if (!schema->accepts(*index, v)) {
      throw std::invalid_argument("value " + v.to_text() + " outside the domain of '" +
                                  attr_name + "'");
    }
    builders[*index].add(op.text, std::move(v), attr_name);

    tok = lexer.next();
    if (tok.kind == TokKind::kEnd) break;
    if (tok.kind == TokKind::kAmp ||
        (tok.kind == TokKind::kIdent && (tok.text == "and" || tok.text == "AND"))) {
      tok = lexer.next();
      continue;
    }
    throw ParseError("expected '&' at position " + std::to_string(tok.pos));
  }

  std::vector<AttributeTest> tests;
  tests.reserve(builders.size());
  for (std::size_t i = 0; i < builders.size(); ++i) {
    tests.push_back(builders[i].build(schema->attribute(i).name));
  }
  return Subscription(schema, std::move(tests));
}

std::vector<Subscription> parse_disjunction(const SchemaPtr& schema, std::string_view text) {
  if (!schema) throw std::invalid_argument("parse_disjunction: null schema");
  // Split on top-level '|' / '||' / the word 'or' (quotes respected), then
  // parse each arm as an ordinary conjunction.
  std::vector<std::string> arms;
  std::string current;
  char quote = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quote != 0) {
      current += c;
      if (c == quote && text[i - 1] != '\\') quote = 0;
      continue;
    }
    if (c == '"' || c == '\'') {
      quote = c;
      current += c;
      continue;
    }
    if (c == '|') {
      arms.push_back(current);
      current.clear();
      if (i + 1 < text.size() && text[i + 1] == '|') ++i;
      continue;
    }
    // The word "or"/"OR" surrounded by whitespace.
    if ((c == 'o' || c == 'O') && i + 1 < text.size() && (text[i + 1] == 'r' || text[i + 1] == 'R') &&
        (i == 0 || std::isspace(static_cast<unsigned char>(text[i - 1]))) &&
        (i + 2 == text.size() || std::isspace(static_cast<unsigned char>(text[i + 2])))) {
      arms.push_back(current);
      current.clear();
      ++i;
      continue;
    }
    current += c;
  }
  arms.push_back(current);

  std::vector<Subscription> out;
  out.reserve(arms.size());
  for (const std::string& arm : arms) {
    const bool blank = arm.find_first_not_of(" \t\r\n()") == std::string::npos;
    if (blank && arms.size() > 1) {
      throw ParseError("empty arm in disjunction (stray '|'?)");
    }
    out.push_back(parse_subscription(schema, arm));
  }
  return out;
}

Event parse_event(const SchemaPtr& schema, std::string_view text) {
  if (!schema) throw std::invalid_argument("parse_event: null schema");
  Lexer lexer(text);
  Token tok = lexer.next();
  if (tok.kind != TokKind::kLBrace) throw ParseError("expected '{'");

  Event event(schema);
  std::vector<bool> seen(schema->attribute_count(), false);
  tok = lexer.next();
  while (tok.kind != TokKind::kRBrace) {
    if (tok.kind != TokKind::kIdent) throw ParseError("expected attribute name");
    const auto index = schema->index_of(tok.text);
    if (!index) throw std::invalid_argument("unknown attribute '" + tok.text + "'");
    if (seen[*index]) throw std::invalid_argument("duplicate attribute '" + tok.text + "'");
    seen[*index] = true;

    tok = lexer.next();
    if (tok.kind != TokKind::kColon) throw ParseError("expected ':'");
    tok = lexer.next();
    event.set(*index, parse_literal(tok, schema->attribute(*index).type));

    tok = lexer.next();
    if (tok.kind == TokKind::kComma) tok = lexer.next();
  }
  if (!event.complete()) throw std::invalid_argument("event literal missing attributes");
  return event;
}

}  // namespace gryphon
