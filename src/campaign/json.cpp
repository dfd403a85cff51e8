#include "campaign/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace rcast::campaign::json {

double Value::as_double() const {
  if (type_ == Type::kNull) return std::numeric_limits<double>::quiet_NaN();
  require(Type::kNumber);
  return num_;
}

std::uint64_t Value::as_u64() const {
  require(Type::kNumber);
  if (is_u64_) return u64_;
  if (num_ < 0) {
    throw std::runtime_error("json: negative number where u64 expected");
  }
  if (num_ >= 0x1p64) {
    throw std::runtime_error("json: number beyond the u64 range");
  }
  throw std::runtime_error("json: non-integer number where u64 expected");
}

const Value& Value::at(const std::string& key) const {
  require(Type::kObject);
  auto it = obj_->find(key);
  if (it == obj_->end()) {
    throw std::out_of_range("json: missing key '" + key + "'");
  }
  return it->second;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

void Value::require(Type t) const {
  if (type_ != t) {
    throw std::runtime_error("json: wrong value type requested");
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  // Containers may nest this deep; the parser recurses, so untrusted input
  // (the HTTP layer hands request bodies straight here) must not be able to
  // overflow the stack with "[[[[...".
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("json: " + what, pos_);
  }

  template <typename Fn>
  Value with_depth(Fn fn) {
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    Value v = fn();
    --depth_;
    return v;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return with_depth([&] { return parse_object(); });
      case '[': return with_depth([&] { return parse_array(); });
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') { ++pos_; return Value(std::move(obj)); }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == '}') { ++pos_; break; }
      fail("expected ',' or '}'");
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') { ++pos_; return Value(std::move(arr)); }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == ']') { ++pos_; break; }
      fail("expected ',' or ']'");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only escapes control characters, so a BMP encode
          // (no surrogate pairing) covers everything we produce.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok(text_.substr(start, pos_ - start));
    // Enforce the RFC 8259 grammar before strtod, which is laxer ("1.",
    // ".5", "0x10" would otherwise slip through).
    const auto grammar_ok = [&tok]() {
      const auto digit = [](char c) { return c >= '0' && c <= '9'; };
      std::size_t i = 0;
      if (i < tok.size() && tok[i] == '-') ++i;
      if (i >= tok.size() || !digit(tok[i])) return false;
      if (tok[i] == '0') {
        ++i;
      } else {
        while (i < tok.size() && digit(tok[i])) ++i;
      }
      if (i < tok.size() && tok[i] == '.') {
        ++i;
        if (i >= tok.size() || !digit(tok[i])) return false;
        while (i < tok.size() && digit(tok[i])) ++i;
      }
      if (i < tok.size() && (tok[i] == 'e' || tok[i] == 'E')) {
        ++i;
        if (i < tok.size() && (tok[i] == '+' || tok[i] == '-')) ++i;
        if (i >= tok.size() || !digit(tok[i])) return false;
        while (i < tok.size() && digit(tok[i])) ++i;
      }
      return i == tok.size();
    };
    if (!grammar_ok()) {
      pos_ = start;
      fail("malformed number");
    }
    // Keep integer tokens exact: a double holds only 53 bits, and seeds and
    // counters use the full 64.
    if (tok.find_first_not_of("0123456789") == std::string::npos) {
      std::uint64_t u = 0;
      const char* last = tok.data() + tok.size();
      const auto [p, ec] = std::from_chars(tok.data(), last, u);
      if (ec == std::errc() && p == last) return Value(u);
    }
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      fail("malformed number");
    }
    // JSON has no NaN/Inf; an overflowing literal like 1e999 must be an
    // error, not a silent infinity (the writer encodes non-finite as null).
    if (!std::isfinite(d)) {
      pos_ = start;
      fail("non-finite number");
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

Writer& Writer::begin_object() {
  comma();
  out_.push_back('{');
  need_comma_.push_back(false);
  return *this;
}

Writer& Writer::end_object() {
  out_.push_back('}');
  need_comma_.pop_back();
  return *this;
}

Writer& Writer::begin_array() {
  comma();
  out_.push_back('[');
  need_comma_.push_back(false);
  return *this;
}

Writer& Writer::end_array() {
  out_.push_back(']');
  need_comma_.pop_back();
  return *this;
}

Writer& Writer::key(std::string_view k) {
  comma();
  write_escaped(k);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  comma();
  write_escaped(s);
  return *this;
}

Writer& Writer::value(double d) {
  comma();
  if (!std::isfinite(d)) {
    out_ += "null";  // JSON has no NaN/Inf; readers map null back to NaN.
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out_ += buf;
  return *this;
}

Writer& Writer::value(std::uint64_t u) {
  comma();
  out_ += std::to_string(u);
  return *this;
}

Writer& Writer::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

Writer& Writer::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::null() {
  comma();
  out_ += "null";
  return *this;
}

void Writer::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_.push_back(',');
    need_comma_.back() = true;
  }
}

void Writer::write_escaped(std::string_view s) {
  out_.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

}  // namespace rcast::campaign::json
