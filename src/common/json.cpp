#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace rats::json {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value v = value();
    skip_ws();
    RATS_REQUIRE(pos_ == text_.size(),
                 "trailing bytes after JSON document at offset " +
                     std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                what);
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

  bool literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Value value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Each '{' or '[' recurses once; refusing deeper documents keeps
        // hostile input from overflowing the stack (report JSON nests 5
        // levels deep).
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        Value v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return string_value();
      case 't':
        if (!literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!literal("null")) fail("bad literal");
        return Value{};
      default: return number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.type = Type::Bool;
    v.boolean = b;
    return v;
  }

  Value object() {
    Value v;
    v.type = Type::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    Value v;
    v.type = Type::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value string_value() {
    Value v;
    v.type = Type::String;
    v.text = parse_string();
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out += unicode_escape(); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return cp;
  }

  // The writers in this repo only emit \uXXXX for control bytes, but
  // accept any scalar value: surrogate pairs combine into one 4-byte
  // UTF-8 sequence, and lone surrogates are rejected instead of
  // leaking invalid UTF-8 (encoded surrogate code points) through.
  std::string unicode_escape() {
    unsigned cp = hex4();
    if (cp >= 0xDC00 && cp <= 0xDFFF) fail("unpaired low surrogate");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail("high surrogate not followed by a \\u low surrogate");
      pos_ += 2;
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF)
        fail("high surrogate paired with a non-surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    std::string out;
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return out;
  }

  Value number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
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
    Value v;
    v.type = Type::Number;
    v.raw = text_.substr(start, pos_ - start);
    char* end = nullptr;
    v.number = std::strtod(v.raw.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number token '" + v.raw + "'");
    return v;
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Value* Value::get(const std::string& key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::require(const std::string& key, const char* what) const {
  const Value* v = get(key);
  RATS_REQUIRE(v != nullptr, std::string(what) + ": missing key '" + key + "'");
  return *v;
}

const std::string& Value::require_string(const std::string& key,
                                         const char* what) const {
  const Value& v = require(key, what);
  RATS_REQUIRE(v.is_string(),
               std::string(what) + ": key '" + key + "' must be a string");
  return v.text;
}

double Value::require_number(const std::string& key, const char* what) const {
  const Value& v = require(key, what);
  RATS_REQUIRE(v.is_number(),
               std::string(what) + ": key '" + key + "' must be a number");
  return v.number;
}

std::int64_t Value::require_int(const std::string& key,
                                const char* what) const {
  const Value& v = require(key, what);
  RATS_REQUIRE(v.is_number(),
               std::string(what) + ": key '" + key + "' must be a number");
  return std::strtoll(v.raw.c_str(), nullptr, 10);
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Value* v = get(key);
  return (v && v->is_string()) ? v->text : fallback;
}

double Value::get_number(const std::string& key, double fallback) const {
  const Value* v = get(key);
  return (v && v->is_number()) ? v->number : fallback;
}

std::int64_t Value::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const Value* v = get(key);
  return (v && v->is_number()) ? std::strtoll(v->raw.c_str(), nullptr, 10)
                               : fallback;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = get(key);
  return (v && v->type == Type::Bool) ? v->boolean : fallback;
}

Value parse(const std::string& text) { return Parser(text).run(); }

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace rats::json
