// Minimal JSON reader shared by the report ingester
// (report::parse_json) and the serve protocol (src/serve/).
//
// This is deliberately a *reader*, not a DOM library: writers in this
// codebase emit JSON by hand (report/render.cpp, trace/writer.cpp,
// obs/export.cpp) so their byte layout stays pinned by golden tests.
// The reader's one unusual obligation is exact numeric round-tripping:
// report JSON serialises doubles with trace_double (%.17g) and metrics
// as int64 decimal text, and the merge path in src/serve/ must
// reproduce those bytes.  Values therefore keep the *raw* number token
// alongside the parsed double, so a consumer can re-emit an integer
// without going through double at all.
//
// Object keys preserve insertion order (report items are ordered) and
// duplicate keys are kept as-is; `get` returns the first match.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace rats::json {

enum class Type { Null, Bool, Number, String, Array, Object };

/// One parsed JSON value.  Strings are fully unescaped; numbers carry
/// both the strtod result and the raw token text.
struct Value {
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string raw;     ///< number token exactly as written
  std::string text;    ///< unescaped string payload
  std::vector<Value> items;                              ///< array elements
  std::vector<std::pair<std::string, Value>> members;    ///< object pairs

  bool is_null() const { return type == Type::Null; }
  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool is_string() const { return type == Type::String; }
  bool is_number() const { return type == Type::Number; }

  /// First member with this key, or nullptr.
  const Value* get(const std::string& key) const;

  // Checked accessors: throw rats::Error naming `what` when the member
  // is missing or has the wrong type.
  const Value& require(const std::string& key, const char* what) const;
  const std::string& require_string(const std::string& key,
                                    const char* what) const;
  double require_number(const std::string& key, const char* what) const;
  std::int64_t require_int(const std::string& key, const char* what) const;

  // Optional accessors with defaults.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  double get_number(const std::string& key, double fallback = 0.0) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback = 0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;
};

/// Parses a complete JSON document; trailing non-whitespace is an
/// error.  Throws rats::Error with a byte offset on malformed input
/// and on arrays or objects nested more than 256 levels deep.
Value parse(const std::string& text);

/// Escapes a string for embedding in a JSON document, matching the
/// writer convention used across the repo (trace/trace.cpp): `"`, `\`,
/// \n, \r, \t get two-character escapes, other control bytes \u00XX,
/// everything else (including non-ASCII) passes through verbatim.
std::string escape(const std::string& text);

}  // namespace rats::json
