#pragma once

/// \file json.hpp
/// A minimal recursive-descent JSON parser — just enough to read back
/// what the observability layer writes (RunReport, audit reports,
/// chrome traces) for round-trip tests and tooling, with no external
/// dependency.
///
/// Supported: the full JSON grammar (objects, arrays, strings with the
/// common escapes, numbers, true/false/null).  \uXXXX escapes decode to
/// shortest-form UTF-8, including surrogate pairs; lone or mis-ordered
/// surrogate halves are rejected.  Parsing is strict: trailing garbage,
/// unterminated literals, and bad escapes all fail with a
/// position-stamped error message.

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rabid::obs::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> items;                            ///< kArray
  std::vector<std::pair<std::string, Value>> members;  ///< kObject

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// Typed accessors: assert on type mismatch (callers check first or
  /// accept the abort — these back tests and CLIs, not servers).
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
};

/// Parses a complete JSON document.  On failure returns nullopt and,
/// when `error` is non-null, stores a human-readable message with the
/// byte offset.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Appends a string literal (quotes + escapes) to `out`.  Control
/// characters become \uXXXX; the output re-parses to exactly `s`.
void append_escaped(std::string& out, std::string_view s);
/// The same literal, streamed.
void append_escaped(std::ostream& out, std::string_view s);
/// Streams a finite `v` as a number at the stream's precision, and a
/// non-finite one as the string "inf", "-inf" or "nan".
void append_number(std::ostream& out, double v);

/// Serializes `value` compactly (no whitespace, no newlines) — the
/// single-line form the serving protocol needs for NDJSON framing.
/// dump(parse(dump(v))) is a fixed point; numbers print with enough
/// digits to round-trip a double.
void dump(const Value& value, std::string& out);
std::string dump(const Value& value);

}  // namespace rabid::obs::json
