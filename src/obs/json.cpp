#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "util/assert.hpp"

namespace rabid::obs::json {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool Value::as_bool() const {
  RABID_ASSERT_MSG(type == Type::kBool, "JSON value is not a bool");
  return boolean;
}

double Value::as_number() const {
  RABID_ASSERT_MSG(type == Type::kNumber, "JSON value is not a number");
  return number;
}

std::int64_t Value::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_number()));
}

const std::string& Value::as_string() const {
  RABID_ASSERT_MSG(type == Type::kString, "JSON value is not a string");
  return string;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    Value root;
    if (!parse_value(root) || !at_end()) {
      if (error != nullptr) {
        *error = ok_ ? "trailing characters after document" : message_;
        *error += " (at byte " + std::to_string(pos_) + ")";
      }
      return std::nullopt;
    }
    return root;
  }

 private:
  bool fail(const char* message) {
    if (ok_) message_ = message;
    ok_ = false;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ == text_.size();
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': out.type = Value::Type::kString; return parse_string(out.string);
      case 't': out.type = Value::Type::kBool; out.boolean = true;
                return literal("true");
      case 'f': out.type = Value::Type::kBool; out.boolean = false;
                return literal("false");
      case 'n': out.type = Value::Type::kNull; return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.type = Value::Type::kObject;
    ++pos_;  // '{'
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        return fail("expected object key");
      }
      if (!consume(':')) return fail("expected ':' after key");
      Value value;
      if (!parse_value(value)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out) {
    out.type = Value::Type::kArray;
    ++pos_;  // '['
    if (consume(']')) return true;
    for (;;) {
      Value value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_hex4(unsigned& code) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f')
        code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F')
        code |= static_cast<unsigned>(h - 'A' + 10);
      else
        return fail("bad \\u escape digit");
    }
    return true;
  }

  /// Shortest-form UTF-8 for one scalar value (surrogates were already
  /// rejected or combined, so 0..0x10FFFF minus the surrogate gap).
  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
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
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("lone low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate is only meaningful as the first half of
            // a pair; combine it with the mandatory low half.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("high surrogate not followed by a \\u escape");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("high surrogate not followed by a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default: return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    out.type = Value::Type::kNumber;
    out.number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  const char* message_ = "";
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_escaped(std::ostream& out, std::string_view s) {
  std::string literal;
  append_escaped(literal, s);
  out << literal;
}

void append_number(std::ostream& out, double v) {
  if (std::isfinite(v)) {
    out << v;
  } else {
    out << '"' << (v > 0 ? "inf" : (v < 0 ? "-inf" : "nan")) << '"';
  }
}

void dump(const Value& value, std::string& out) {
  switch (value.type) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case Value::Type::kNumber: {
      // Integers (the common case: counters, ids) print exactly;
      // everything else gets enough digits to round-trip.
      const double v = value.number;
      char buf[32];
      if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
      } else if (std::isfinite(v)) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
      } else {
        // JSON has no inf/nan; mirror the RunReport writer's quoting.
        std::snprintf(buf, sizeof(buf), "\"%s\"",
                      v > 0 ? "inf" : (v < 0 ? "-inf" : "nan"));
      }
      out += buf;
      break;
    }
    case Value::Type::kString:
      append_escaped(out, value.string);
      break;
    case Value::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Value& item : value.items) {
        if (!first) out.push_back(',');
        first = false;
        dump(item, out);
      }
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, key);
        out.push_back(':');
        dump(member, out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string dump(const Value& value) {
  std::string out;
  dump(value, out);
  return out;
}

}  // namespace rabid::obs::json
