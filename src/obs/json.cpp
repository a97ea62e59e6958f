#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace synran::obs {

namespace {

/// Renders a double exactly enough to round-trip (max_digits10), trimming to
/// the shortest representation that parses back to the same bits so output
/// stays stable and readable.
std::string render_double(double d) {
  SYNRAN_CHECK_MSG(std::isfinite(d), "JSON cannot represent NaN/Inf");
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == d) break;
  }
  std::string out(buf);
  // Bare "1e+06"-style output is valid JSON; "1." is not produced by %g.
  return out;
}

void dump_value(const JsonValue& v, std::string& out);

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

void dump_value(const JsonValue& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_double()) {
    out += render_double(v.as_double());
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const auto& e : v.as_array()) {
      if (!first) out += ',';
      first = false;
      dump_value(e, out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [k, e] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      dump_string(k, out);
      out += ':';
      dump_value(e, out);
    }
    out += '}';
  }
}

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    auto v = parse_value();
    if (v.has_value()) {
      skip_ws();
      if (pos_ != text_.size()) {
        v.reset();
        error_ = "trailing characters after document";
      }
    }
    if (!v.has_value() && error != nullptr) {
      *error = error_ + " at offset " + std::to_string(pos_);
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> fail(std::string what) {
    error_ = std::move(what);
    return std::nullopt;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each level is a few stack frames, so unbounded nesting would let a
      // small hostile document overflow the stack.
      if (depth_ == kMaxJsonDepth)
        return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                    " levels");
      ++depth_;
      auto v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s.has_value()) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (literal("true")) return JsonValue(true);
    if (literal("false")) return JsonValue(false);
    if (literal("null")) return JsonValue(nullptr);
    return parse_number();
  }

  std::optional<JsonValue> parse_object() {
    ++pos_;  // '{'
    JsonValue::Object obj;
    skip_ws();
    if (consume('}')) return JsonValue(std::move(obj));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      auto val = parse_value();
      if (!val.has_value()) return std::nullopt;
      obj.emplace_back(std::move(*key), std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return JsonValue(std::move(obj));
      return fail("expected ',' or '}' in object");
    }
  }

  std::optional<JsonValue> parse_array() {
    ++pos_;  // '['
    JsonValue::Array arr;
    skip_ws();
    if (consume(']')) return JsonValue(std::move(arr));
    while (true) {
      auto val = parse_value();
      if (!val.has_value()) return std::nullopt;
      arr.push_back(std::move(*val));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return JsonValue(std::move(arr));
      return fail("expected ',' or ']' in array");
    }
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) {
      error_ = "expected string";
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            error_ = "truncated \\u escape";
            return std::nullopt;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else {
              error_ = "bad \\u escape";
              return std::nullopt;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writers; pass them through as-is).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          error_ = "bad escape";
          return std::nullopt;
      }
    }
    error_ = "unterminated string";
    return std::nullopt;
  }

  std::optional<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return fail("expected a value");
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size())
        return JsonValue(i);
      // Fall through to double for out-of-range integers.
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size())
      return fail("malformed number");
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays and objects around pos_
  std::string error_;
};

}  // namespace

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  SYNRAN_CHECK_MSG(is_object(), "set() on a non-object JSON value");
  auto& obj = std::get<Object>(value_);
  for (const auto& [k, v] : obj)
    SYNRAN_CHECK_MSG(k != key, "duplicate JSON object key");
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::push(JsonValue value) {
  SYNRAN_CHECK_MSG(is_array(), "push() on a non-array JSON value");
  std::get<Array>(value_).push_back(std::move(value));
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error) {
  return Parser(text).run(error);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace synran::obs
