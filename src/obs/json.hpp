// Minimal deterministic JSON document model for the observability layer.
//
// Everything the obs subsystem exports — JSONL trace events, metrics
// snapshots, BENCH_*.json reports — flows through this one value type so the
// serialization rules live in a single place: object keys keep insertion
// order (no hashing, no locale), doubles render with round-trip precision,
// and the writer emits no whitespace, which makes seeded outputs
// byte-identical across runs. The parser accepts standard JSON (objects,
// arrays, strings with escapes, numbers, booleans, null) and exists so tests
// and the schema-check tool can round-trip what the writers emit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace synran::obs {

/// Deepest array/object nesting JsonValue::parse accepts: far above any
/// schema the project writes, far below what exhausts a thread's stack.
inline constexpr std::size_t kMaxJsonDepth = 512;

/// A JSON value. Integers are kept distinct from doubles so counters
/// serialize exactly (no 1e+06 for a message count).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered key/value list: deterministic output, duplicate keys
  /// rejected by set().
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(std::int64_t i) : value_(i) {}
  JsonValue(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}
  JsonValue(int i) : value_(static_cast<std::int64_t>(i)) {}
  JsonValue(unsigned u) : value_(static_cast<std::int64_t>(u)) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  static JsonValue object() { return JsonValue(Object{}); }
  static JsonValue array() { return JsonValue(Array{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  /// Any JSON number (integer-typed or not).
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(value_); }
  double as_double() const {
    return is_int() ? static_cast<double>(as_int()) : std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }

  /// Appends `key: value` to an object; throws unless this is an object and
  /// the key is new. Returns *this for chaining.
  JsonValue& set(std::string key, JsonValue value);
  /// Appends to an array; throws unless this is an array.
  JsonValue& push(JsonValue value);

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Compact serialization (no whitespace), deterministic key order.
  std::string dump() const;

  /// Parses one JSON document. Returns nullopt on any syntax error or
  /// trailing garbage; `error` (optional) receives a description ending in
  /// the byte offset. Arrays and objects nested deeper than kMaxJsonDepth
  /// are a syntax error, so no input can exhaust the stack.
  static std::optional<JsonValue> parse(std::string_view text,
                                        std::string* error = nullptr);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

/// Escapes a string for embedding in JSON output (quotes not included).
std::string json_escape(std::string_view s);

}  // namespace synran::obs
