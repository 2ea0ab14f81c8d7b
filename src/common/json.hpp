// Minimal self-contained JSON value: parse, build, and serialize the small
// documents the repo exchanges on disk (metrics exports, recorded
// baselines). Objects keep their keys sorted so serialization is stable and
// diffs stay readable. Non-finite numbers — which JSON cannot represent —
// serialize as null and parse back as NaN, so a poisoned metric survives a
// round trip instead of producing an unparsable file.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tcdm {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The deepest nesting of arrays and objects Json::parse accepts: far
/// above any document the repo writes, far below where the recursive
/// parser would exhaust the stack.
inline constexpr std::size_t kMaxJsonDepth = 256;

class Json {
 public:
  using Object = std::map<std::string, Json>;
  using Array = std::vector<Json>;

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(unsigned u) : value_(static_cast<double>(u)) {}
  Json(long long ll) : value_(static_cast<double>(ll)) {}
  Json(unsigned long long ull) : value_(static_cast<double>(ull)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::monostate>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Checked accessors; throw JsonError on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  /// Object field access. `at` throws JsonError when absent. `set` turns a
  /// null value into an object on first use.
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;
  void set(const std::string& key, Json v);

  /// Serialize with 2-space indentation and a trailing newline at top level.
  [[nodiscard]] std::string dump() const;

  /// Serialize to a single line with no whitespace or trailing newline —
  /// the JSON-lines form (one value per line) used by append-only stores
  /// like the explore result cache. parse(dump_compact()) round-trips
  /// exactly like parse(dump()).
  [[nodiscard]] std::string dump_compact() const;

  /// Parse a complete JSON document; trailing garbage and nesting deeper
  /// than kMaxJsonDepth are errors.
  static Json parse(std::string_view text);

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object> value_;
};

}  // namespace tcdm
