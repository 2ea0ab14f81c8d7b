// One field list per serialized struct. Every struct that crosses the JSON
// boundary (cluster and system configs, runner options, kernel metrics,
// power breakdowns, explore memo entries) names each field exactly once:
//
//   template <MaybeConst<Foo> S, class V>
//   void fields(S& s, V& v) {
//     v("depth", s.depth);
//     v("kind", s.kind);
//   }
//
// The list sits next to the code that serializes Foo, in Foo's namespace,
// so the lists of nested structs are found by argument-dependent lookup.
// write_fields runs it with a FieldWriter and read_fields with a
// FieldReader, so to_json and from_json cannot disagree on a name, and a
// new field is one line in its list. A third argument `kRequired` makes a
// hand-written document spell the key too.
//
// Field types: bool, std::string, double, unsigned, std::uint64_t (Cycle),
// enums (spelled by name through argument-dependent `enum_name(E)` and
// `enum_from_name(const std::string&, E&)`), `const Json*` (the raw value,
// borrowed from the document being read and null when absent, for a value
// parsed later such as a template holding placeholders), std::vector of
// those, std::map from std::string to those (a JSON object of named
// entries), std::optional of those (absent when unset), and structs with a
// list of their own.
//
// A document (suite file, metrics document, memo store header) starts
// with the keys `schema` and `schema_version`: FieldWriter::schema writes
// them and FieldReader::schema checks them.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/json.hpp"

namespace tcdm {

/// A persisted result that does not match its field list.
class SchemaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `S` is `T` or `const T`: one list serves the writer and the reader.
template <class S, class T>
concept MaybeConst = std::same_as<std::remove_const_t<S>, T>;

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class T>
inline constexpr bool kIsMap<std::map<std::string, T>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// The third argument of a field that hand-written input must spell too
/// (persisted results require every field anyway).
struct Required {};
inline constexpr Required kRequired{};

template <class S>
[[nodiscard]] Json write_fields(const S& s);

class FieldWriter {
 public:
  template <class T>
  void operator()(const char* name, const T& field, Required = {}) {
    if constexpr (kIsOptional<T> || std::is_pointer_v<T>) {
      if (field) out_.set(name, value(*field));
    } else {
      out_.set(name, value(field));
    }
  }
  /// Writes the document header.
  void schema(const char* name, unsigned version) {
    (*this)("schema", std::string(name));
    (*this)("schema_version", version);
  }
  [[nodiscard]] Json take() { return std::move(out_); }

 private:
  template <class T>
  static Json value(const T& field) {
    if constexpr (std::is_same_v<T, Json>) {
      return field;
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      return Json(static_cast<unsigned long long>(field));
    } else if constexpr (std::is_enum_v<T>) {
      return Json(enum_name(field));
    } else if constexpr (kIsVector<T>) {
      Json::Array out;
      for (const auto& e : field) out.push_back(value(e));
      return Json(std::move(out));
    } else if constexpr (kIsMap<T>) {
      Json::Object out;
      for (const auto& [key, e] : field) out.emplace(key, value(e));
      return Json(std::move(out));
    } else if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string>) {
      return write_fields(field);
    } else {
      return Json(field);  // bool, double, unsigned, std::string
    }
  }

  Json out_{Json::Object{}};
};

template <class S>
Json write_fields(const S& s) {
  FieldWriter w;
  fields(s, w);
  return w.take();
}

/// write_fields after the document header.
template <class S>
[[nodiscard]] Json write_document(const char* schema, unsigned version, const S& s) {
  FieldWriter w;
  w.schema(schema, version);
  fields(s, w);
  return w.take();
}

/// The two read policies. Both reject unknown keys, bound integers by the
/// C++ field type (`unsigned` up to 2^32-1, `std::uint64_t` up to 2^53, the
/// exact-integer range of a JSON number) and name the offending
/// `/`-joined path in the message.
enum class ReadPolicy {
  /// Configs, options and suite files written by hand: every field not
  /// marked kRequired is optional over its current value (nested objects
  /// merge too; arrays and maps replace), numbers must be finite, and
  /// errors throw std::invalid_argument.
  kUserInput,
  /// Results this program wrote: every field is required, null reads back
  /// as NaN (a non-finite number was written as null), and errors throw
  /// SchemaError.
  kPersisted,
};

class FieldReader {
 public:
  /// Throws (by `policy`) when `j` is not an object. An empty `path`
  /// reads a document root: its keys are named without a leading `/`.
  FieldReader(const Json& j, std::string path, ReadPolicy policy);
  FieldReader(const Json::Object& obj, std::string path, ReadPolicy policy)
      : obj_(obj), path_(std::move(path)), policy_(policy) {}

  template <class T>
  void operator()(const char* name, T& field) {
    read(name, field, policy_ == ReadPolicy::kPersisted);
  }
  template <class T>
  void operator()(const char* name, T& field, Required) {
    read(name, field, true);
  }

  /// Reads the document header, required under either policy: `schema`
  /// must spell `name` and `schema_version` must equal `version`.
  void schema(const char* name, unsigned version);

  /// Rejects the first key that no read named, listing the keys that were.
  void finish() const;

  [[noreturn]] void fail(const std::string& path, const std::string& what) const;

 private:
  template <class T>
  void read(const char* name, T& field, bool required) {
    names_.emplace_back(name);
    const auto it = obj_.find(name);
    if (it == obj_.end()) {
      if (required) fail(child(name), "required key missing");
      return;
    }
    ++used_;
    value(it->second, field, [&] { return child(name); });
  }

  [[nodiscard]] std::string child(std::string_view name) const {
    std::string out = path_;
    if (!out.empty()) out += '/';
    out += name;
    return out;
  }

  /// `where()` builds the value's path; only errors and nested objects pay
  /// for it.
  template <class T, class Where>
  void value(const Json& v, T& out, const Where& where) const {
    if constexpr (std::is_same_v<T, const Json*>) {
      out = &v;
    } else if constexpr (kIsOptional<T>) {
      value(v, out.emplace(), where);
    } else if constexpr (std::is_same_v<T, bool>) {
      if (!v.is_bool()) fail(where(), "expected true or false");
      out = v.as_bool();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!v.is_string()) fail(where(), "expected a string");
      out = v.as_string();
    } else if constexpr (std::is_same_v<T, double>) {
      if (policy_ == ReadPolicy::kPersisted && v.is_null()) {
        out = std::numeric_limits<double>::quiet_NaN();
      } else if (!v.is_number()) {
        fail(where(), "expected a number");
      } else if (policy_ == ReadPolicy::kUserInput && !std::isfinite(v.as_double())) {
        fail(where(), "expected a finite number");
      } else {
        out = v.as_double();
      }
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(std::is_unsigned_v<T>, "integer fields are unsigned");
      constexpr double kMax = std::min(
          static_cast<double>(std::numeric_limits<T>::max()), 9007199254740992.0);
      const double d = v.is_number() ? v.as_double() : -1.0;
      if (!(d >= 0.0 && d == std::floor(d) && d <= kMax)) {
        fail(where(), "expected a non-negative integer up to " +
                          std::to_string(static_cast<std::uint64_t>(kMax)));
      }
      out = static_cast<T>(d);
    } else if constexpr (std::is_enum_v<T>) {
      if (!v.is_string()) fail(where(), "expected a string");
      try {
        enum_from_name(v.as_string(), out);
      } catch (const std::invalid_argument& e) {
        fail(where(), e.what());
      }
    } else if constexpr (kIsVector<T>) {
      if (!v.is_array()) fail(where(), "expected an array");
      const Json::Array& items = v.as_array();
      out.assign(items.size(), typename T::value_type{});
      for (std::size_t i = 0; i < items.size(); ++i) {
        value(items[i], out[i], [&] { return where() + "[" + std::to_string(i) + "]"; });
      }
    } else if constexpr (kIsMap<T>) {
      if (!v.is_object()) fail(where(), "expected an object");
      out.clear();
      for (const auto& [key, item] : v.as_object()) {
        value(item, out[key], [&] { return where() + "/" + key; });
      }
    } else {
      FieldReader nested(v, where(), policy_);
      fields(out, nested);
      nested.finish();
    }
  }

  const Json::Object& obj_;
  std::string path_;
  ReadPolicy policy_;
  std::size_t used_ = 0;
  std::vector<std::string_view> names_;  // every key read
};

/// Reads `j` (rooted at `path`) into `s` through its field list.
template <class S>
void read_fields(const Json& j, const std::string& path, ReadPolicy policy, S& s) {
  FieldReader r(j, path, policy);
  fields(s, r);
  r.finish();
}

/// read_fields after checking the document header.
template <class S>
void read_document(const Json& j, const std::string& path, ReadPolicy policy,
                   const char* schema, unsigned version, S& s) {
  FieldReader r(j, path, policy);
  r.schema(schema, version);
  fields(s, r);
  r.finish();
}

}  // namespace tcdm
