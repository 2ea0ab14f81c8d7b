// One field list per serialized struct. Every struct that crosses the JSON
// boundary (cluster and system configs, runner options, kernel metrics,
// power breakdowns, explore memo entries) names each field exactly once:
//
//   template <MaybeConst<Foo> S, class V>
//   void fields(S& s, V& v) {
//     v("depth", s.depth);                          // always written
//     v.off_default("kind", s.kind, Kind::kPlain);  // written only off-default
//   }
//
// The list sits next to the code that serializes Foo, in Foo's namespace,
// so the lists of nested structs are found by argument-dependent lookup.
// write_fields runs it with a FieldWriter and read_fields with a
// FieldReader, so to_json and from_json cannot disagree on a name, and a
// new field is one line in its list.
//
// Field types: bool, std::string, double, unsigned, std::uint64_t (Cycle),
// enums (spelled by name through argument-dependent `enum_name(E)` and
// `enum_from_name(const std::string&, E&)`), std::vector of those, and
// structs with a list of their own.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
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

template <class S>
[[nodiscard]] Json write_fields(const S& s);

class FieldWriter {
 public:
  template <class T>
  void operator()(const char* name, const T& field) {
    out_.set(name, value(field));
  }
  /// Omitted at `dflt`, so adding such a field keeps older spellings (and
  /// the memo keys hashed from them) byte-identical.
  template <class T>
  void off_default(const char* name, const T& field, const std::type_identity_t<T>& dflt) {
    if (!(field == dflt)) (*this)(name, field);
  }
  [[nodiscard]] Json take() { return std::move(out_); }

 private:
  template <class T>
  static Json value(const T& field) {
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      return Json(static_cast<unsigned long long>(field));
    } else if constexpr (std::is_enum_v<T>) {
      return Json(enum_name(field));
    } else if constexpr (kIsVector<T>) {
      Json::Array out;
      for (const auto& e : field) out.push_back(value(e));
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

/// The two read policies. Both reject unknown keys, bound integers by the
/// C++ field type (`unsigned` up to 2^32-1, `std::uint64_t` up to 2^53, the
/// exact-integer range of a JSON number) and name the offending
/// `/`-joined path in the message.
enum class ReadPolicy {
  /// Configs and options written by hand: every field is optional over its
  /// current value (nested objects merge too), numbers must be finite, and
  /// errors throw std::invalid_argument.
  kUserInput,
  /// Results this program wrote: every field but the off-default ones is
  /// required, null reads back as NaN (a non-finite number was written as
  /// null), and errors throw SchemaError.
  kPersisted,
};

class FieldReader {
 public:
  /// Throws (by `policy`) when `j` is not an object.
  FieldReader(const Json& j, std::string path, ReadPolicy policy);
  FieldReader(const Json::Object& obj, std::string path, ReadPolicy policy)
      : obj_(obj), path_(std::move(path)), policy_(policy) {}

  template <class T>
  void operator()(const char* name, T& field) {
    read(name, field, policy_ == ReadPolicy::kPersisted);
  }
  template <class T>
  void off_default(const char* name, T& field, const std::type_identity_t<T>&) {
    read(name, field, false);
  }

  /// Accepts `name` as a key the caller reads itself (config sugar blocks).
  void skip(const char* name) {
    skipped_.emplace_back(name);
    if (obj_.find(name) != obj_.end()) ++used_;
  }

  /// Rejects the first key that neither `s`'s field list nor skip() named,
  /// listing the keys that are known.
  template <class S>
  void finish(S& s) const {
    if (used_ == obj_.size()) return;
    NameList list{skipped_};
    fields(s, list);
    for (const auto& [key, val] : obj_) {
      (void)val;
      if (std::find(list.names.begin(), list.names.end(), key) == list.names.end()) {
        std::string known;
        for (const std::string_view name : list.names) {
          known += known.empty() ? "" : ", ";
          known += name;
        }
        fail(path_ + "/" + key, "unknown key (known: " + known + ")");
      }
    }
  }

  [[noreturn]] void fail(const std::string& path, const std::string& what) const;

 private:
  struct NameList {
    std::vector<std::string_view> names;
    template <class T>
    void operator()(const char* name, T&) {
      names.emplace_back(name);
    }
    template <class T, class D>
    void off_default(const char* name, T&, const D&) {
      names.emplace_back(name);
    }
  };

  template <class T>
  void read(const char* name, T& field, bool required) {
    const auto it = obj_.find(name);
    if (it == obj_.end()) {
      if (required) fail(path_ + "/" + name, "required key missing");
      return;
    }
    ++used_;
    value(it->second, field, [&] { return path_ + "/" + name; });
  }

  /// `where()` builds the value's path; only errors and nested objects pay
  /// for it.
  template <class T, class Where>
  void value(const Json& v, T& out, const Where& where) const {
    if constexpr (std::is_same_v<T, bool>) {
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
    } else {
      FieldReader nested(v, where(), policy_);
      fields(out, nested);
      nested.finish(out);
    }
  }

  const Json::Object& obj_;
  std::string path_;
  ReadPolicy policy_;
  std::size_t used_ = 0;
  std::vector<std::string_view> skipped_;
};

/// Reads `j` (rooted at `path`) into `s` through its field list.
template <class S>
void read_fields(const Json& j, const std::string& path, ReadPolicy policy, S& s) {
  FieldReader r(j, path, policy);
  fields(s, r);
  r.finish(s);
}

}  // namespace tcdm
