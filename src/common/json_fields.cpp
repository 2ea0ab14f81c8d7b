#include "src/common/json_fields.hpp"

#include <algorithm>

namespace tcdm {

namespace {

const Json::Object& object_or_empty(const Json& j) {
  static const Json::Object kEmpty;
  return j.is_object() ? j.as_object() : kEmpty;
}

}  // namespace

FieldReader::FieldReader(const Json& j, std::string path, ReadPolicy policy)
    : FieldReader(object_or_empty(j), std::move(path), policy) {
  if (!j.is_object()) {
    fail(path_, path_.empty() ? "expected a JSON object at top level" : "expected an object");
  }
}

void FieldReader::schema(const char* name, unsigned version) {
  std::string found;
  (*this)("schema", found, kRequired);
  if (found != name) {
    fail(child("schema"), "expected \"" + std::string(name) + "\", not \"" + found + "\"");
  }
  unsigned found_version = 0;
  (*this)("schema_version", found_version, kRequired);
  if (found_version != version) {
    fail(child("schema_version"), "unsupported version " + std::to_string(found_version) +
                                      " (expected " + std::to_string(version) + ")");
  }
}

void FieldReader::finish() const {
  if (used_ == obj_.size()) return;
  for (const auto& [key, val] : obj_) {
    (void)val;
    if (std::find(names_.begin(), names_.end(), key) == names_.end()) {
      std::string known;
      for (const std::string_view name : names_) {
        known += known.empty() ? "" : ", ";
        known += name;
      }
      fail(child(key), "unknown key (known: " + known + ")");
    }
  }
}

void FieldReader::fail(const std::string& path, const std::string& what) const {
  const std::string msg = path.empty() ? what : path + ": " + what;
  if (policy_ == ReadPolicy::kPersisted) throw SchemaError(msg);
  throw std::invalid_argument(msg);
}

}  // namespace tcdm
