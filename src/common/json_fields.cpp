#include "src/common/json_fields.hpp"

namespace tcdm {

namespace {

const Json::Object& object_or_empty(const Json& j) {
  static const Json::Object kEmpty;
  return j.is_object() ? j.as_object() : kEmpty;
}

}  // namespace

FieldReader::FieldReader(const Json& j, std::string path, ReadPolicy policy)
    : FieldReader(object_or_empty(j), std::move(path), policy) {
  if (!j.is_object()) fail(path_, "expected an object");
}

void FieldReader::fail(const std::string& path, const std::string& what) const {
  if (policy_ == ReadPolicy::kPersisted) throw SchemaError(path + ": " + what);
  throw std::invalid_argument(path + ": " + what);
}

}  // namespace tcdm
