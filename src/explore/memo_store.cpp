#include "src/explore/memo_store.hpp"

#include <filesystem>
#include <utility>

#include "src/analytics/metrics_export.hpp"
#include "src/common/json.hpp"

namespace tcdm::explore {

namespace {

[[noreturn]] void corrupt(const std::string& path, std::size_t line,
                          const std::string& what) {
  throw ExploreFileError(path + ":" + std::to_string(line) + ": " + what);
}

Json header_json() {
  Json h;
  h.set("schema", kCacheSchemaName);
  h.set("schema_version", kCacheSchemaVersion);
  return h;
}

void check_header(const Json& h, const std::string& path) {
  if (!h.is_object() || h.get("schema", std::string()) != kCacheSchemaName) {
    corrupt(path, 1, "not a " + std::string(kCacheSchemaName) + " file");
  }
  if (h.get("schema_version", 0.0) != kCacheSchemaVersion) {
    corrupt(path, 1,
            "unsupported schema_version (expected " +
                std::to_string(kCacheSchemaVersion) + ")");
  }
  if (h.as_object().size() != 2) corrupt(path, 1, "unexpected keys in header");
}

/// One store line: the key and its result.
struct Entry {
  std::string key;
  CachedResult result;
};

template <MaybeConst<Entry> S, class V>
void fields(S& e, V& v) {
  v("key", e.key);
  v("rel", e.result.rel);
  v("error", e.result.error);
  v("metrics", e.result.metrics);
  v("power", e.result.power);
}

Entry entry_from_json(const Json& j, const std::string& path, std::size_t line) {
  Entry e;
  try {
    read_fields(j, path + ":" + std::to_string(line), ReadPolicy::kPersisted, e);
  } catch (const SchemaError& err) {
    throw ExploreFileError(err.what());
  }
  return e;
}

}  // namespace

MemoStore::MemoStore(const std::string& path) : path_(path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    throw std::runtime_error(path + ": is a directory");
  }
  if (std::filesystem::exists(path, ec)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error(path + ": cannot open cache file");
    std::string line;
    std::size_t line_no = 0;
    bool header_seen = false;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) continue;
      Json j;
      try {
        j = Json::parse(line);
      } catch (const JsonError& e) {
        // A torn final line is the expected artifact of a killed run: the
        // entry was lost, the store is otherwise intact. Anywhere else,
        // unparsable content means the file cannot be trusted.
        if (in.eof()) break;
        corrupt(path, line_no, e.what());
      }
      if (!header_seen) {
        check_header(j, path);
        header_seen = true;
        continue;
      }
      Entry e = entry_from_json(j, path, line_no);
      entries_[std::move(e.key)] = std::move(e.result);
    }
    if (in.bad()) throw std::runtime_error(path + ": read failed");
    if (!header_seen && line_no > 0) corrupt(path, 1, "missing header line");
    append_.open(path, std::ios::binary | std::ios::app);
    if (!append_) throw std::runtime_error(path + ": cannot open for appending");
    if (line_no == 0) {  // existed but empty: write the header now
      append_ << header_json().dump_compact() << '\n';
      append_.flush();
    }
  } else {
    append_.open(path, std::ios::binary | std::ios::app);
    if (!append_) throw std::runtime_error(path + ": cannot open for appending");
    append_ << header_json().dump_compact() << '\n';
    append_.flush();
  }
}

const CachedResult* MemoStore::lookup(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void MemoStore::insert(const std::string& key, CachedResult result) {
  Entry e{key, std::move(result)};
  if (append_.is_open()) {
    append_ << write_fields(e).dump_compact() << '\n';
    append_.flush();  // a killed run keeps every completed entry
    if (!append_) throw std::runtime_error(path_ + ": append failed");
  }
  entries_[key] = std::move(e.result);
}

}  // namespace tcdm::explore
