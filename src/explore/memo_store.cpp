#include "src/explore/memo_store.hpp"

#include <filesystem>
#include <utility>

#include "src/analytics/metrics_export.hpp"
#include "src/common/json_fields.hpp"

namespace tcdm::explore {

namespace {

[[noreturn]] void corrupt(const std::string& path, std::size_t line,
                          const std::string& what) {
  throw ExploreFileError(path + ":" + std::to_string(line) + ": " + what);
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

}  // namespace

MemoStore::MemoStore(const std::string& path) : path_(path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    throw std::runtime_error(path + ": is a directory");
  }
  std::size_t line_no = 0;
  if (std::filesystem::exists(path, ec)) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error(path + ": cannot open cache file");
    std::string line;
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
      const std::string where = path + ":" + std::to_string(line_no);
      try {
        if (header_seen) {
          Entry e;
          read_fields(j, where, ReadPolicy::kPersisted, e);
          entries_[std::move(e.key)] = std::move(e.result);
        } else {
          FieldReader header(j, where, ReadPolicy::kPersisted);
          header.schema(kCacheSchemaName, kCacheSchemaVersion);
          header.finish();
          header_seen = true;
        }
      } catch (const SchemaError& err) {
        throw ExploreFileError(err.what());
      }
    }
    if (in.bad()) throw std::runtime_error(path + ": read failed");
    if (!header_seen && line_no > 0) corrupt(path, 1, "missing header line");
  }
  append_.open(path, std::ios::binary | std::ios::app);
  if (!append_) throw std::runtime_error(path + ": cannot open for appending");
  if (line_no == 0) {  // new or empty: write the header now
    FieldWriter header;
    header.schema(kCacheSchemaName, kCacheSchemaVersion);
    append_ << header.take().dump_compact() << '\n';
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
