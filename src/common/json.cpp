#include "src/common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace tcdm {

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw JsonError(std::string("JSON value is not a ") + wanted);
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) kind_error("bool");
  return std::get<bool>(value_);
}

double Json::as_double() const {
  if (is_null()) return std::nan("");  // non-finite round-trips as null
  if (!is_number()) kind_error("number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) kind_error("string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) kind_error("array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) kind_error("object");
  return std::get<Object>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) kind_error("array");
  return std::get<Array>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) kind_error("object");
  return std::get<Object>(value_);
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) != 0;
}

const Json& Json::at(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing JSON field \"" + key + "\"");
  return it->second;
}

void Json::set(const std::string& key, Json v) {
  if (is_null()) value_ = Object{};
  as_object()[key] = std::move(v);
}

// ------------------------------------------------------------- serializer --

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf; reads back as NaN
    return;
  }
  // Integral values print without an exponent or trailing ".0" so counters
  // and cycle counts stay human-readable; everything else gets round-trip
  // (max_digits10) precision.
  if (std::fabs(d) < 1e15 && d == static_cast<double>(static_cast<long long>(d))) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {  // shortest round-trip
    std::snprintf(buf, sizeof buf, "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  out += buf;
}

// Indentation appends directly into the output buffer. The previous version
// built two fresh pad strings per node, i.e. O(nodes) heap allocations and
// O(nodes * depth) copied bytes on top of the document itself — measurable
// on multi-thousand-scenario emissions and asserted against by the
// allocation-growth test in tests/test_hot_path_alloc.cpp.
void append_pad(std::string& out, int depth) {
  out.append(2 * static_cast<std::size_t>(depth), ' ');
}

/// Appends `v` at nesting `depth`: with `indent`, one element per line
/// indented two spaces a level (dump); without, on one line with no
/// whitespace (dump_compact).
void dump_value(std::string& out, const Json& v, bool indent, int depth) {
  // Before each element and before a non-empty container's closer.
  const auto newline = [&](int d) {
    if (!indent) return;
    out += '\n';
    append_pad(out, d);
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    append_number(out, v.as_double());
  } else if (v.is_string()) {
    append_escaped(out, v.as_string());
  } else if (v.is_array()) {
    const Json::Array& arr = v.as_array();
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out += ',';
      newline(depth + 1);
      dump_value(out, arr[i], indent, depth + 1);
    }
    if (!arr.empty()) newline(depth);
    out += ']';
  } else {
    const Json::Object& obj = v.as_object();
    out += '{';
    std::size_t i = 0;
    for (const auto& [key, val] : obj) {
      if (i++ != 0) out += ',';
      newline(depth + 1);
      append_escaped(out, key);
      out += indent ? ": " : ":";
      dump_value(out, val, indent, depth + 1);
    }
    if (!obj.empty()) newline(depth);
    out += '}';
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  out.reserve(256);  // skip the first few doublings; growth stays amortized O(n)
  dump_value(out, *this, true, 0);
  out += '\n';
  return out;
}

std::string Json::dump_compact() const {
  std::string out;
  out.reserve(256);
  dump_value(out, *this, false, 0);
  return out;
}

// ----------------------------------------------------------------- parser --

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        Json v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      obj[std::move(key)] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto res = std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4,
                                           code, 16);
          if (res.ptr != text_.data() + pos_ + 4) fail("bad \\u escape");
          pos_ += 4;
          // ASCII-only documents in practice; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool saw_digit = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      saw_digit = saw_digit || std::isdigit(static_cast<unsigned char>(text_[pos_]));
      ++pos_;
    }
    if (!saw_digit) fail("expected a value");
    // std::from_chars for double is incomplete on some libstdc++ versions;
    // strtod via a bounded copy is portable and locale risk is acceptable
    // here (documents are machine-written with '.' decimals).
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace tcdm
