#include "src/common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tcdm {

namespace {
/// a.ends_with(b), trying b's first character before the rest: a suffix
/// starts with a dot, so most mismatches show at that character.
bool ends_with(std::string_view a, std::string_view b) noexcept {
  return b.size() <= a.size() &&
         (b.empty() || (a[a.size() - b.size()] == b.front() && a.ends_with(b)));
}
}  // namespace

std::size_t StatsRegistry::home(std::string_view prefix) const noexcept {
  return std::hash<std::string_view>{}(prefix) & (index_.size() - 1);
}

std::size_t StatsRegistry::probe(std::string_view prefix, std::size_t i) const noexcept {
  const std::size_t mask = index_.size() - 1;
  // Linear probing; the index is at most half full, so an empty slot ends
  // every probe sequence.
  while (index_[i] != 0 && this->prefix(blocks_[index_[i] - 1]) != prefix) i = (i + 1) & mask;
  return i;
}

void StatsRegistry::insert(std::uint32_t pos) {
  std::size_t i = home(prefix(blocks_[pos]));
  while (index_[i] != 0) i = (i + 1) & (index_.size() - 1);
  index_[i] = pos + 1;
}

void StatsRegistry::grow_index() {
  index_.assign(index_.empty() ? 64 : 2 * index_.size(), 0);
  for (std::uint32_t pos = 0; pos < blocks_.size(); ++pos) insert(pos);
}

std::int64_t StatsRegistry::find(std::string_view prefix, std::string_view suffix,
                                 std::size_t start) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = probe(prefix, start); index_[i] != 0;
       i = probe(prefix, (i + 1) & mask)) {
    const Block& b = blocks_[index_[i] - 1];
    for (std::size_t j = 0; j < b.suffixes.size(); ++j) {
      if (b.suffixes[j] == suffix) return b.first + static_cast<std::int64_t>(j);
    }
  }
  return -1;
}

std::int64_t StatsRegistry::find(std::string_view name) const noexcept {
  // Every suffix is a dot and one dot-free segment, so the last dot of a
  // full name ends its block's prefix.
  const std::size_t dot = name.rfind('.');
  if (index_.empty() || dot == std::string_view::npos) return -1;
  const std::string_view prefix = name.substr(0, dot);
  return find(prefix, name.substr(dot), home(prefix));
}

std::uint32_t StatsRegistry::add_block(std::string_view prefix,
                                       std::span<const std::string_view> suffixes) {
  for (const std::string_view s : suffixes) {
    (void)s;
    assert(s.size() > 1 && s[0] == '.' && s.find('.', 1) == std::string_view::npos);
    assert(std::count(suffixes.begin(), suffixes.end(), s) == 1);
  }
  if (!index_.empty()) {
    const std::size_t start = home(prefix);
    for (const std::string_view s : suffixes) {
      if (find(prefix, s, start) >= 0) {
        std::string full(prefix);
        full += s;
        throw std::logic_error("stats: counter '" + full + "' is already registered");
      }
    }
  }
  assert(names_.size() + prefix.size() <= std::numeric_limits<std::uint32_t>::max());
  assert(size() + suffixes.size() <= std::numeric_limits<std::uint32_t>::max());
  if (2 * (blocks_.size() + 1) > index_.size()) grow_index();
  const auto first = static_cast<std::uint32_t>(size());
  blocks_.push_back(Block{suffixes, first, static_cast<std::uint32_t>(names_.size()),
                          static_cast<std::uint32_t>(prefix.size())});
  names_.append(prefix);
  values_.resize(size() + suffixes.size(), 0.0);
  insert(static_cast<std::uint32_t>(blocks_.size() - 1));
  return first;
}

Counter StatsRegistry::counter(std::string_view name) {
  const std::int64_t pos = find(name);
  if (pos < 0) {
    throw std::logic_error("stats: no counter '" + std::string(name) + "' is registered");
  }
  return Counter(&values_[static_cast<std::size_t>(pos)]);
}

double StatsRegistry::value(std::string_view name) const {
  const std::int64_t pos = find(name);
  return pos < 0 ? 0.0 : values_[static_cast<std::size_t>(pos)];
}

StatsRegistry::Name StatsRegistry::name(std::uint32_t pos) const {
  const auto b = std::prev(std::upper_bound(
      blocks_.begin(), blocks_.end(), pos,
      [](std::uint32_t p, const Block& blk) { return p < blk.first; }));
  return Name{prefix(*b), b->suffixes[pos - b->first]};
}

// The sum walks registration order. Every counter holds an integer below
// 2^53, so each partial sum is exact and the order of the additions cannot
// change the result (NaN and inf propagate the same way in any order).
double StatsRegistry::sum_suffix(std::string_view affix) const {
  double total = 0.0;
  auto v = values_.begin();
  for (const Block& b : blocks_) {
    const std::string_view p = prefix(b);
    for (const std::string_view s : b.suffixes) {
      // An affix longer than the suffix spills into the prefix.
      const bool match =
          affix.size() <= s.size()
              ? ends_with(s, affix)
              : ends_with(affix, s) && ends_with(p, affix.substr(0, affix.size() - s.size()));
      if (match) total += *v;
      ++v;
    }
  }
  return total;
}

const std::vector<std::uint32_t>& StatsRegistry::sorted() const {
  // Names are only ever added, so a permutation of the right length is current.
  if (order_.size() != size()) {
    std::vector<std::pair<std::string, std::uint32_t>> named;
    named.reserve(size());
    for (const Block& b : blocks_) {
      for (std::uint32_t j = 0; j < b.suffixes.size(); ++j) {
        std::string full(prefix(b));
        full += b.suffixes[j];
        named.emplace_back(std::move(full), b.first + j);
      }
    }
    std::sort(named.begin(), named.end());
    order_.resize(size());
    for (std::size_t i = 0; i < named.size(); ++i) order_[i] = named[i].second;
  }
  return order_;
}

std::vector<std::pair<std::string, double>> StatsRegistry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(size());
  for (const std::uint32_t i : sorted()) {
    const Name n = name(i);
    std::string full(n.head);
    full += n.tail;
    out.emplace_back(std::move(full), values_[i]);
  }
  return out;
}

void StatsRegistry::values(std::vector<double>& out) const {
  out.clear();
  out.reserve(size());
  for (const std::uint32_t i : sorted()) out.push_back(values_[i]);
}

std::vector<const double*> StatsRegistry::slots() const {
  std::vector<const double*> out;
  out.reserve(size());
  for (const std::uint32_t i : sorted()) out.push_back(&values_[i]);
  return out;
}

std::string StatsRegistry::to_json() const {
  std::ostringstream os;
  os.precision(17);  // round-trip exact for doubles
  os << "{\n";
  bool first = true;
  // Counter names are internal identifiers (no quotes/backslashes), so
  // plain quoting suffices; the sorted permutation keeps the output in name
  // order. JSON cannot represent non-finite numbers (ostream would print
  // bare `nan`/`inf` and corrupt the document), so those serialize as null
  // — matching tcdm::Json's convention for a poisoned metric.
  for (const std::uint32_t i : sorted()) {
    if (!first) os << ",\n";
    first = false;
    const Name n = name(i);
    os << "  \"" << n.head << n.tail << "\": ";
    if (std::isfinite(values_[i])) {
      os << values_[i];
    } else {
      os << "null";
    }
  }
  os << "\n}\n";
  return os.str();
}

void StatsRegistry::reset() { std::fill(values_.begin(), values_.end(), 0.0); }

}  // namespace tcdm
