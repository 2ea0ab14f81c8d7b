#include "src/common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

namespace tcdm {

std::size_t StatsRegistry::find_slot(std::string_view name) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(name) & mask;
  // Linear probing; the index is at most half full, so an empty slot ends
  // every probe sequence.
  while (index_[i] != 0 && this->name(index_[i] - 1) != name) i = (i + 1) & mask;
  return i;
}

void StatsRegistry::grow_index() {
  std::vector<std::uint32_t> old = std::move(index_);
  index_.assign(old.empty() ? 64 : 2 * old.size(), 0);
  for (const std::uint32_t entry : old) {
    if (entry != 0) index_[find_slot(name(entry - 1))] = entry;
  }
}

Counter StatsRegistry::counter(std::string_view name) {
  if (2 * (size() + 1) > index_.size()) grow_index();
  const std::size_t slot = find_slot(name);
  if (index_[slot] == 0) {
    assert(names_.size() + name.size() <= std::numeric_limits<std::uint32_t>::max());
    values_.push_back(0.0);
    names_.append(name);
    name_begin_.push_back(static_cast<std::uint32_t>(names_.size()));
    index_[slot] = static_cast<std::uint32_t>(size());
  }
  return Counter(&values_[index_[slot] - 1]);
}

double StatsRegistry::value(std::string_view name) const {
  if (index_.empty()) return 0.0;
  const std::uint32_t entry = index_[find_slot(name)];
  return entry == 0 ? 0.0 : values_[entry - 1];
}

// Sums walk registration order. Every counter holds an integer below 2^53,
// so each partial sum is exact and the order of the additions cannot change
// the result (NaN and inf propagate the same way in any order).
template <typename Match>
double StatsRegistry::sum_if(Match match) const {
  double total = 0.0;
  auto v = values_.begin();
  for (std::uint32_t i = 0; i < size(); ++i, ++v) {
    if (match(name(i))) total += *v;
  }
  return total;
}

double StatsRegistry::sum_prefix(std::string_view prefix) const {
  return sum_if([prefix](std::string_view n) { return n.starts_with(prefix); });
}

double StatsRegistry::sum_suffix(std::string_view suffix) const {
  return sum_if([suffix](std::string_view n) { return n.ends_with(suffix); });
}

const std::vector<std::uint32_t>& StatsRegistry::sorted() const {
  // Names are only ever added, so a permutation of the right length is current.
  if (order_.size() != size()) {
    order_.resize(size());
    for (std::uint32_t i = 0; i < size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [this](std::uint32_t a, std::uint32_t b) { return name(a) < name(b); });
  }
  return order_;
}

std::vector<std::pair<std::string, double>> StatsRegistry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(size());
  for (const std::uint32_t i : sorted()) out.emplace_back(name(i), values_[i]);
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
    os << "  \"" << name(i) << "\": ";
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
