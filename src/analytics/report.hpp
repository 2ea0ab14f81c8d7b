// Console table formatting for the suite printers: fixed-width columns,
// printf-free value formatting (numbers, percentages, ratios).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace tcdm {

class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Insert a horizontal separator before the next row.
  void add_separator();
  void print(std::ostream& os) const;
  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // empty row == separator
};

/// Fixed-precision float, e.g. fmt(3.14159, 2) == "3.14".
[[nodiscard]] std::string fmt(double v, int precision = 2);
/// Percentage, e.g. pct(0.375) == "37.50%".
[[nodiscard]] std::string pct(double ratio, int precision = 2);
/// Signed improvement, e.g. delta(0.9438) == "+94.38%".
[[nodiscard]] std::string delta(double ratio, int precision = 2);

}  // namespace tcdm
