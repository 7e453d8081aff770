// perfbench/src/common.cpp
#include <sys/resource.h>

#include <algorithm>
#include <iostream>

#include "bench.h"

namespace perfbench {

void checker::expect(bool ok, std::string_view name, const std::string& detail) {
  ++checks_;
  if (ok) return;
  failed_.emplace(name);
  // Bounded: a systematically wrong answer would otherwise flood stderr.
  if (reported_++ < 20) std::cerr << "perfbench: check " << name << " failed: " << detail << "\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const auto mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid), values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

double op_log::p50_ms() const { return median(seconds) * 1e3; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<metric> end_to_end_metrics(double setup_s, const op_log& ops) {
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", ops.ops_per_s(), "op/s"},
      {"op_p50_ms", ops.p50_ms(), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

}  // namespace perfbench
