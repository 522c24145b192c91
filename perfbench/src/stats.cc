#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <string>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

CpuTicks ReadCpuTicks() {
  // cpu user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already counted in user.
  std::ifstream stat("/proc/stat");
  std::string label;
  double v[8] = {};
  CpuTicks t;
  if (!(stat >> label) || label != "cpu") return t;
  for (double& x : v) {
    if (!(stat >> x)) return CpuTicks{};
  }
  t.steal = v[7];
  t.total = std::accumulate(v, v + 8, 0.0);
  return t;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal) {
  if (values.empty()) return 0.0;
  const size_t keep = static_cast<size_t>(
      std::ceil(kCalmShare * static_cast<double>(values.size())));
  const double threshold = std::max(
      kCalmSteal, Percentile(steal, static_cast<double>(keep) /
                                        static_cast<double>(steal.size())));
  std::vector<double> calm;
  for (size_t k = 0; k < values.size(); ++k) {
    if (steal[k] <= threshold) calm.push_back(values[k]);
  }
  return Percentile(std::move(calm), 0.5);
}

double AtZeroSteal(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  if (values.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(steal.begin(), steal.end());
  if (*hi - *lo < kMinStealSpan) return CalmMedian(values, steal);
  const double n = static_cast<double>(values.size());
  const double mean_x = std::accumulate(steal.begin(), steal.end(), 0.0) / n;
  const double mean_y = std::accumulate(values.begin(), values.end(), 0.0) / n;
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    sxy += (steal[i] - mean_x) * (values[i] - mean_y);
    sxx += (steal[i] - mean_x) * (steal[i] - mean_x);
  }
  const double at = std::max(0.0, *lo - (*hi - *lo));
  return mean_y + sxy / sxx * (at - mean_x);
}

LatencySummary Summarize(const std::vector<double>& latency_ms) {
  LatencySummary s;
  s.samples = latency_ms.size();
  s.failed = static_cast<size_t>(
      std::count_if(latency_ms.begin(), latency_ms.end(),
                    [](double v) { return !std::isfinite(v); }));
  s.p50_ms = Percentile(latency_ms, 0.50);
  s.p99_ms = Percentile(latency_ms, 0.99);
  return s;
}

}  // namespace perfbench
