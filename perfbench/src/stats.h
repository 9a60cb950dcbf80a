// Order statistics over small sample vectors.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) { return Percentile(values, 50.0); }

inline double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
