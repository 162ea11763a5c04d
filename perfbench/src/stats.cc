#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank percentile among n samples.
size_t RankIndex(size_t n, double pct) {
  // The epsilon keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
  const double rank = std::ceil(pct * static_cast<double>(n) / 100.0 - 1e-9);
  const size_t one_based = std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
  return one_based - 1;
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double pct) {
  return sorted[RankIndex(sorted.size(), pct)];
}

size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, pct);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (double pct : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, pct) >= min_beyond) return pct;
  }
  return 0.0;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.p50 = Percentile(samples, 50.0);
  s.p99 = Percentile(samples, 99.0);
  s.p99_supported = SamplesBeyond(s.count, 99.0) >= 10;
  s.max = samples.back();
  s.top_pct = HighestSupportedPercentile(s.count);
  s.top = s.top_pct > 0 ? Percentile(samples, s.top_pct) : s.max;
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.count);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace perfbench
