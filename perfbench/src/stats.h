#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `sorted`, which must
/// be ascending and non-empty: the smallest sample with at least pct% of
/// the samples at or below it.
double Percentile(const std::vector<double>& sorted, double pct);

/// Samples strictly beyond the nearest-rank percentile `pct` of `n`
/// samples.
size_t SamplesBeyond(size_t n, double pct);

/// The highest of the candidate percentiles (99.9, 99.5, 99, 98, 95, 90,
/// 75, 50) that leaves at least `min_beyond` samples beyond it, or 0 when
/// even the median does not.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// A timing reduced from raw per-operation samples (never from buckets).
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;  ///< nearest-rank; `p99_supported` says if n backs it
  bool p99_supported = false;
  double top_pct = 0.0;  ///< HighestSupportedPercentile(count)
  double top = 0.0;      ///< value at top_pct
  double mean = 0.0;
  double max = 0.0;
};

/// Summarizes `samples` (any order; copied and sorted). All fields stay 0
/// for an empty input.
Summary Summarize(std::vector<double> samples);

/// Median of `values` (any order); 0 for an empty input.
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
