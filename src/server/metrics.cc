#include "server/metrics.h"

#include <bit>
#include <cmath>

namespace parj::server {

namespace {

size_t BucketFor(uint64_t micros) {
  if (micros == 0) return 0;
  const size_t width = static_cast<size_t>(std::bit_width(micros));
  return width < LatencyHistogram::kBucketCount
             ? width
             : LatencyHistogram::kBucketCount - 1;
}

}  // namespace

void LatencyHistogram::Record(double millis) {
  if (millis < 0 || !std::isfinite(millis)) millis = 0;
  const uint64_t micros = static_cast<uint64_t>(millis * 1e3);
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t prev = max_micros_.load(std::memory_order_relaxed);
  while (micros > prev && !max_micros_.compare_exchange_weak(
                              prev, micros, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::BucketUpperMillis(size_t bucket) {
  return static_cast<double>(uint64_t{1} << bucket) / 1e3;
}

double LatencyHistogram::PercentileMillis(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target && cumulative > 0) return BucketUpperMillis(i);
  }
  return BucketUpperMillis(kBucketCount - 1);
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
  max_micros_.store(0, std::memory_order_relaxed);
}

void MetricsRegistry::Reset() {
  queries_submitted.store(0, std::memory_order_relaxed);
  queries_admitted.store(0, std::memory_order_relaxed);
  admission_rejected.store(0, std::memory_order_relaxed);
  queries_completed.store(0, std::memory_order_relaxed);
  queries_failed.store(0, std::memory_order_relaxed);
  queries_cancelled.store(0, std::memory_order_relaxed);
  deadlines_expired.store(0, std::memory_order_relaxed);
  rows_returned.store(0, std::memory_order_relaxed);
  rows_skipped_by_limit.store(0, std::memory_order_relaxed);
  retries.store(0, std::memory_order_relaxed);
  watchdog_kills.store(0, std::memory_order_relaxed);
  degraded_activations.store(0, std::memory_order_relaxed);
  degraded_rejected.store(0, std::memory_order_relaxed);
  worker_faults.store(0, std::memory_order_relaxed);
  shared_scan_groups.store(0, std::memory_order_relaxed);
  shared_scan_queries_coalesced.store(0, std::memory_order_relaxed);
  shared_scan_fallbacks.store(0, std::memory_order_relaxed);
  queue_wait.Reset();
  execution.Reset();
  total.Reset();
}

}  // namespace parj::server
