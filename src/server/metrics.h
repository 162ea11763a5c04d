#ifndef PARJ_SERVER_METRICS_H_
#define PARJ_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace parj::server {

/// Lock-free fixed-bucket latency histogram. Bucket i covers
/// [2^(i-1), 2^i) microseconds (bucket 0 is [0, 1us)), so 32 buckets span
/// sub-microsecond to ~35 minutes — plenty for query latencies — with one
/// relaxed atomic increment per Record.
class LatencyHistogram {
 public:
  static constexpr size_t kBucketCount = 32;

  void Record(double millis);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_millis() const {
    return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
           1e3;
  }
  double mean_millis() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum_millis() / static_cast<double>(n);
  }
  double max_millis() const {
    return static_cast<double>(max_micros_.load(std::memory_order_relaxed)) /
           1e3;
  }

  /// Upper bound (ms) of the bucket holding the p-quantile (0 < p <= 1);
  /// 0 when empty. Bucketed percentiles are exact to within a factor of 2,
  /// which is the standard tradeoff for lock-free serving metrics.
  double PercentileMillis(double p) const;

  /// Upper bound of bucket `i` in milliseconds.
  static double BucketUpperMillis(size_t bucket);

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
};

/// The counters and histograms the serving path itself records. One
/// instance per QueryServer; everything is an atomic, so workers record
/// without locks. QueryServer::DumpMetrics() renders them beside the
/// gauges it reads from their owners (store, WAL, caches) at dump time.
struct MetricsRegistry {
  std::atomic<uint64_t> queries_submitted{0};
  std::atomic<uint64_t> queries_admitted{0};
  std::atomic<uint64_t> admission_rejected{0};  ///< queue-full rejections
  std::atomic<uint64_t> queries_completed{0};
  std::atomic<uint64_t> queries_failed{0};      ///< non-cancel errors
  std::atomic<uint64_t> queries_cancelled{0};   ///< client-initiated
  std::atomic<uint64_t> deadlines_expired{0};
  std::atomic<uint64_t> rows_returned{0};
  /// Rows the cross-shard LIMIT gate rejected after saturation (see
  /// join::ExecResult::rows_skipped_by_limit); nonzero proves LIMIT-k
  /// early exit is actually cutting work.
  std::atomic<uint64_t> rows_skipped_by_limit{0};

  // Robustness counters (watchdog / retry / degradation).
  std::atomic<uint64_t> retries{0};              ///< re-submissions after transient failure
  std::atomic<uint64_t> watchdog_kills{0};       ///< queries killed past the wall-clock cap
  std::atomic<uint64_t> degraded_activations{0}; ///< entries into degraded mode
  std::atomic<uint64_t> degraded_rejected{0};    ///< queries shed while degraded
  std::atomic<uint64_t> worker_faults{0};        ///< exceptions contained at the worker boundary

  // Shared-scan counters (DESIGN.md §15), incremented by the serving path.
  std::atomic<uint64_t> shared_scan_groups{0};    ///< shared passes executed
  std::atomic<uint64_t> shared_scan_queries_coalesced{0};  ///< queries served by another query's pass
  std::atomic<uint64_t> shared_scan_fallbacks{0};  ///< groups degraded to solo execution

  LatencyHistogram queue_wait;  ///< submit -> job start
  LatencyHistogram execution;   ///< engine Execute wall time
  LatencyHistogram total;       ///< submit -> result ready

  void Reset();
};

}  // namespace parj::server

#endif  // PARJ_SERVER_METRICS_H_
