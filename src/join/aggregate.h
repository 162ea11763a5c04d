#ifndef PARJ_JOIN_AGGREGATE_H_
#define PARJ_JOIN_AGGREGATE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "query/plan.h"

namespace parj::server {
class ThreadPool;
}  // namespace parj::server

namespace parj::join {

/// Parallel aggregation strategy (DESIGN.md §16). All four produce the
/// identical canonical output (groups sorted by key TermIds); they differ
/// only in how per-worker updates meet: thread-local tables merged
/// centrally, radix-partitioned tables merged per partition without
/// contention, one lock-free shared table updated with CAS/fetch_add, or
/// an adaptive policy that starts thread-local and re-buckets into radix
/// partitions when the observed group cardinality crosses a threshold.
enum class AggStrategy : uint8_t {
  kLocalHash = 0,
  kRadix = 1,
  kShared = 2,
  kAdaptive = 3,
};

const char* AggStrategyName(AggStrategy s);
/// Parses "local" | "radix" | "shared" | "adaptive"; false on anything
/// else (*out untouched).
bool ParseAggStrategy(const char* name, AggStrategy* out);

/// Number of radix partitions (top bits of the group-key hash — the
/// GroupTable directories probe with the low bits, so using the top bits
/// keeps per-partition probes well distributed). Enough
/// that per-partition merge parallelism covers any realistic core count,
/// few enough that per-worker partition tables stay cheap when empty.
inline constexpr size_t kAggRadixPartitions = 64;

/// Group-count threshold at which an adaptive worker re-buckets its
/// thread-local table into radix partitions and continues partitioned.
inline constexpr size_t kAggAdaptiveThreshold = 4096;

/// Canonical aggregation output: one row per group, sorted ascending by
/// the group-key TermId tuple (or in merge order, when the caller orders
/// the rows itself — see Aggregator::Finish). Row layout is `group_cols`
/// key cells (TermIds widened to u64) followed by one cell per aggregate —
/// counts raw u64, SUM/MIN/MAX doubles bit-cast (NaN = no numeric input).
struct AggregateOutput {
  size_t rows = 0;
  size_t width = 0;
  std::vector<uint64_t> cells;  ///< row-major, rows * width
};

/// Open-addressing group hash table with flat key/cell storage. Not
/// thread-safe; each worker owns its own instances.
class GroupTable {
 public:
  GroupTable() = default;
  GroupTable(int group_cols, std::span<const uint64_t> init_cells);

  /// Row index for `key` (group_cols TermIds), inserting a fresh row with
  /// the initial cell values when absent.
  size_t FindOrInsert(const TermId* key);
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  // data() + offset: group_cols / naggs may be 0 (global aggregate,
  // GROUP BY without aggregates), where operator[] would be out of range.
  const TermId* KeyAt(size_t row) const {
    return keys_.data() + row * group_cols_;
  }
  uint64_t* CellsAt(size_t row) { return cells_.data() + row * naggs_; }
  const uint64_t* CellsAt(size_t row) const {
    return cells_.data() + row * naggs_;
  }

 private:
  void Grow();

  int group_cols_ = 0;
  int naggs_ = 0;
  std::vector<uint64_t> init_cells_;
  std::vector<uint64_t> hash_;  ///< open-addressing directory, 0 = empty
  std::vector<uint32_t> row_;   ///< parallel to hash_, row index + 1
  size_t mask_ = 0;
  size_t count_ = 0;
  std::vector<TermId> keys_;     ///< row-major, count_ * group_cols_
  std::vector<uint64_t> cells_;  ///< row-major, count_ * naggs_
};

/// Morsel-parallel GROUP BY aggregator. One instance serves one query
/// execution: the engine installs `Accumulate` as the executor's
/// RowVisitor sink (ResultMode::kVisit), so aggregation overlaps the join
/// scan instead of materializing rows first. `worker` is the executor
/// shard id — each worker slot's state is private (cache-line separated),
/// except under AggStrategy::kShared where updates meet in one lock-free
/// table. `Finish` merges, canonicalizes (groups sorted by key TermIds)
/// and returns the output; it checks the `agg.merge` failpoint so a
/// faulting merge fails only its own query.
class Aggregator {
 public:
  /// `spec` and `numeric_values` must outlive the Aggregator;
  /// `numeric_values` may be null when no SUM/MIN/MAX is present.
  /// `num_workers` is the executor shard count (ExecOptions::num_threads).
  Aggregator(const query::AggregateSpec* spec,
             const std::vector<double>* numeric_values, AggStrategy strategy,
             size_t num_workers);

  /// Folds one executor row into worker `worker`'s state. Thread-safe for
  /// distinct workers (and, under kShared, across workers).
  void Accumulate(size_t worker, std::span<const TermId> row);

  /// Merges every worker's state into the canonical output. `pool` runs
  /// the per-partition merges of the radix/adaptive paths (null = shared
  /// pool). With `canonical_order` false the rows come in merge order
  /// instead of sorted by group key — for a caller that imposes its own
  /// total order (ORDER BY). Call exactly once, after all Accumulate
  /// calls completed.
  Result<AggregateOutput> Finish(server::ThreadPool* pool,
                                 bool canonical_order);

  /// True when any adaptive worker re-bucketed into radix partitions.
  bool adapted() const;

 private:
  struct alignas(64) WorkerState {
    GroupTable local;
    bool radix = false;
    std::vector<GroupTable> parts;  ///< kAggRadixPartitions when radix
  };

  void UpdateCells(uint64_t* cells, std::span<const TermId> row) const;
  void AccumulateShared(WorkerState& w, std::span<const TermId> row);
  void ConvertToRadix(WorkerState* w) const;
  void MergeRow(GroupTable* dst, const TermId* key,
                const uint64_t* cells) const;
  void MergeTableInto(const GroupTable& src, GroupTable* dst) const;
  size_t PartitionOf(const TermId* key) const;

  const query::AggregateSpec* spec_;
  const std::vector<double>* numeric_values_;
  AggStrategy strategy_;
  int group_cols_ = 0;
  int naggs_ = 0;
  std::vector<uint64_t> init_cells_;
  std::vector<std::unique_ptr<WorkerState>> workers_;

  /// Lock-free shared table (kShared with exactly one group column; other
  /// shapes fall back to the thread-local path). Slot stride is
  /// 1 + naggs_ cells: [key, agg cells...]; key 0 = empty (valid TermIds
  /// are >= 1). Cells are pre-initialized at construction, so a claimed
  /// slot is update-ready the instant its key CAS publishes.
  bool shared_enabled_ = false;
  size_t shared_capacity_ = 0;
  size_t shared_mask_ = 0;
  size_t shared_stride_ = 0;
  size_t shared_max_used_ = 0;
  std::atomic<size_t> shared_used_{0};
  std::vector<std::atomic<uint64_t>> shared_slots_;
};

/// Per-worker bounded top-k collector for ORDER BY ... LIMIT k push-down
/// over plain (non-aggregate) TermId rows: each worker keeps at most
/// `limit` rows in a bounded heap ordered by the ORDER BY keys (with a
/// full-row tiebreak making the order total), and Finish merges the
/// heaps into the globally best `limit` rows, fully sorted. Memory is
/// O(workers * limit * width) regardless of result size.
class TopK {
 public:
  TopK(size_t width, size_t limit, std::span<const query::OrderKey> keys,
       size_t num_workers);

  /// Offers one row to worker `worker`'s heap. Thread-safe for distinct
  /// workers.
  void Add(size_t worker, std::span<const TermId> row);

  /// The globally best `limit` rows across all workers, sorted. Row-major
  /// flat TermIds, width as constructed.
  std::vector<TermId> Finish() const;

  /// Total order over rows: ORDER BY keys first, then every column
  /// ascending as tiebreak.
  bool RowLess(const TermId* a, const TermId* b) const;

 private:
  struct alignas(64) WorkerHeap {
    /// Flat kept rows (size * width); `heap` indexes them as a max-heap
    /// by RowLess (root = worst kept row).
    std::vector<TermId> rows;
    std::vector<uint32_t> heap;
  };

  size_t width_;
  size_t limit_;
  std::vector<query::OrderKey> keys_;
  std::vector<std::unique_ptr<WorkerHeap>> workers_;
};

/// Kind-aware three-way compare of two output cells: kTerm compares the
/// widened TermIds, kCount unsigned, kNumber as doubles with NaN (empty
/// MIN/MAX) ordered after every number. Returns <0, 0, >0.
int CompareAggCell(uint64_t a, uint64_t b, query::ColumnKind kind);

}  // namespace parj::join

#endif  // PARJ_JOIN_AGGREGATE_H_
