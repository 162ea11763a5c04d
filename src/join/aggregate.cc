#include "join/aggregate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/failpoint.h"
#include "server/thread_pool.h"

namespace parj::join {

namespace {

/// splitmix64 finalizer — the shared table's slot hash and the radix
/// partition selector both need well-mixed high AND low bits.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hash of a group-key tuple. Never 0 (0 marks an empty directory entry);
/// n == 0 (global aggregate) hashes to a constant, yielding one group.
inline uint64_t HashKey(const TermId* key, int n) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < n; ++i) h = Mix64(h ^ key[i]);
  return h == 0 ? 1 : h;
}

inline double CellToDouble(uint64_t c) { return std::bit_cast<double>(c); }
inline uint64_t DoubleToCell(double d) { return std::bit_cast<uint64_t>(d); }

/// MIN/MAX cell with no numeric input yet. NaN so the first real value
/// always replaces it; decodes to an unbound result cell.
const uint64_t kEmptyCell =
    std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());

/// Lock-free NaN-aware min/max: CAS only when `v` improves on the cell.
void AtomicMinMaxCell(std::atomic<uint64_t>& cell, double v, bool is_min) {
  uint64_t old = cell.load(std::memory_order_relaxed);
  const uint64_t nv = DoubleToCell(v);
  while (true) {
    const double d = CellToDouble(old);
    if (!std::isnan(d) && (is_min ? d <= v : d >= v)) return;
    if (cell.compare_exchange_weak(old, nv, std::memory_order_relaxed)) return;
  }
}

/// Unsorted gathered groups, the common input of the canonicalize step.
struct Gathered {
  std::vector<TermId> keys;     ///< rows * group_cols
  std::vector<uint64_t> cells;  ///< rows * naggs
  size_t rows = 0;
};

void AppendTable(const GroupTable& t, int group_cols, int naggs,
                 Gathered* g) {
  for (size_t r = 0; r < t.size(); ++r) {
    const TermId* key = t.KeyAt(r);
    g->keys.insert(g->keys.end(), key, key + group_cols);
    const uint64_t* cells = t.CellsAt(r);
    g->cells.insert(g->cells.end(), cells, cells + naggs);
    ++g->rows;
  }
}

/// Lays out the output rows: keys widened to u64, then cells. With
/// `sort_keys`, groups are sorted by key TermId tuple ascending (keys are
/// unique, so this is a total order independent of which worker produced
/// which group); otherwise they keep merge order.
AggregateOutput LayOutRows(const Gathered& g, int group_cols, int naggs,
                           bool sort_keys) {
  std::vector<uint32_t> order(g.rows);
  std::iota(order.begin(), order.end(), 0);
  if (sort_keys) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const TermId* ka = g.keys.data() + static_cast<size_t>(a) * group_cols;
      const TermId* kb = g.keys.data() + static_cast<size_t>(b) * group_cols;
      return std::lexicographical_compare(ka, ka + group_cols, kb,
                                          kb + group_cols);
    });
  }
  AggregateOutput out;
  out.rows = g.rows;
  out.width = static_cast<size_t>(group_cols) + naggs;
  out.cells.reserve(out.rows * out.width);
  for (uint32_t r : order) {
    const TermId* key = g.keys.data() + static_cast<size_t>(r) * group_cols;
    for (int i = 0; i < group_cols; ++i) out.cells.push_back(key[i]);
    const uint64_t* cells = g.cells.data() + static_cast<size_t>(r) * naggs;
    out.cells.insert(out.cells.end(), cells, cells + naggs);
  }
  return out;
}

}  // namespace

const char* AggStrategyName(AggStrategy s) {
  switch (s) {
    case AggStrategy::kLocalHash:
      return "local";
    case AggStrategy::kRadix:
      return "radix";
    case AggStrategy::kShared:
      return "shared";
    case AggStrategy::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

bool ParseAggStrategy(const char* name, AggStrategy* out) {
  if (std::strcmp(name, "local") == 0) {
    *out = AggStrategy::kLocalHash;
  } else if (std::strcmp(name, "radix") == 0) {
    *out = AggStrategy::kRadix;
  } else if (std::strcmp(name, "shared") == 0) {
    *out = AggStrategy::kShared;
  } else if (std::strcmp(name, "adaptive") == 0) {
    *out = AggStrategy::kAdaptive;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// GroupTable

GroupTable::GroupTable(int group_cols, std::span<const uint64_t> init_cells)
    : group_cols_(group_cols),
      naggs_(static_cast<int>(init_cells.size())),
      init_cells_(init_cells.begin(), init_cells.end()) {}

size_t GroupTable::FindOrInsert(const TermId* key) {
  if (hash_.empty()) {
    hash_.assign(16, 0);
    row_.assign(16, 0);
    mask_ = 15;
  }
  const uint64_t h = HashKey(key, group_cols_);
  size_t idx = h & mask_;
  while (hash_[idx] != 0) {
    if (hash_[idx] == h &&
        std::equal(key, key + group_cols_,
                   keys_.data() + static_cast<size_t>(row_[idx] - 1) *
                                      group_cols_)) {
      return row_[idx] - 1;
    }
    idx = (idx + 1) & mask_;
  }
  const size_t row = count_++;
  keys_.insert(keys_.end(), key, key + group_cols_);
  cells_.insert(cells_.end(), init_cells_.begin(), init_cells_.end());
  hash_[idx] = h;
  row_[idx] = static_cast<uint32_t>(row + 1);
  if (count_ * 4 >= (mask_ + 1) * 3) Grow();
  return row;
}

void GroupTable::Grow() {
  const size_t new_cap = (mask_ + 1) * 2;
  std::vector<uint64_t> old_hash = std::move(hash_);
  std::vector<uint32_t> old_row = std::move(row_);
  hash_.assign(new_cap, 0);
  row_.assign(new_cap, 0);
  mask_ = new_cap - 1;
  for (size_t i = 0; i < old_hash.size(); ++i) {
    if (old_hash[i] == 0) continue;
    size_t idx = old_hash[i] & mask_;
    while (hash_[idx] != 0) idx = (idx + 1) & mask_;
    hash_[idx] = old_hash[i];
    row_[idx] = old_row[i];
  }
}

// ---------------------------------------------------------------------------
// Aggregator

Aggregator::Aggregator(const query::AggregateSpec* spec,
                       const std::vector<double>* numeric_values,
                       AggStrategy strategy, size_t num_workers)
    : spec_(spec),
      numeric_values_(numeric_values),
      strategy_(strategy),
      group_cols_(spec->group_cols),
      naggs_(static_cast<int>(spec->aggs.size())) {
  init_cells_.reserve(naggs_);
  for (const query::EncodedAggregate& a : spec_->aggs) {
    switch (a.func) {
      case query::AggFunc::kCount:
      case query::AggFunc::kCountStar:
        init_cells_.push_back(0);
        break;
      case query::AggFunc::kSum:
        init_cells_.push_back(DoubleToCell(0.0));
        break;
      case query::AggFunc::kMin:
      case query::AggFunc::kMax:
        init_cells_.push_back(kEmptyCell);
        break;
    }
  }
  if (num_workers == 0) num_workers = 1;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    auto w = std::make_unique<WorkerState>();
    w->local = GroupTable(group_cols_, init_cells_);
    if (strategy_ == AggStrategy::kRadix) ConvertToRadix(w.get());
    workers_.push_back(std::move(w));
  }
  // The lock-free table needs the group key in one CAS-able word: exactly
  // one group column. Other shapes under kShared (multi-column keys,
  // global aggregates) take the thread-local path — correct, just not
  // contention-free.
  shared_enabled_ =
      strategy_ == AggStrategy::kShared && group_cols_ == 1;
  if (shared_enabled_) {
    shared_capacity_ = size_t{1} << 16;
    shared_mask_ = shared_capacity_ - 1;
    shared_stride_ = 1 + static_cast<size_t>(naggs_);
    shared_max_used_ = shared_capacity_ - shared_capacity_ / 4;
    shared_slots_ =
        std::vector<std::atomic<uint64_t>>(shared_capacity_ * shared_stride_);
    // Key words are zero (empty) from value-init; pre-fill the agg cells
    // whose initial value is non-zero (MIN/MAX NaN sentinels) so a slot
    // is update-ready the moment its key CAS publishes.
    for (int i = 0; i < naggs_; ++i) {
      if (init_cells_[i] == 0) continue;
      for (size_t s = 0; s < shared_capacity_; ++s) {
        shared_slots_[s * shared_stride_ + 1 + i].store(
            init_cells_[i], std::memory_order_relaxed);
      }
    }
  }
}

size_t Aggregator::PartitionOf(const TermId* key) const {
  // Top bits: GroupTable directories probe with the LOW hash bits, so a
  // partition carved from low bits would make every key in a partition
  // collide in its table.
  static_assert((kAggRadixPartitions & (kAggRadixPartitions - 1)) == 0);
  constexpr int kBits = std::bit_width(kAggRadixPartitions) - 1;
  return HashKey(key, group_cols_) >> (64 - kBits);
}

void Aggregator::UpdateCells(uint64_t* cells,
                             std::span<const TermId> row) const {
  for (int i = 0; i < naggs_; ++i) {
    const query::EncodedAggregate& a = spec_->aggs[i];
    if (a.func == query::AggFunc::kCount ||
        a.func == query::AggFunc::kCountStar) {
      ++cells[i];
      continue;
    }
    const TermId id = row[a.input_col];
    const double v = (numeric_values_ != nullptr &&
                      id < numeric_values_->size())
                         ? (*numeric_values_)[id]
                         : std::numeric_limits<double>::quiet_NaN();
    if (std::isnan(v)) continue;  // non-numeric terms don't contribute
    const double d = CellToDouble(cells[i]);
    switch (a.func) {
      case query::AggFunc::kSum:
        cells[i] = DoubleToCell(d + v);
        break;
      case query::AggFunc::kMin:
        if (std::isnan(d) || v < d) cells[i] = DoubleToCell(v);
        break;
      case query::AggFunc::kMax:
        if (std::isnan(d) || v > d) cells[i] = DoubleToCell(v);
        break;
      default:
        break;
    }
  }
}

void Aggregator::Accumulate(size_t worker, std::span<const TermId> row) {
  WorkerState& w = *workers_[worker];
  if (shared_enabled_) {
    AccumulateShared(w, row);
    return;
  }
  const TermId* key = row.data();
  if (!w.radix) {
    const size_t r = w.local.FindOrInsert(key);
    UpdateCells(w.local.CellsAt(r), row);
    if (strategy_ == AggStrategy::kAdaptive &&
        w.local.size() >= kAggAdaptiveThreshold) {
      ConvertToRadix(&w);
    }
  } else {
    GroupTable& t = w.parts[PartitionOf(key)];
    UpdateCells(t.CellsAt(t.FindOrInsert(key)), row);
  }
}

void Aggregator::AccumulateShared(WorkerState& w,
                                  std::span<const TermId> row) {
  const uint64_t key = row[0];
  size_t idx = Mix64(key) & shared_mask_;
  bool found = false;
  for (size_t probes = 0; probes < shared_capacity_; ++probes) {
    std::atomic<uint64_t>& kslot = shared_slots_[idx * shared_stride_];
    const uint64_t cur = kslot.load(std::memory_order_acquire);
    if (cur == key) {
      found = true;
      break;
    }
    if (cur == 0) {
      // Stop claiming past the load-factor cap: long probe chains under
      // contention cost more than the private-table spill below.
      if (shared_used_.load(std::memory_order_relaxed) >= shared_max_used_) {
        break;
      }
      uint64_t expected = 0;
      if (kslot.compare_exchange_strong(expected, key,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        shared_used_.fetch_add(1, std::memory_order_relaxed);
        found = true;
        break;
      }
      if (expected == key) {
        found = true;
        break;
      }
      // Lost the claim to a different key; probe onward.
    }
    idx = (idx + 1) & shared_mask_;
  }
  if (!found) {
    // Saturated table: overflow keys live in this worker's private table
    // and meet the shared table again in Finish.
    const size_t r = w.local.FindOrInsert(row.data());
    UpdateCells(w.local.CellsAt(r), row);
    return;
  }
  for (int i = 0; i < naggs_; ++i) {
    std::atomic<uint64_t>& cell = shared_slots_[idx * shared_stride_ + 1 + i];
    const query::EncodedAggregate& a = spec_->aggs[i];
    if (a.func == query::AggFunc::kCount ||
        a.func == query::AggFunc::kCountStar) {
      cell.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const TermId id = row[a.input_col];
    const double v = (numeric_values_ != nullptr &&
                      id < numeric_values_->size())
                         ? (*numeric_values_)[id]
                         : std::numeric_limits<double>::quiet_NaN();
    if (std::isnan(v)) continue;
    if (a.func == query::AggFunc::kSum) {
      uint64_t old = cell.load(std::memory_order_relaxed);
      while (!cell.compare_exchange_weak(
          old, DoubleToCell(CellToDouble(old) + v),
          std::memory_order_relaxed)) {
      }
    } else {
      AtomicMinMaxCell(cell, v, a.func == query::AggFunc::kMin);
    }
  }
}

void Aggregator::ConvertToRadix(WorkerState* w) const {
  w->parts.clear();
  w->parts.reserve(kAggRadixPartitions);
  for (size_t p = 0; p < kAggRadixPartitions; ++p) {
    w->parts.emplace_back(group_cols_, std::span<const uint64_t>(init_cells_));
  }
  for (size_t r = 0; r < w->local.size(); ++r) {
    const TermId* key = w->local.KeyAt(r);
    MergeRow(&w->parts[PartitionOf(key)], key, w->local.CellsAt(r));
  }
  w->local = GroupTable(group_cols_, init_cells_);
  w->radix = true;
}

void Aggregator::MergeRow(GroupTable* dst, const TermId* key,
                          const uint64_t* cells) const {
  uint64_t* d = dst->CellsAt(dst->FindOrInsert(key));
  for (int i = 0; i < naggs_; ++i) {
    switch (spec_->aggs[i].func) {
      case query::AggFunc::kCount:
      case query::AggFunc::kCountStar:
        d[i] += cells[i];
        break;
      case query::AggFunc::kSum:
        d[i] = DoubleToCell(CellToDouble(d[i]) + CellToDouble(cells[i]));
        break;
      case query::AggFunc::kMin: {
        const double a = CellToDouble(d[i]);
        const double b = CellToDouble(cells[i]);
        if (std::isnan(a) || (!std::isnan(b) && b < a)) d[i] = cells[i];
        break;
      }
      case query::AggFunc::kMax: {
        const double a = CellToDouble(d[i]);
        const double b = CellToDouble(cells[i]);
        if (std::isnan(a) || (!std::isnan(b) && b > a)) d[i] = cells[i];
        break;
      }
    }
  }
}

void Aggregator::MergeTableInto(const GroupTable& src,
                                GroupTable* dst) const {
  for (size_t r = 0; r < src.size(); ++r) {
    MergeRow(dst, src.KeyAt(r), src.CellsAt(r));
  }
}

bool Aggregator::adapted() const {
  if (strategy_ != AggStrategy::kAdaptive) return false;
  for (const auto& w : workers_) {
    if (w->radix) return true;
  }
  return false;
}

Result<AggregateOutput> Aggregator::Finish(server::ThreadPool* pool,
                                           bool canonical_order) {
  PARJ_RETURN_NOT_OK(failpoint::Check("agg.merge"));

  Gathered gathered;
  bool any_radix = false;
  for (const auto& w : workers_) any_radix |= w->radix;

  if (shared_enabled_) {
    // Scan the lock-free table into a central table, then fold in any
    // per-worker overflow tables (the same key may appear in both).
    GroupTable central(group_cols_, init_cells_);
    std::vector<uint64_t> tmp(naggs_);
    for (size_t s = 0; s < shared_capacity_; ++s) {
      const uint64_t key64 =
          shared_slots_[s * shared_stride_].load(std::memory_order_acquire);
      if (key64 == 0) continue;
      for (int i = 0; i < naggs_; ++i) {
        tmp[i] = shared_slots_[s * shared_stride_ + 1 + i].load(
            std::memory_order_relaxed);
      }
      const TermId key = static_cast<TermId>(key64);
      MergeRow(&central, &key, tmp.data());
    }
    for (const auto& w : workers_) MergeTableInto(w->local, &central);
    AppendTable(central, group_cols_, naggs_, &gathered);
  } else if (any_radix) {
    // Bring adaptive stragglers (still thread-local, so < threshold
    // groups) into partitioned form, then merge each partition across
    // workers in parallel — partitions are disjoint, so no contention.
    for (const auto& w : workers_) {
      if (!w->radix) ConvertToRadix(w.get());
    }
    server::ThreadPool& tp = pool != nullptr ? *pool : server::ThreadPool::Shared();
    std::vector<GroupTable> centrals(kAggRadixPartitions);
    tp.ParallelFor(kAggRadixPartitions, [&](size_t p) {
      GroupTable central(group_cols_, init_cells_);
      for (const auto& w : workers_) MergeTableInto(w->parts[p], &central);
      centrals[p] = std::move(central);
    });
    for (const GroupTable& c : centrals) {
      AppendTable(c, group_cols_, naggs_, &gathered);
    }
  } else {
    GroupTable central(group_cols_, init_cells_);
    for (const auto& w : workers_) MergeTableInto(w->local, &central);
    AppendTable(central, group_cols_, naggs_, &gathered);
  }

  // A global aggregate (no GROUP BY) yields exactly one row even over an
  // empty input: COUNT = 0, SUM = 0, MIN/MAX unbound.
  if (group_cols_ == 0 && gathered.rows == 0) {
    gathered.cells = init_cells_;
    gathered.rows = 1;
  }

  return LayOutRows(gathered, group_cols_, naggs_, canonical_order);
}

// ---------------------------------------------------------------------------
// TopK

TopK::TopK(size_t width, size_t limit, std::span<const query::OrderKey> keys,
           size_t num_workers)
    : width_(width), limit_(limit), keys_(keys.begin(), keys.end()) {
  if (num_workers == 0) num_workers = 1;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<WorkerHeap>());
  }
}

bool TopK::RowLess(const TermId* a, const TermId* b) const {
  for (const query::OrderKey& k : keys_) {
    const TermId av = a[k.column];
    const TermId bv = b[k.column];
    if (av != bv) return k.descending ? bv < av : av < bv;
  }
  for (size_t c = 0; c < width_; ++c) {
    if (a[c] != b[c]) return a[c] < b[c];
  }
  return false;
}

void TopK::Add(size_t worker, std::span<const TermId> row) {
  if (limit_ == 0) return;
  WorkerHeap& w = *workers_[worker];
  const auto cmp = [this, &w](uint32_t x, uint32_t y) {
    // Max-heap by RowLess: the root is the worst kept row.
    return RowLess(w.rows.data() + static_cast<size_t>(x) * width_,
                   w.rows.data() + static_cast<size_t>(y) * width_);
  };
  if (w.heap.size() < limit_) {
    const uint32_t idx = static_cast<uint32_t>(w.heap.size());
    w.rows.insert(w.rows.end(), row.begin(), row.end());
    w.heap.push_back(idx);
    std::push_heap(w.heap.begin(), w.heap.end(), cmp);
    return;
  }
  const TermId* worst =
      w.rows.data() + static_cast<size_t>(w.heap.front()) * width_;
  if (!RowLess(row.data(), worst)) return;
  std::pop_heap(w.heap.begin(), w.heap.end(), cmp);
  const uint32_t slot = w.heap.back();
  std::copy(row.begin(), row.end(),
            w.rows.data() + static_cast<size_t>(slot) * width_);
  std::push_heap(w.heap.begin(), w.heap.end(), cmp);
}

std::vector<TermId> TopK::Finish() const {
  std::vector<const TermId*> all;
  for (const auto& w : workers_) {
    for (uint32_t idx : w->heap) {
      all.push_back(w->rows.data() + static_cast<size_t>(idx) * width_);
    }
  }
  std::sort(all.begin(), all.end(),
            [this](const TermId* a, const TermId* b) { return RowLess(a, b); });
  if (all.size() > limit_) all.resize(limit_);
  std::vector<TermId> out;
  out.reserve(all.size() * width_);
  for (const TermId* r : all) out.insert(out.end(), r, r + width_);
  return out;
}

int CompareAggCell(uint64_t a, uint64_t b, query::ColumnKind kind) {
  switch (kind) {
    case query::ColumnKind::kTerm:
    case query::ColumnKind::kCount:
      return a < b ? -1 : (a > b ? 1 : 0);
    case query::ColumnKind::kNumber: {
      const double da = CellToDouble(a);
      const double db = CellToDouble(b);
      const bool na = std::isnan(da);
      const bool nb = std::isnan(db);
      if (na || nb) return na == nb ? 0 : (na ? 1 : -1);
      return da < db ? -1 : (da > db ? 1 : 0);
    }
  }
  return 0;
}

}  // namespace parj::join
