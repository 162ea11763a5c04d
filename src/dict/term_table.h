#ifndef PARJ_DICT_TERM_TABLE_H_
#define PARJ_DICT_TERM_TABLE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace parj::dict {

/// Append-only table of dictionary keys — the one place a term is stored
/// (DESIGN.md §3). A key is the term's N-Triples rendering
/// (rdf::Term::AppendNTriples), kept once in a contiguous byte arena; key
/// `i` (0-based, in insertion order) spans [end(i-1), end(i)). An
/// open-addressing index of (32-bit hash tag | i+1) slots maps a key back
/// to its index. Slot positions derive from the tag alone, so growing the
/// index never re-reads a key, and a copy is three flat arrays.
///
/// Callers hash a key once (Hash) and reuse the hash across tables: the
/// bulk loader probes the frozen base dictionary and then inserts into its
/// chunk-local delta with the same value.
class TermTable {
 public:
  /// Find's result for a key the table does not hold.
  static constexpr uint32_t kAbsent = UINT32_MAX;

  static uint64_t Hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// Key `index` (< size()); valid until the next Insert.
  std::string_view Key(uint32_t index) const {
    const uint64_t begin = index == 0 ? 0 : ends_[index - 1];
    return {arena_.data() + begin, static_cast<size_t>(ends_[index] - begin)};
  }

  /// Index of `key` (whose Hash is `hash`), or kAbsent.
  uint32_t Find(std::string_view key, uint64_t hash) const;

  /// Index of `key`, appending it first when absent (the new index is the
  /// old size()). `key` must not view this table's own arena.
  uint32_t Insert(std::string_view key, uint64_t hash);

  /// Heap bytes held: the capacity of all three arrays.
  size_t MemoryUsage() const {
    return arena_.capacity() + ends_.capacity() * sizeof(uint64_t) +
           slots_.capacity() * sizeof(uint64_t);
  }

 private:
  /// Position of `key`'s slot, or of the empty slot that ends its probe
  /// sequence. Requires a non-empty index.
  size_t Probe(std::string_view key, uint32_t tag) const;

  /// Doubles the index (16 slots at first) and re-places every slot by
  /// its tag.
  void Grow();

  std::vector<char> arena_;
  std::vector<uint64_t> ends_;   // ends_[i] = arena offset one past key i
  std::vector<uint64_t> slots_;  // (tag << 32) | (index + 1); 0 = empty
};

/// Renders `term`'s dictionary key into a per-thread scratch buffer and
/// returns a view of it, valid until the next call on this thread. The
/// buffer keeps its capacity, so a warm call allocates nothing.
std::string_view ScratchKey(const rdf::Term& term);

}  // namespace parj::dict

#endif  // PARJ_DICT_TERM_TABLE_H_
