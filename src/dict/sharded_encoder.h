#ifndef PARJ_DICT_SHARDED_ENCODER_H_
#define PARJ_DICT_SHARDED_ENCODER_H_

#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dict/dictionary.h"
#include "dict/term_table.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"

namespace parj::server {
class ThreadPool;
}  // namespace parj::server

namespace parj::dict {

/// Deterministic two-phase parallel dictionary encoding (bulk-load
/// pipeline, DESIGN.md §10).
///
/// Phase 1 — a ChunkEncoder per input chunk, all concurrent: each chunk
/// encodes its triples against a FROZEN base dictionary (read-only,
/// safely shared) plus a chunk-local delta dictionary that assigns
/// provisional IDs (kDeltaTag | local-index) to terms the base does not
/// know, in first-occurrence order within the chunk. The N-Triples load
/// feeds each chunk's encoder straight from the parser, statement by
/// statement; EncodeChunk is the same encoder over a triple span.
///
/// Phase 2 — MergeEncodedChunks: deltas are folded into the base IN CHUNK
/// ORDER, so a term's final ID equals the ID a serial first-occurrence
/// scan of the concatenated input would have assigned — byte-identical
/// dictionaries and snapshots whatever the thread count or chunk size.
/// The per-chunk patch of provisional IDs to final IDs runs in parallel.

/// High bit of a TermId marks a provisional chunk-local delta index during
/// phase 1. Final dictionaries must stay below this (2^31 terms), which
/// MergeEncodedChunks enforces.
inline constexpr TermId kDeltaTag = TermId{1} << 31;

/// One chunk's provisional encoding.
struct EncodedChunk {
  /// Triples whose IDs are either final (base hits) or provisional
  /// (kDeltaTag set; low bits index the delta tables below).
  std::vector<EncodedTriple> triples;
  /// Keys of the terms unknown to the base, in first-occurrence (subject,
  /// predicate, object within each triple) order.
  TermTable delta_resources;
  TermTable delta_predicates;
};

/// Phase 1 for one chunk, one statement at a time. Safe to run
/// concurrently with other encoders sharing `base`, as long as nothing
/// mutates `base` meanwhile. Each term's key is rendered into a reused
/// buffer and hashed once, for the base probe and the delta insert, so
/// a statement allocates nothing beyond the amortized growth of the
/// triple list and the delta tables.
class ChunkEncoder {
 public:
  explicit ChunkEncoder(const Dictionary& base) : base_(&base) {}

  /// Pre-sizes the encoded triple list.
  void Reserve(size_t triples) { chunk_.triples.reserve(triples); }

  /// Encodes one statement, appending it to the chunk.
  void Add(const rdf::Triple& triple);

  /// Hands over the encoded chunk; the encoder is empty afterwards.
  EncodedChunk Finish() { return std::exchange(chunk_, {}); }

 private:
  const Dictionary* base_;
  EncodedChunk chunk_;
};

/// Phase 1 over a whole span: a ChunkEncoder fed `triples` in order.
EncodedChunk EncodeChunk(const Dictionary& base,
                         std::span<const rdf::Triple> triples);

/// Phases 2+3: merges every chunk's delta into `*base` in chunk order,
/// patches all provisional IDs to final ones (on `pool` when non-null),
/// and returns the chunks' triples concatenated in chunk order. Fails
/// with Internal if the dictionary would cross the kDeltaTag capacity.
Result<std::vector<EncodedTriple>> MergeEncodedChunks(
    Dictionary* base, std::vector<EncodedChunk> chunks,
    server::ThreadPool* pool = nullptr);

/// Per-phase counters of one EncodeNTriples call.
struct NTriplesEncodeStats {
  double walk_millis = 0.0;   ///< fused parse + chunk-local encode
  double merge_millis = 0.0;  ///< chunk-order merge + provisional-ID patch
  uint64_t chunks = 0;
  uint64_t skipped_lines = 0;  ///< malformed lines dropped (non-strict)
};

/// Streams N-Triples `text` straight to IDs — the bulk load's parse and
/// encode (DESIGN.md §10). One pass over each chunk (rdf::WalkChunks on
/// options.pool) parses every line into the walker's scratch triple and
/// feeds it to the chunk's ChunkEncoder against the frozen `*base`, so no
/// string-level triple outlives its line; MergeEncodedChunks then folds
/// the deltas in chunk order. Dictionary, triple order, skipped lines and
/// strict-mode errors equal those of ParseTextParallel + EncodeChunk per
/// chunk + MergeEncodedChunks with the same options.
Result<std::vector<EncodedTriple>> EncodeNTriples(
    Dictionary* base, std::string_view text,
    const rdf::ParallelParseOptions& options, NTriplesEncodeStats* stats);

}  // namespace parj::dict

#endif  // PARJ_DICT_SHARDED_ENCODER_H_
