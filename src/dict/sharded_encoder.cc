#include "dict/sharded_encoder.h"

#include <utility>

#include "common/timer.h"
#include "server/thread_pool.h"

namespace parj::dict {

namespace {

/// `term`'s final ID when the base holds it, else kDeltaTag | its index in
/// the chunk-local `delta` (inserted on first sight). The key is hashed
/// once for both probes.
TermId EncodeAgainst(const Dictionary& base, bool predicate,
                     const rdf::Term& term, TermTable* delta) {
  const std::string_view key = ScratchKey(term);
  const uint64_t hash = TermTable::Hash(key);
  const TermId id = predicate ? base.LookupPredicateByKey(key, hash)
                              : base.LookupResourceByKey(key, hash);
  return id != kInvalidTermId ? id : kDeltaTag | delta->Insert(key, hash);
}

}  // namespace

void ChunkEncoder::Add(const rdf::Triple& triple) {
  EncodedTriple e;
  e.subject = EncodeAgainst(*base_, false, triple.subject,
                            &chunk_.delta_resources);
  e.predicate = EncodeAgainst(*base_, true, triple.predicate,
                              &chunk_.delta_predicates);
  e.object = EncodeAgainst(*base_, false, triple.object,
                           &chunk_.delta_resources);
  chunk_.triples.push_back(e);
}

EncodedChunk EncodeChunk(const Dictionary& base,
                         std::span<const rdf::Triple> triples) {
  ChunkEncoder encoder(base);
  encoder.Reserve(triples.size());
  for (const rdf::Triple& t : triples) encoder.Add(t);
  return encoder.Finish();
}

Result<std::vector<EncodedTriple>> MergeEncodedChunks(
    Dictionary* base, std::vector<EncodedChunk> chunks,
    server::ThreadPool* pool) {
  // Phase 2 (serial, chunk order): every delta term receives its final ID
  // exactly as a serial first-occurrence scan would have assigned it — a
  // term introduced by an earlier chunk resolves to that earlier ID.
  std::vector<std::vector<TermId>> resource_remap(chunks.size());
  std::vector<std::vector<PredicateId>> predicate_remap(chunks.size());
  uint64_t total_triples = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    EncodedChunk& chunk = chunks[c];
    resource_remap[c] = base->EncodeResourceKeys(chunk.delta_resources);
    chunk.delta_resources = {};
    predicate_remap[c] = base->EncodePredicateKeys(chunk.delta_predicates);
    chunk.delta_predicates = {};
    total_triples += chunk.triples.size();
  }
  if (base->resource_count() >= kDeltaTag ||
      base->predicate_count() >= kDeltaTag) {
    return Status::Internal(
        "dictionary exceeds 2^31 terms; sharded encoding tag space "
        "exhausted");
  }

  // Phase 3 (parallel): patch provisional IDs and concatenate, each chunk
  // writing its own pre-computed slice of the output.
  std::vector<size_t> offsets(chunks.size() + 1, 0);
  for (size_t c = 0; c < chunks.size(); ++c) {
    offsets[c + 1] = offsets[c] + chunks[c].triples.size();
  }
  std::vector<EncodedTriple> out(total_triples);
  auto patch_chunk = [&](size_t c) {
    const std::vector<TermId>& res_map = resource_remap[c];
    const std::vector<PredicateId>& pred_map = predicate_remap[c];
    EncodedTriple* dst = out.data() + offsets[c];
    for (const EncodedTriple& t : chunks[c].triples) {
      EncodedTriple patched = t;
      if (patched.subject & kDeltaTag) {
        patched.subject = res_map[patched.subject & ~kDeltaTag];
      }
      if (patched.predicate & kDeltaTag) {
        patched.predicate = pred_map[patched.predicate & ~kDeltaTag];
      }
      if (patched.object & kDeltaTag) {
        patched.object = res_map[patched.object & ~kDeltaTag];
      }
      *dst++ = patched;
    }
  };
  if (pool != nullptr && chunks.size() > 1) {
    pool->ParallelFor(chunks.size(), patch_chunk);
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) patch_chunk(c);
  }
  return out;
}

Result<std::vector<EncodedTriple>> EncodeNTriples(
    Dictionary* base, std::string_view text,
    const rdf::ParallelParseOptions& options, NTriplesEncodeStats* stats) {
  Stopwatch walk_timer;
  std::vector<rdf::ChunkLines> chunks =
      rdf::SplitNewlineChunks(text, options.chunk_bytes);
  std::vector<ChunkEncoder> encoders(chunks.size(), ChunkEncoder(*base));
  PARJ_RETURN_NOT_OK(rdf::WalkChunks(
      text, options, &chunks, [&encoders](size_t chunk, rdf::Triple& triple) {
        encoders[chunk].Add(triple);
      }));
  stats->walk_millis = walk_timer.ElapsedMillis();
  stats->chunks = chunks.size();
  for (const rdf::ChunkLines& chunk : chunks) {
    stats->skipped_lines += chunk.skipped_lines;
  }

  Stopwatch merge_timer;
  std::vector<EncodedChunk> encoded;
  encoded.reserve(encoders.size());
  for (ChunkEncoder& encoder : encoders) encoded.push_back(encoder.Finish());
  encoders.clear();
  auto merged = MergeEncodedChunks(base, std::move(encoded), options.pool);
  stats->merge_millis = merge_timer.ElapsedMillis();
  return merged;
}

}  // namespace parj::dict
