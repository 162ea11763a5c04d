#ifndef PARJ_DICT_DICTIONARY_H_
#define PARJ_DICT_DICTIONARY_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dict/term_table.h"
#include "rdf/term.h"

namespace parj::dict {

/// Dictionary encoding for RDF terms (paper §3): every distinct value that
/// appears in a subject or object position receives a dense integer ID from
/// one shared ID space (1..N); predicates receive IDs from a second,
/// independent space. ID 0 is reserved as invalid in both spaces. Each
/// space is one TermTable holding every term once, as its N-Triples key;
/// ID i is the table's index i-1.
///
/// The dictionary is append-only; IDs are assigned in first-seen order,
/// which the loader exploits to make encoding deterministic for a given
/// input order. Concurrent READERS (Lookup*/Decode*/*Key) are safe; any
/// write (Encode* miss) requires exclusive access — the parallel bulk
/// loader gets both by encoding chunks against a frozen dictionary plus
/// chunk-local deltas (see dict/sharded_encoder.h).
class Dictionary {
 public:
  Dictionary() = default;

  // Movable but not implicitly copyable: the dictionary can hold hundreds
  // of MB. Use Clone() when a copy is genuinely needed (e.g. building a
  // materialized database next to the base one).
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Explicit deep copy preserving all ID assignments: copies each
  /// table's three arrays, with no per-term work.
  Dictionary Clone() const;

  /// Bulk-builds a dictionary whose ID assignment is positional:
  /// resources[i] gets ID i+1, predicates[i] gets ID i+1. A duplicate
  /// term in either list yields ParseError.
  static Result<Dictionary> FromTerms(
      const std::vector<rdf::Term>& resources,
      const std::vector<rdf::Term>& predicates);

  /// Returns the ID for `term`, inserting it if absent.
  TermId EncodeResource(const rdf::Term& term);

  /// Returns the ID for predicate `term`, inserting it if absent.
  PredicateId EncodePredicate(const rdf::Term& term);

  /// Encode by a canonical key (Term::AppendNTriples) and its
  /// TermTable::Hash, for callers that already hold both.
  TermId EncodeResourceByKey(std::string_view key, uint64_t hash) {
    return resources_.Insert(key, hash) + 1;
  }
  PredicateId EncodePredicateByKey(std::string_view key, uint64_t hash) {
    return predicates_.Insert(key, hash) + 1;
  }

  /// Encodes every key of `keys` in index order — a bulk-load chunk's
  /// delta or a compaction's overlay — and returns their IDs.
  std::vector<TermId> EncodeResourceKeys(const TermTable& keys);
  std::vector<PredicateId> EncodePredicateKeys(const TermTable& keys);

  /// Returns the ID for `term` or kInvalidTermId when absent.
  /// Allocation-free (the key is rendered into a reused buffer).
  TermId LookupResource(const rdf::Term& term) const;

  /// Returns the predicate ID or kInvalidPredicateId when absent.
  PredicateId LookupPredicate(const rdf::Term& term) const;

  /// Lookup by a canonical key and its TermTable::Hash.
  TermId LookupResourceByKey(std::string_view key, uint64_t hash) const {
    return resources_.Find(key, hash) + 1;  // kAbsent + 1 == invalid ID
  }
  PredicateId LookupPredicateByKey(std::string_view key, uint64_t hash) const {
    return predicates_.Find(key, hash) + 1;
  }

  /// The stored N-Triples key of a resource / predicate ID. Asserts on
  /// out-of-range IDs.
  std::string_view ResourceKey(TermId id) const;
  std::string_view PredicateKey(PredicateId id) const;

  /// Decodes a resource ID (Term::FromKey of its key). Asserts on
  /// out-of-range IDs.
  rdf::Term DecodeResource(TermId id) const {
    return rdf::Term::FromKey(ResourceKey(id));
  }

  /// Decodes a predicate ID. Asserts on out-of-range IDs.
  rdf::Term DecodePredicate(PredicateId id) const {
    return rdf::Term::FromKey(PredicateKey(id));
  }

  /// Encodes a string-level triple, inserting unseen terms.
  EncodedTriple Encode(const rdf::Triple& triple);

  /// Encodes without inserting; any unseen term yields NotFound.
  Result<EncodedTriple> EncodeExisting(const rdf::Triple& triple) const;

  /// Decodes an encoded triple back to string level.
  rdf::Triple Decode(const EncodedTriple& triple) const;

  /// Number of distinct resources (max resource ID).
  TermId resource_count() const {
    return static_cast<TermId>(resources_.size());
  }

  /// Number of distinct predicates (max predicate ID).
  PredicateId predicate_count() const {
    return static_cast<PredicateId>(predicates_.size());
  }

  /// Heap bytes held by both tables (allocated capacity).
  size_t MemoryUsage() const {
    return resources_.MemoryUsage() + predicates_.MemoryUsage();
  }

 private:
  TermTable resources_;
  TermTable predicates_;
};

}  // namespace parj::dict

#endif  // PARJ_DICT_DICTIONARY_H_
