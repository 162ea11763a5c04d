#include "dict/dictionary.h"

#include "common/logging.h"

namespace parj::dict {

namespace {

/// Inserts every key of `keys` into `*table` in index order; returns the
/// 1-based IDs they got.
std::vector<uint32_t> InsertAll(TermTable* table, const TermTable& keys) {
  std::vector<uint32_t> ids(keys.size());
  for (uint32_t i = 0; i < keys.size(); ++i) {
    const std::string_view key = keys.Key(i);
    ids[i] = table->Insert(key, TermTable::Hash(key)) + 1;
  }
  return ids;
}

}  // namespace

Dictionary Dictionary::Clone() const {
  Dictionary copy;
  copy.resources_ = resources_;
  copy.predicates_ = predicates_;
  return copy;
}

Result<Dictionary> Dictionary::FromTerms(
    const std::vector<rdf::Term>& resources,
    const std::vector<rdf::Term>& predicates) {
  Dictionary dict;
  for (size_t i = 0; i < resources.size(); ++i) {
    if (dict.EncodeResource(resources[i]) != i + 1) {
      return Status::ParseError("duplicate resource term '" +
                                resources[i].ToNTriples() +
                                "' in bulk dictionary build");
    }
  }
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (dict.EncodePredicate(predicates[i]) != i + 1) {
      return Status::ParseError("duplicate predicate term '" +
                                predicates[i].ToNTriples() +
                                "' in bulk dictionary build");
    }
  }
  return dict;
}

TermId Dictionary::EncodeResource(const rdf::Term& term) {
  const std::string_view key = ScratchKey(term);
  return EncodeResourceByKey(key, TermTable::Hash(key));
}

PredicateId Dictionary::EncodePredicate(const rdf::Term& term) {
  const std::string_view key = ScratchKey(term);
  return EncodePredicateByKey(key, TermTable::Hash(key));
}

std::vector<TermId> Dictionary::EncodeResourceKeys(const TermTable& keys) {
  return InsertAll(&resources_, keys);
}

std::vector<PredicateId> Dictionary::EncodePredicateKeys(
    const TermTable& keys) {
  return InsertAll(&predicates_, keys);
}

TermId Dictionary::LookupResource(const rdf::Term& term) const {
  const std::string_view key = ScratchKey(term);
  return LookupResourceByKey(key, TermTable::Hash(key));
}

PredicateId Dictionary::LookupPredicate(const rdf::Term& term) const {
  const std::string_view key = ScratchKey(term);
  return LookupPredicateByKey(key, TermTable::Hash(key));
}

std::string_view Dictionary::ResourceKey(TermId id) const {
  PARJ_CHECK(id != kInvalidTermId && id <= resources_.size())
      << "resource id out of range: " << id;
  return resources_.Key(id - 1);
}

std::string_view Dictionary::PredicateKey(PredicateId id) const {
  PARJ_CHECK(id != kInvalidPredicateId && id <= predicates_.size())
      << "predicate id out of range: " << id;
  return predicates_.Key(id - 1);
}

EncodedTriple Dictionary::Encode(const rdf::Triple& triple) {
  EncodedTriple out;
  out.subject = EncodeResource(triple.subject);
  out.predicate = EncodePredicate(triple.predicate);
  out.object = EncodeResource(triple.object);
  return out;
}

Result<EncodedTriple> Dictionary::EncodeExisting(
    const rdf::Triple& triple) const {
  EncodedTriple out;
  out.subject = LookupResource(triple.subject);
  out.predicate = LookupPredicate(triple.predicate);
  out.object = LookupResource(triple.object);
  if (out.subject == kInvalidTermId) {
    return Status::NotFound("subject not in dictionary: " +
                            triple.subject.ToNTriples());
  }
  if (out.predicate == kInvalidPredicateId) {
    return Status::NotFound("predicate not in dictionary: " +
                            triple.predicate.ToNTriples());
  }
  if (out.object == kInvalidTermId) {
    return Status::NotFound("object not in dictionary: " +
                            triple.object.ToNTriples());
  }
  return out;
}

rdf::Triple Dictionary::Decode(const EncodedTriple& triple) const {
  return rdf::Triple{DecodeResource(triple.subject),
                     DecodePredicate(triple.predicate),
                     DecodeResource(triple.object)};
}

}  // namespace parj::dict
