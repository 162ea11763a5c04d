#include "dict/dictionary.h"

#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

namespace parj::dict {
namespace {

using rdf::Term;

TEST(DictionaryTest, AssignsDenseIdsFromOne) {
  Dictionary dict;
  EXPECT_EQ(dict.EncodeResource(Term::Iri("a")), 1u);
  EXPECT_EQ(dict.EncodeResource(Term::Iri("b")), 2u);
  EXPECT_EQ(dict.EncodeResource(Term::Iri("c")), 3u);
  EXPECT_EQ(dict.resource_count(), 3u);
}

TEST(DictionaryTest, EncodeIsIdempotent) {
  Dictionary dict;
  TermId a = dict.EncodeResource(Term::Iri("a"));
  EXPECT_EQ(dict.EncodeResource(Term::Iri("a")), a);
  EXPECT_EQ(dict.resource_count(), 1u);
}

TEST(DictionaryTest, PredicatesUseSeparateIdSpace) {
  Dictionary dict;
  TermId r = dict.EncodeResource(Term::Iri("same"));
  PredicateId p = dict.EncodePredicate(Term::Iri("same"));
  EXPECT_EQ(r, 1u);
  EXPECT_EQ(p, 1u);  // independent numbering
  EXPECT_EQ(dict.resource_count(), 1u);
  EXPECT_EQ(dict.predicate_count(), 1u);
}

TEST(DictionaryTest, SubjectsAndObjectsShareIdSpace) {
  Dictionary dict;
  rdf::Triple t{Term::Iri("x"), Term::Iri("p"), Term::Iri("x")};
  EncodedTriple enc = dict.Encode(t);
  EXPECT_EQ(enc.subject, enc.object);
}

TEST(DictionaryTest, LookupWithoutInsert) {
  Dictionary dict;
  dict.EncodeResource(Term::Iri("a"));
  EXPECT_EQ(dict.LookupResource(Term::Iri("a")), 1u);
  EXPECT_EQ(dict.LookupResource(Term::Iri("zzz")), kInvalidTermId);
  EXPECT_EQ(dict.resource_count(), 1u);  // lookup did not insert
  EXPECT_EQ(dict.LookupPredicate(Term::Iri("p")), kInvalidPredicateId);
}

TEST(DictionaryTest, DistinguishesTermKinds) {
  Dictionary dict;
  TermId iri = dict.EncodeResource(Term::Iri("x"));
  TermId lit = dict.EncodeResource(Term::Literal("x"));
  TermId blank = dict.EncodeResource(Term::Blank("x"));
  TermId lang = dict.EncodeResource(Term::LangLiteral("x", "en"));
  TermId typed = dict.EncodeResource(Term::TypedLiteral("x", "http://dt"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(iri, blank);
  EXPECT_NE(lit, lang);
  EXPECT_NE(lit, typed);
  EXPECT_NE(lang, typed);
}

TEST(DictionaryTest, DecodeRoundTrip) {
  Dictionary dict;
  Term original = Term::LangLiteral("hello", "en");
  TermId id = dict.EncodeResource(original);
  EXPECT_EQ(dict.DecodeResource(id), original);

  Term pred = Term::Iri("http://p");
  PredicateId pid = dict.EncodePredicate(pred);
  EXPECT_EQ(dict.DecodePredicate(pid), pred);
}

TEST(DictionaryTest, EncodeDecodeTripleRoundTrip) {
  Dictionary dict;
  rdf::Triple t{Term::Iri("s"), Term::Iri("p"), Term::Literal("o")};
  EncodedTriple enc = dict.Encode(t);
  EXPECT_EQ(dict.Decode(enc), t);
}

TEST(DictionaryTest, EncodeExisting) {
  Dictionary dict;
  rdf::Triple known{Term::Iri("s"), Term::Iri("p"), Term::Iri("o")};
  dict.Encode(known);
  auto enc = dict.EncodeExisting(known);
  ASSERT_TRUE(enc.ok());

  rdf::Triple unknown_subject{Term::Iri("zz"), Term::Iri("p"), Term::Iri("o")};
  EXPECT_EQ(dict.EncodeExisting(unknown_subject).status().code(),
            StatusCode::kNotFound);
  rdf::Triple unknown_pred{Term::Iri("s"), Term::Iri("qq"), Term::Iri("o")};
  EXPECT_EQ(dict.EncodeExisting(unknown_pred).status().code(),
            StatusCode::kNotFound);
  rdf::Triple unknown_object{Term::Iri("s"), Term::Iri("p"), Term::Iri("zz")};
  EXPECT_EQ(dict.EncodeExisting(unknown_object).status().code(),
            StatusCode::kNotFound);
}

TEST(DictionaryTest, MemoryUsageGrows) {
  Dictionary dict;
  size_t empty = dict.MemoryUsage();
  for (int i = 0; i < 100; ++i) {
    dict.EncodeResource(Term::Iri("http://example.org/r" + std::to_string(i)));
  }
  EXPECT_GT(dict.MemoryUsage(), empty);
}

TEST(DictionaryTest, LookupByPrecomputedKey) {
  Dictionary dict;
  dict.EncodeResource(Term::Iri("a"));
  dict.EncodePredicate(Term::Iri("p"));
  const auto resource = [&](const Term& term) {
    const std::string key = term.DictionaryKey();
    return dict.LookupResourceByKey(key, TermTable::Hash(key));
  };
  const auto predicate = [&](const Term& term) {
    const std::string key = term.DictionaryKey();
    return dict.LookupPredicateByKey(key, TermTable::Hash(key));
  };
  EXPECT_EQ(resource(Term::Iri("a")), 1u);
  EXPECT_EQ(resource(Term::Iri("nope")), kInvalidTermId);
  EXPECT_EQ(predicate(Term::Iri("p")), 1u);
  EXPECT_EQ(predicate(Term::Iri("a")), kInvalidPredicateId);  // separate space
}

TEST(DictionaryTest, FromTermsAssignsPositionalIds) {
  auto dict = Dictionary::FromTerms(
      {Term::Iri("r1"), Term::Literal("r2"), Term::Blank("r3")},
      {Term::Iri("p1"), Term::Iri("p2")});
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  EXPECT_EQ(dict->resource_count(), 3u);
  EXPECT_EQ(dict->predicate_count(), 2u);
  EXPECT_EQ(dict->LookupResource(Term::Literal("r2")), 2u);
  EXPECT_EQ(dict->LookupPredicate(Term::Iri("p2")), 2u);
  EXPECT_EQ(dict->DecodeResource(3), Term::Blank("r3"));
}

TEST(DictionaryTest, FromTermsRejectsDuplicates) {
  auto dup_resource = Dictionary::FromTerms(
      {Term::Iri("same"), Term::Iri("same")}, {Term::Iri("p")});
  EXPECT_EQ(dup_resource.status().code(), StatusCode::kParseError);
  auto dup_predicate = Dictionary::FromTerms(
      {Term::Iri("r")}, {Term::Iri("p"), Term::Iri("p")});
  EXPECT_EQ(dup_predicate.status().code(), StatusCode::kParseError);
}

TEST(DictionaryTest, CloneIsDeepAndIndependent) {
  Dictionary dict;
  dict.EncodeResource(Term::Iri("a"));
  Dictionary copy = dict.Clone();
  copy.EncodeResource(Term::Iri("b"));
  EXPECT_EQ(dict.resource_count(), 1u);
  EXPECT_EQ(copy.resource_count(), 2u);
  EXPECT_EQ(copy.LookupResource(Term::Iri("a")), 1u);
}

TEST(DictionaryTest, ManyTermsKeepDistinctIds) {
  Dictionary dict;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(dict.EncodeResource(Term::Iri("r" + std::to_string(i))),
              static_cast<TermId>(i + 1));
  }
  EXPECT_EQ(dict.resource_count(), 10000u);
  EXPECT_EQ(dict.LookupResource(Term::Iri("r9999")), 10000u);
}

TEST(DictionaryTest, KeysDecodeBackToTheirTerms) {
  Dictionary dict;
  for (const Term& term : test::KeyEdgeTerms()) {
    const TermId id = dict.EncodeResource(term);
    EXPECT_EQ(dict.ResourceKey(id), term.ToNTriples());
    EXPECT_EQ(dict.DecodeResource(id), term) << term.ToNTriples();
    if (term.is_iri()) {
      EXPECT_EQ(dict.DecodePredicate(dict.EncodePredicate(term)), term);
    }
  }
  EXPECT_EQ(dict.resource_count(), test::KeyEdgeTerms().size());
}

TEST(DictionaryTest, MemoryUsageCountsEveryKeyByte) {
  // A long datatype IRI and language tag are part of the stored key.
  Dictionary dict;
  const size_t empty = dict.MemoryUsage();
  const std::string long_part(4096, 'x');
  dict.EncodeResource(Term::TypedLiteral("v", "http://ex.org/" + long_part));
  dict.EncodeResource(Term::LangLiteral("v", long_part));
  EXPECT_GE(dict.MemoryUsage(), empty + 2 * long_part.size());
}

// ---- TermTable -------------------------------------------------------

std::string KeyOf(int i) { return "<http://ex.org/k" + std::to_string(i) + ">"; }

TEST(TermTableTest, InsertFindAndGrow) {
  TermTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find("<a>", TermTable::Hash("<a>")), TermTable::kAbsent);
  constexpr int kKeys = 5000;  // many doublings past the first index
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = KeyOf(i);
    ASSERT_EQ(table.Insert(key, TermTable::Hash(key)),
              static_cast<uint32_t>(i));
  }
  ASSERT_EQ(table.size(), static_cast<size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = KeyOf(i);
    const uint64_t hash = TermTable::Hash(key);
    EXPECT_EQ(table.Key(i), key);
    EXPECT_EQ(table.Find(key, hash), static_cast<uint32_t>(i));
    EXPECT_EQ(table.Insert(key, hash), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kKeys));  // re-inserts no-op
  const std::string absent = KeyOf(kKeys);
  EXPECT_EQ(table.Find(absent, TermTable::Hash(absent)), TermTable::kAbsent);
}

TEST(TermTableTest, EqualTagsStillCompareKeyBytes) {
  // Every key under one forged hash: one tag, one probe chain.
  TermTable table;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(table.Insert(KeyOf(i), 42), static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Find(KeyOf(i), 42), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.Find(KeyOf(100), 42), TermTable::kAbsent);
}

TEST(TermTableTest, CopyIsDeepAndIndependent) {
  TermTable table;
  for (int i = 0; i < 100; ++i) table.Insert(KeyOf(i), TermTable::Hash(KeyOf(i)));
  TermTable copy = table;
  for (int i = 100; i < 300; ++i) {
    EXPECT_EQ(copy.Insert(KeyOf(i), TermTable::Hash(KeyOf(i))),
              static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.size(), 100u);
  EXPECT_EQ(table.Find(KeyOf(150), TermTable::Hash(KeyOf(150))),
            TermTable::kAbsent);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(copy.Find(KeyOf(i), TermTable::Hash(KeyOf(i))),
              static_cast<uint32_t>(i));
  }
}

TEST(TermTableTest, MemoryUsageIsTheCapacityOfItsArrays) {
  TermTable table;
  EXPECT_EQ(table.MemoryUsage(), 0u);
  constexpr size_t kKeys = 1000;
  size_t key_bytes = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    const std::string key = KeyOf(static_cast<int>(i));
    key_bytes += key.size();
    table.Insert(key, TermTable::Hash(key));
  }
  // At least the key bytes, one 8-byte end offset per key and 8-byte
  // slots at load factor <= 3/4; geometric growth at most doubles each.
  const size_t floor = key_bytes + kKeys * 8 + kKeys * 4 / 3 * 8;
  EXPECT_GE(table.MemoryUsage(), floor);
  EXPECT_LE(table.MemoryUsage(), 2 * floor);
}

}  // namespace
}  // namespace parj::dict
