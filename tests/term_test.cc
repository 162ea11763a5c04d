#include "rdf/term.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace parj::rdf {
namespace {

TEST(TermTest, IriSerialization) {
  Term t = Term::Iri("http://example.org/a");
  EXPECT_TRUE(t.is_iri());
  EXPECT_EQ(t.ToNTriples(), "<http://example.org/a>");
}

TEST(TermTest, PlainLiteralSerialization) {
  Term t = Term::Literal("hello");
  EXPECT_TRUE(t.is_literal());
  EXPECT_EQ(t.ToNTriples(), "\"hello\"");
}

TEST(TermTest, LangLiteralSerialization) {
  Term t = Term::LangLiteral("bonjour", "fr");
  EXPECT_EQ(t.ToNTriples(), "\"bonjour\"@fr");
  EXPECT_EQ(t.lang(), "fr");
}

TEST(TermTest, TypedLiteralSerialization) {
  Term t = Term::TypedLiteral("5", "http://www.w3.org/2001/XMLSchema#integer");
  EXPECT_EQ(t.ToNTriples(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(TermTest, BlankNodeSerialization) {
  Term t = Term::Blank("b0");
  EXPECT_TRUE(t.is_blank());
  EXPECT_EQ(t.ToNTriples(), "_:b0");
}

TEST(TermTest, LiteralEscaping) {
  Term t = Term::Literal("a\"b\\c\nd\te\r");
  EXPECT_EQ(t.ToNTriples(), "\"a\\\"b\\\\c\\nd\\te\\r\"");
}

TEST(TermTest, Equality) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_FALSE(Term::Iri("x") == Term::Iri("y"));
  EXPECT_FALSE(Term::Iri("x") == Term::Literal("x"));
  EXPECT_FALSE(Term::Literal("x") == Term::LangLiteral("x", "en"));
  EXPECT_FALSE(Term::LangLiteral("x", "en") == Term::LangLiteral("x", "de"));
  EXPECT_FALSE(Term::Literal("x") ==
               Term::TypedLiteral("x", "http://dt"));
}

TEST(TermTest, DictionaryKeyDistinguishesKinds) {
  // The dictionary key must distinguish the IRI <x> from the literal "x"
  // and the blank node _:x.
  EXPECT_NE(Term::Iri("x").DictionaryKey(), Term::Literal("x").DictionaryKey());
  EXPECT_NE(Term::Iri("x").DictionaryKey(), Term::Blank("x").DictionaryKey());
  EXPECT_NE(Term::Literal("x").DictionaryKey(),
            Term::Blank("x").DictionaryKey());
}

TEST(EscapeLiteralTest, RoundTrip) {
  const std::string original = "line1\nline2\t\"quoted\" back\\slash\r";
  auto unescaped = UnescapeLiteral(EscapeLiteral(original));
  ASSERT_TRUE(unescaped.ok());
  EXPECT_EQ(*unescaped, original);
}

TEST(UnescapeLiteralTest, RejectsDanglingEscape) {
  EXPECT_FALSE(UnescapeLiteral("abc\\").ok());
}

TEST(UnescapeLiteralTest, RejectsUnknownEscape) {
  EXPECT_FALSE(UnescapeLiteral("a\\qb").ok());
}

TEST(TermKeyTest, FromKeyInvertsAppendNTriples) {
  for (const Term& term : test::KeyEdgeTerms()) {
    const std::string key = term.ToNTriples();
    EXPECT_EQ(Term::FromKey(key), term) << key;
  }
}

TEST(TermKeyTest, AssignKeyOverwritesEveryField) {
  // One scratch term decodes a run of keys; no field of an earlier term
  // may leak into a later one.
  Term scratch = Term::LangLiteral("stale", "de");
  for (const Term& term : test::KeyEdgeTerms()) {
    scratch.AssignKey(term.ToNTriples());
    EXPECT_EQ(scratch, term) << term.ToNTriples();
  }
}

TEST(TripleTest, Equality) {
  Triple a{Term::Iri("s"), Term::Iri("p"), Term::Literal("o")};
  Triple b{Term::Iri("s"), Term::Iri("p"), Term::Literal("o")};
  Triple c{Term::Iri("s"), Term::Iri("p"), Term::Literal("x")};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace parj::rdf
