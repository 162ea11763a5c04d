#ifndef PARJ_RDF_TERM_H_
#define PARJ_RDF_TERM_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace parj::rdf {

/// Kind of an RDF term.
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
};

/// An RDF term (IRI, literal or blank node) at the string level, i.e.
/// before dictionary encoding. Literals carry an optional datatype IRI or
/// language tag (mutually exclusive, per RDF 1.1).
class Term {
 public:
  Term() : kind_(TermKind::kIri) {}

  static Term Iri(std::string iri) {
    Term t;
    t.kind_ = TermKind::kIri;
    t.lexical_ = std::move(iri);
    return t;
  }

  static Term Literal(std::string value) {
    Term t;
    t.kind_ = TermKind::kLiteral;
    t.lexical_ = std::move(value);
    return t;
  }

  static Term TypedLiteral(std::string value, std::string datatype_iri) {
    Term t = Literal(std::move(value));
    t.datatype_ = std::move(datatype_iri);
    return t;
  }

  static Term LangLiteral(std::string value, std::string lang) {
    Term t = Literal(std::move(value));
    t.lang_ = std::move(lang);
    return t;
  }

  static Term Blank(std::string label) {
    Term t;
    t.kind_ = TermKind::kBlank;
    t.lexical_ = std::move(label);
    return t;
  }

  /// Overwrites this term in place, reusing its strings' capacity. The
  /// N-Triples chunk walker parses every line into one scratch triple
  /// this way, so a line allocates nothing once the buffers have grown.
  void Assign(TermKind kind, std::string_view lexical,
              std::string_view datatype = {}, std::string_view lang = {}) {
    kind_ = kind;
    lexical_.assign(lexical);
    datatype_.assign(datatype);
    lang_.assign(lang);
  }

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const { return kind_ == TermKind::kBlank; }

  /// IRI string, literal value or blank node label (without decoration).
  const std::string& lexical() const { return lexical_; }
  /// Datatype IRI for typed literals, empty otherwise.
  const std::string& datatype() const { return datatype_; }
  /// Language tag for language-tagged literals, empty otherwise.
  const std::string& lang() const { return lang_; }

  /// Serializes in N-Triples syntax: `<iri>`, `"lit"`, `"lit"@en`,
  /// `"lit"^^<dt>` or `_:label`. Escapes `\`, `"`, newline and tab in
  /// literal values.
  std::string ToNTriples() const;

  /// Appends the N-Triples serialization to `*out` without clearing it.
  /// Allocation-free when `out` already has enough capacity, which is what
  /// makes dictionary lookups on a reused buffer allocation-free.
  void AppendNTriples(std::string* out) const;

  /// Canonical key used by the dictionary: distinct terms map to distinct
  /// keys and equal terms to equal keys.
  std::string DictionaryKey() const { return ToNTriples(); }

  /// Overwrites this term with the one whose AppendNTriples rendering is
  /// `key` — the exact inverse, reusing the strings' capacity. The first
  /// byte gives the kind; an IRI or blank-node lexical is a slice of the
  /// key; a literal's lexical runs to the first unescaped `"` and is
  /// unescaped only when it holds a `\`, followed by `@lang` or
  /// `^^<datatype>`. Unlike the N-Triples parser it accepts any IRI
  /// AppendNTriples can render (spaces, quotes, backslashes). `key` must
  /// be such a rendering.
  void AssignKey(std::string_view key);

  /// The term whose AppendNTriples rendering is `key` (see AssignKey).
  static Term FromKey(std::string_view key) {
    Term t;
    t.AssignKey(key);
    return t;
  }

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind_ == b.kind_ && a.lexical_ == b.lexical_ &&
           a.datatype_ == b.datatype_ && a.lang_ == b.lang_;
  }

 private:
  TermKind kind_;
  std::string lexical_;
  std::string datatype_;
  std::string lang_;
};

/// An RDF statement at the string level.
struct Triple {
  Term subject;
  Term predicate;
  Term object;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// Escapes a literal value per N-Triples rules.
std::string EscapeLiteral(std::string_view value);

/// Reverses EscapeLiteral.
Result<std::string> UnescapeLiteral(std::string_view value);

/// UnescapeLiteral into `*out` (cleared first, capacity kept).
Status UnescapeLiteralInto(std::string_view value, std::string* out);

}  // namespace parj::rdf

#endif  // PARJ_RDF_TERM_H_
