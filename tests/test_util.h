#ifndef PARJ_TESTS_TEST_UTIL_H_
#define PARJ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dict/dictionary.h"
#include "engine/parj_engine.h"
#include "query/algebra.h"
#include "query/parser.h"
#include "storage/database.h"

namespace parj::test {

/// Simple triple spec: three bare names, all treated as IRIs.
using Spec = std::vector<std::tuple<std::string, std::string, std::string>>;

/// Builds a Database from name triples ("a", "p", "b").
inline storage::Database MakeDatabase(
    const Spec& spec, const storage::DatabaseOptions& options = {}) {
  dict::Dictionary dict;
  std::vector<EncodedTriple> triples;
  for (const auto& [s, p, o] : spec) {
    EncodedTriple t;
    t.subject = dict.EncodeResource(rdf::Term::Iri(s));
    t.predicate = dict.EncodePredicate(rdf::Term::Iri(p));
    t.object = dict.EncodeResource(rdf::Term::Iri(o));
    triples.push_back(t);
  }
  auto db = storage::Database::Build(std::move(dict), std::move(triples),
                                     options);
  PARJ_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// Builds an engine from name triples.
inline engine::ParjEngine MakeEngine(
    const Spec& spec, const engine::EngineOptions& options = {}) {
  std::vector<rdf::Triple> triples;
  for (const auto& [s, p, o] : spec) {
    triples.push_back(rdf::Triple{rdf::Term::Iri(s), rdf::Term::Iri(p),
                                  rdf::Term::Iri(o)});
  }
  auto engine = engine::ParjEngine::FromTriples(triples, options);
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Parses and encodes a query against `db` (query uses bare-IRI names).
inline query::EncodedQuery Encode(const std::string& sparql,
                                  const storage::Database& db) {
  auto ast = query::ParseQuery(sparql);
  PARJ_CHECK(ast.ok()) << ast.status().ToString();
  auto enc = query::EncodeQuery(*ast, db);
  PARJ_CHECK(enc.ok()) << enc.status().ToString();
  return std::move(enc).value();
}

/// Terms whose dictionary keys stress the key decode rule: IRIs holding
/// characters a literal would escape, every escape in plain, tagged and
/// typed literals, empty lexicals, and datatype IRIs holding `"` or `>`.
inline std::vector<rdf::Term> KeyEdgeTerms() {
  using rdf::Term;
  return {
      Term::Iri("http://ex.org/a b"),
      Term::Iri("http://ex.org/a>b"),
      Term::Iri("http://ex.org/\"quoted\""),
      Term::Iri("http://ex.org/back\\slash"),
      Term::Blank("b0"),
      Term::Blank("node-1.x"),
      Term::Literal("plain"),
      Term::Literal(""),
      Term::Literal("q\" b\\ n\n r\r t\t"),
      Term::Literal("ends in a backslash\\"),
      Term::Literal("\"^^<x>@en"),
      Term::LangLiteral("bonjour \"monde\"\n", "fr-CA"),
      Term::LangLiteral("", "en"),
      Term::TypedLiteral("4\t2", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::TypedLiteral("", "http://ex.org/dt"),
      Term::TypedLiteral("x\\\"y", "http://ex.org/dt\"quote"),
      Term::TypedLiteral("v", "http://ex.org/dt>gt"),
  };
}

/// Sorts row-major rows lexicographically for order-insensitive compare.
inline std::vector<std::vector<TermId>> ToSortedRows(
    const std::vector<TermId>& flat, size_t width) {
  std::vector<std::vector<TermId>> rows;
  if (width == 0) return rows;
  for (size_t i = 0; i + width <= flat.size(); i += width) {
    rows.emplace_back(flat.begin() + i, flat.begin() + i + width);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The (name, value) fields of each line of a metrics dump such as
/// server::QueryServer::DumpMetrics(), in dump order.
inline std::vector<std::pair<std::string, std::string>> MetricLines(
    const std::string& dump) {
  std::vector<std::pair<std::string, std::string>> lines;
  std::istringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string value;
    fields >> name >> value;
    lines.emplace_back(std::move(name), std::move(value));
  }
  return lines;
}

/// The value printed beside `name` in a metrics dump ("" when absent).
inline std::string MetricValue(const std::string& dump,
                               const std::string& name) {
  for (auto& [line_name, value] : MetricLines(dump)) {
    if (line_name == name) return value;
  }
  return "";
}

}  // namespace parj::test

#endif  // PARJ_TESTS_TEST_UTIL_H_
