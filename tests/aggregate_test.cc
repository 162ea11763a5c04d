// Morsel-parallel vectorized aggregation (DESIGN.md §16): GROUP BY /
// COUNT / SUM / MIN / MAX with selectable merge strategies, plus ORDER BY
// [LIMIT] push-down. The load-bearing property is strategy equivalence —
// every strategy, thread count and scheduling mode must produce the
// byte-identical canonical group->value map the serial reference does —
// so the differential suites here run the full cross product. Suite names
// all contain "Aggregate" (the TSan and fault-injection CI jobs select on
// it).

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "engine/parj_engine.h"
#include "join/aggregate.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "rdf/term.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/lubm.h"

namespace parj {
namespace {

using engine::ParjEngine;
using engine::QueryOptions;
using engine::QueryResult;

// ---- helpers ----------------------------------------------------------

/// Engine whose `<v>` edges carry integer literals (exact in double, so
/// SUM is bit-identical regardless of accumulation order).
ParjEngine MakeNumericEngine() {
  std::vector<rdf::Triple> triples;
  auto num = [](int64_t v) { return rdf::Term::Literal(std::to_string(v)); };
  auto iri = [](const std::string& s) { return rdf::Term::Iri(s); };
  // Group "a": values 3, 5, 10; group "b": values -2, 7; group "c": 0.
  struct Row { const char* subj; int64_t value; };
  const Row rows[] = {{"a", 3}, {"a", 5}, {"a", 10},
                      {"b", -2}, {"b", 7}, {"c", 0}};
  for (const Row& r : rows) {
    triples.push_back({iri(r.subj), iri("v"), num(r.value)});
    triples.push_back({iri(r.subj), iri("t"), iri("thing")});
  }
  auto engine = ParjEngine::FromTriples(triples);
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

ParjEngine MakeLubmEngine(int universities = 1) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = universities, .seed = 42});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

const char* kUb = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
const char* kRdf = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";

/// Decoded aggregate table: one vector of display strings per row, in
/// result order. Comparing decoded rows also covers DecodeRow's
/// kind-aware formatting.
std::vector<std::vector<std::string>> DecodedRows(const ParjEngine& engine,
                                                  const QueryResult& r) {
  std::vector<std::vector<std::string>> rows;
  for (uint64_t i = 0; i < r.row_count; ++i) {
    rows.push_back(engine.DecodeRow(r, i));
  }
  return rows;
}

struct StrategyRun {
  join::AggStrategy strategy;
  int threads;
  join::Scheduling scheduling;
};

std::vector<StrategyRun> AllStrategyRuns() {
  std::vector<StrategyRun> runs;
  for (join::AggStrategy s :
       {join::AggStrategy::kLocalHash, join::AggStrategy::kRadix,
        join::AggStrategy::kShared, join::AggStrategy::kAdaptive}) {
    for (int threads : {1, 2, 8}) {
      for (join::Scheduling sched :
           {join::Scheduling::kStatic, join::Scheduling::kMorsel}) {
        runs.push_back({s, threads, sched});
      }
    }
  }
  return runs;
}

QueryResult MustExecute(const ParjEngine& engine, const std::string& sparql,
                        const QueryOptions& opts = {}) {
  auto result = engine.Execute(sparql, opts);
  PARJ_CHECK(result.ok()) << sparql << ": " << result.status().ToString();
  return std::move(result).value();
}

/// Serial reference: 1 thread, thread-local strategy, static shards.
QueryResult Reference(const ParjEngine& engine, const std::string& sparql) {
  QueryOptions opts;
  opts.num_threads = 1;
  opts.agg_strategy = join::AggStrategy::kLocalHash;
  opts.scheduling = join::Scheduling::kStatic;
  return MustExecute(engine, sparql, opts);
}

/// Runs `sparql` under every strategy x thread count x scheduling mode
/// and asserts the result (row count, column kinds and every u64 cell —
/// for aggregates — or the exact ordered TermId rows otherwise) is
/// byte-identical to the serial reference.
void ExpectAllStrategiesMatchReference(const ParjEngine& engine,
                                       const std::string& sparql) {
  const QueryResult ref = Reference(engine, sparql);
  for (const StrategyRun& run : AllStrategyRuns()) {
    QueryOptions opts;
    opts.num_threads = run.threads;
    opts.agg_strategy = run.strategy;
    opts.scheduling = run.scheduling;
    const QueryResult got = MustExecute(engine, sparql, opts);
    const std::string label =
        std::string(join::AggStrategyName(run.strategy)) + "/" +
        std::to_string(run.threads) + "t/" +
        join::SchedulingName(run.scheduling) + ": " + sparql;
    EXPECT_EQ(got.row_count, ref.row_count) << label;
    EXPECT_EQ(got.column_count, ref.column_count) << label;
    EXPECT_EQ(got.column_kinds, ref.column_kinds) << label;
    EXPECT_EQ(got.agg_rows, ref.agg_rows) << label;
    EXPECT_EQ(got.rows, ref.rows) << label;
    EXPECT_EQ(got.var_names, ref.var_names) << label;
  }
}

// ---- parser -----------------------------------------------------------

TEST(AggregateParserTest, ParsesAggregatesGroupByOrderBy) {
  auto ast = query::ParseQuery(
      "SELECT ?g (COUNT(*) AS ?n) (SUM(?v) AS ?s) WHERE { ?g <p> ?v } "
      "GROUP BY ?g ORDER BY DESC(?n) ?g LIMIT 7");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_EQ(ast->projection, std::vector<std::string>{"g"});
  ASSERT_EQ(ast->aggregates.size(), 2u);
  EXPECT_EQ(ast->aggregates[0].func, query::AggFunc::kCountStar);
  EXPECT_EQ(ast->aggregates[0].alias, "n");
  EXPECT_EQ(ast->aggregates[1].func, query::AggFunc::kSum);
  EXPECT_EQ(ast->aggregates[1].arg, "v");
  EXPECT_EQ(ast->aggregates[1].alias, "s");
  EXPECT_EQ(ast->group_by, std::vector<std::string>{"g"});
  ASSERT_EQ(ast->order_by.size(), 2u);
  EXPECT_EQ(ast->order_by[0].var, "n");
  EXPECT_TRUE(ast->order_by[0].descending);
  EXPECT_EQ(ast->order_by[1].var, "g");
  EXPECT_FALSE(ast->order_by[1].descending);
  EXPECT_EQ(ast->limit, 7u);
}

TEST(AggregateParserTest, ParsesCountMinMaxOfVariable) {
  auto ast = query::ParseQuery(
      "SELECT (COUNT(?x) AS ?c) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
      "WHERE { ?x <p> ?v }");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->aggregates.size(), 3u);
  EXPECT_EQ(ast->aggregates[0].func, query::AggFunc::kCount);
  EXPECT_EQ(ast->aggregates[0].arg, "x");
  EXPECT_EQ(ast->aggregates[1].func, query::AggFunc::kMin);
  EXPECT_EQ(ast->aggregates[2].func, query::AggFunc::kMax);
  EXPECT_TRUE(ast->group_by.empty());
}

TEST(AggregateParserTest, RejectsUnsupportedShapes) {
  // DISTINCT + aggregates.
  EXPECT_FALSE(query::ParseQuery(
                   "SELECT DISTINCT (COUNT(*) AS ?n) WHERE { ?x <p> ?y }")
                   .ok());
  // UNION + aggregates / GROUP BY / ORDER BY.
  EXPECT_FALSE(query::ParseQuery(
                   "SELECT (COUNT(*) AS ?n) WHERE { { ?x <p> ?y } UNION "
                   "{ ?x <q> ?y } }")
                   .ok());
  EXPECT_FALSE(query::ParseQuery(
                   "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } } "
                   "ORDER BY ?x")
                   .ok());
  // Encode-time rejections: projected variable outside GROUP BY, and a
  // duplicate result-column name.
  const storage::Database db = test::MakeDatabase({{"a", "p", "b"}});
  auto encode = [&db](const std::string& q) {
    auto ast = query::ParseQuery(q);
    PARJ_CHECK(ast.ok()) << ast.status().ToString();
    return query::EncodeQuery(*ast, db);
  };
  EXPECT_FALSE(
      encode("SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <p> ?y }").ok());
  EXPECT_FALSE(encode("SELECT (COUNT(*) AS ?n) (SUM(?y) AS ?n) "
                      "WHERE { ?x <p> ?y }")
                   .ok());
}

// ---- shape key (plan-cache satellite) ---------------------------------

TEST(AggregateShapeKeyTest, AggregateShapeDiffersFromPlainBgp) {
  auto plain = query::ParseQuery("SELECT ?t WHERE { ?x <type> ?t }");
  auto agg = query::ParseQuery(
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x <type> ?t } GROUP BY ?t");
  ASSERT_TRUE(plain.ok() && agg.ok());
  const query::NormalizedQuery np = query::NormalizeQuery(*plain);
  const query::NormalizedQuery na = query::NormalizeQuery(*agg);
  ASSERT_TRUE(np.eligible);
  ASSERT_TRUE(na.eligible);
  EXPECT_NE(np.shape_key, na.shape_key);

  // ORDER BY direction and keys are part of the shape too.
  auto asc = query::ParseQuery(
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x <type> ?t } GROUP BY ?t "
      "ORDER BY ?n");
  auto desc = query::ParseQuery(
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x <type> ?t } GROUP BY ?t "
      "ORDER BY DESC(?n)");
  ASSERT_TRUE(asc.ok() && desc.ok());
  EXPECT_NE(query::NormalizeQuery(*asc).shape_key,
            query::NormalizeQuery(*desc).shape_key);
  EXPECT_NE(query::NormalizeQuery(*asc).shape_key, na.shape_key);
}

TEST(AggregateShapeKeyTest, SumMinMaxShapesAreIneligible) {
  // SUM/MIN/MAX plans carry the epoch-bound numeric table and must never
  // enter the shape cache; COUNT shapes stay eligible.
  for (const char* func : {"SUM", "MIN", "MAX"}) {
    auto ast = query::ParseQuery(std::string("SELECT (") + func +
                                 "(?v) AS ?s) WHERE { ?x <p> ?v }");
    ASSERT_TRUE(ast.ok()) << func;
    EXPECT_FALSE(query::NormalizeQuery(*ast).eligible) << func;
  }
  auto count = query::ParseQuery(
      "SELECT (COUNT(?v) AS ?c) WHERE { ?x <p> ?v }");
  ASSERT_TRUE(count.ok());
  EXPECT_TRUE(query::NormalizeQuery(*count).eligible);
}

// ---- basic semantics --------------------------------------------------

TEST(AggregateBasicTest, CountStarGlobal) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(engine,
                              "SELECT (COUNT(*) AS ?n) WHERE { ?x <v> ?y }");
  ASSERT_EQ(r.row_count, 1u);
  ASSERT_EQ(r.column_count, 1u);
  ASSERT_EQ(r.column_kinds,
            std::vector<query::ColumnKind>{query::ColumnKind::kCount});
  EXPECT_EQ(r.agg_rows, std::vector<uint64_t>{6});
  EXPECT_EQ(r.var_names, std::vector<std::string>{"n"});
  EXPECT_EQ(engine.DecodeRow(r, 0), std::vector<std::string>{"6"});
}

TEST(AggregateBasicTest, GroupedCountsMatchHandComputedMap) {
  ParjEngine engine = MakeLubmEngine();
  const std::string where =
      " WHERE { ?x ub:advisor ?y . ?y rdf:type ?t }";
  // Hand-rolled reference from the plain materialized query.
  QueryResult plain = MustExecute(
      engine, std::string(kUb) + kRdf + "SELECT ?t ?x" + where);
  std::map<TermId, uint64_t> expected;
  for (uint64_t i = 0; i < plain.row_count; ++i) {
    ++expected[plain.rows[i * 2]];
  }
  QueryResult agg = MustExecute(
      engine, std::string(kUb) + kRdf +
                  "SELECT ?t (COUNT(*) AS ?n)" + where + " GROUP BY ?t");
  ASSERT_EQ(agg.row_count, expected.size());
  std::map<TermId, uint64_t> got;
  TermId prev_key = 0;
  for (uint64_t i = 0; i < agg.row_count; ++i) {
    const TermId key = static_cast<TermId>(agg.agg_rows[i * 2]);
    EXPECT_GT(key, prev_key) << "canonical output must be key-sorted";
    prev_key = key;
    got[key] = agg.agg_rows[i * 2 + 1];
  }
  EXPECT_EQ(got, expected);
}

TEST(AggregateBasicTest, SumMinMaxOverIntegerLiterals) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(
      engine,
      "SELECT ?g (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
      "(COUNT(?v) AS ?c) WHERE { ?g <v> ?v } GROUP BY ?g ORDER BY ?g");
  ASSERT_EQ(r.row_count, 3u);
  ASSERT_EQ(r.column_count, 5u);
  const auto rows = DecodedRows(engine, r);
  // Group IRIs a/b/c were interned in insertion order, so ORDER BY ?g
  // (TermId order) yields a, b, c.
  EXPECT_EQ(rows[0], (std::vector<std::string>{"<a>", "18", "3", "10", "3"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"<b>", "5", "-2", "7", "2"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"<c>", "0", "0", "0", "1"}));
}

TEST(AggregateBasicTest, SumOverNonNumericTermsIsUnbound) {
  ParjEngine engine = MakeNumericEngine();
  // ?y binds IRIs (<thing>), which have no numeric value: SUM stays 0.0,
  // MIN/MAX stay unbound (empty string on decode).
  QueryResult r = MustExecute(
      engine, "SELECT (SUM(?y) AS ?s) (MIN(?y) AS ?lo) WHERE { ?x <t> ?y }");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(engine.DecodeRow(r, 0), (std::vector<std::string>{"0", ""}));
  EXPECT_TRUE(std::isnan(std::bit_cast<double>(r.agg_rows[1])));
}

TEST(AggregateBasicTest, GlobalAggregateOverEmptyMatchIsOneZeroRow) {
  ParjEngine engine = MakeNumericEngine();
  // Known predicate, empty match.
  QueryResult r = MustExecute(
      engine,
      "SELECT (COUNT(*) AS ?n) WHERE { ?x <v> ?y . ?y <v> ?z }");
  ASSERT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.agg_rows, std::vector<uint64_t>{0});
  // Unknown constant → known_empty plan; same answer.
  QueryResult ke = MustExecute(
      engine, "SELECT (COUNT(*) AS ?n) WHERE { <nosuch> <v> ?y }");
  ASSERT_EQ(ke.row_count, 1u);
  EXPECT_EQ(ke.agg_rows, std::vector<uint64_t>{0});
  // Grouped aggregate over an empty match is zero rows, not one.
  QueryResult grouped = MustExecute(
      engine,
      "SELECT ?x (COUNT(*) AS ?n) WHERE { <nosuch> <v> ?x } GROUP BY ?x");
  EXPECT_EQ(grouped.row_count, 0u);
}

TEST(AggregateBasicTest, GroupByWithoutAggregatesIsDistinctGroups) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(engine,
                              "SELECT ?g WHERE { ?g <v> ?v } GROUP BY ?g");
  EXPECT_EQ(r.row_count, 3u);
  ASSERT_EQ(r.column_kinds,
            std::vector<query::ColumnKind>{query::ColumnKind::kTerm});
  // DISTINCT on top is legal and a no-op (group keys are already unique).
  QueryResult d = MustExecute(
      engine, "SELECT DISTINCT ?g WHERE { ?g <v> ?v } GROUP BY ?g");
  EXPECT_EQ(d.agg_rows, r.agg_rows);
}

// ---- differential equivalence (the hard gate) --------------------------

TEST(AggregateEquivalenceTest, LubmQueriesAcrossAllStrategies) {
  ParjEngine engine = MakeLubmEngine();
  const std::string prefixes = std::string(kUb) + kRdf;
  const std::vector<std::string> queries = {
      // Low cardinality (few dozen type groups).
      prefixes + "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } "
                 "GROUP BY ?t",
      // High cardinality (one group per subject).
      prefixes + "SELECT ?x (COUNT(*) AS ?n) WHERE { ?x ub:takesCourse ?c } "
                 "GROUP BY ?x",
      // Two-column group key.
      prefixes + "SELECT ?t ?d (COUNT(?x) AS ?n) WHERE { ?x rdf:type ?t . "
                 "?x ub:worksFor ?d } GROUP BY ?t ?d",
      // Join feeding a global aggregate.
      prefixes + "SELECT (COUNT(*) AS ?n) WHERE { ?x ub:advisor ?y . "
                 "?y ub:worksFor ?d }",
      // Aggregate + ORDER BY + LIMIT.
      prefixes + "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } "
                 "GROUP BY ?t ORDER BY DESC(?n) ?t LIMIT 5",
  };
  for (const std::string& q : queries) {
    ExpectAllStrategiesMatchReference(engine, q);
  }
}

TEST(AggregateEquivalenceTest, RandomGraphsRandomQueriesDifferentialFuzz) {
  Rng rng(0x5eed);
  for (int round = 0; round < 6; ++round) {
    // Random graph: IRIs n0..n39 linked by p0/p1, each node carrying an
    // integer literal on <val> (integers keep double sums exact, so every
    // accumulation order produces identical bits).
    std::vector<rdf::Triple> triples;
    const int nodes = 20 + static_cast<int>(rng.Uniform(20));
    const int edges = 50 + static_cast<int>(rng.Uniform(150));
    auto node = [](uint64_t i) {
      return rdf::Term::Iri("n" + std::to_string(i));
    };
    for (int i = 0; i < nodes; ++i) {
      triples.push_back(
          {node(i), rdf::Term::Iri("val"),
           rdf::Term::Literal(std::to_string(
               static_cast<int64_t>(rng.Uniform(2001)) - 1000))});
    }
    for (int e = 0; e < edges; ++e) {
      triples.push_back({node(rng.Uniform(nodes)),
                         rdf::Term::Iri(rng.Uniform(2) == 0 ? "p0" : "p1"),
                         node(rng.Uniform(nodes))});
    }
    auto built = ParjEngine::FromTriples(triples);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ParjEngine engine = std::move(built).value();

    const std::vector<std::string> shapes = {
        "SELECT ?a (COUNT(*) AS ?n) WHERE { ?a <p0> ?b } GROUP BY ?a",
        "SELECT ?b (COUNT(?a) AS ?n) (SUM(?v) AS ?s) WHERE "
        "{ ?a <p0> ?b . ?a <val> ?v } GROUP BY ?b",
        "SELECT ?a ?c (COUNT(*) AS ?n) WHERE { ?a <p0> ?b . ?b <p1> ?c } "
        "GROUP BY ?a ?c",
        "SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE "
        "{ ?a <p1> ?b . ?b <val> ?v }",
        "SELECT ?a (SUM(?v) AS ?s) WHERE { ?a <p1> ?b . ?b <val> ?v } "
        "GROUP BY ?a ORDER BY DESC(?s) ?a LIMIT 4",
        "SELECT ?a ?v WHERE { ?a <val> ?v } ORDER BY DESC(?v) ?a LIMIT 6",
    };
    for (const std::string& q : shapes) {
      ExpectAllStrategiesMatchReference(engine, q);
    }
  }
}

// ---- ORDER BY / LIMIT push-down ---------------------------------------

TEST(AggregateOrderLimitTest, TopKMatchesSortTrimReference) {
  ParjEngine engine = MakeLubmEngine();
  const std::string base = std::string(kUb) +
      "SELECT ?x ?e WHERE { ?x ub:emailAddress ?e } ORDER BY DESC(?x) ?e";
  const QueryResult all = Reference(engine, base);
  ASSERT_GT(all.row_count, 40u);
  for (uint64_t k : {1u, 7u, 40u}) {
    const std::string limited = base + " LIMIT " + std::to_string(k);
    for (int threads : {1, 4}) {
      QueryOptions opts;
      opts.num_threads = threads;
      QueryResult got = MustExecute(engine, limited, opts);
      ASSERT_EQ(got.row_count, k);
      // Top-k must equal the first k rows of the full sorted answer.
      const std::vector<TermId> expected(
          all.rows.begin(),
          all.rows.begin() +
              static_cast<ptrdiff_t>(k * all.column_count));
      EXPECT_EQ(got.rows, expected) << "k=" << k << " threads=" << threads;
    }
  }
}

TEST(AggregateOrderLimitTest, AggregateTopKMatchesFullSortTrim) {
  // 400 members spread over (x, y) groups: small counts, so many groups
  // tie on (?n, ?y) and only the full-row tiebreak (?x) orders them.
  Rng rng(0xa66);
  std::vector<rdf::Triple> triples;
  for (int m = 0; m < 400; ++m) {
    const rdf::Term member = rdf::Term::Iri("m" + std::to_string(m));
    triples.push_back({member, rdf::Term::Iri("x"),
                       rdf::Term::Iri("x" + std::to_string(rng.Uniform(12)))});
    triples.push_back({member, rdf::Term::Iri("y"),
                       rdf::Term::Iri("y" + std::to_string(rng.Uniform(6)))});
  }
  auto built = ParjEngine::FromTriples(triples);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ParjEngine engine = std::move(built).value();

  const std::string base =
      "SELECT ?x ?y (COUNT(?m) AS ?n) WHERE { ?m <x> ?x . ?m <y> ?y } "
      "GROUP BY ?x ?y ORDER BY DESC(?n) ?y";
  const QueryResult all = Reference(engine, base);
  const size_t groups = all.row_count;
  ASSERT_GT(groups, 40u);
  ASSERT_EQ(all.column_count, 3u);
  // The full sort itself: ?n descending, then ?y, then ?x (TermIds).
  auto cell = [&](size_t row, size_t col) {
    return all.agg_rows[row * 3 + col];
  };
  size_t first_tie = 0;  // first cut k whose rows k-1 and k tie on (?n, ?y)
  for (size_t r = 1; r < groups; ++r) {
    const bool tie =
        cell(r - 1, 2) == cell(r, 2) && cell(r - 1, 1) == cell(r, 1);
    EXPECT_TRUE(cell(r - 1, 2) > cell(r, 2) ||
                (cell(r - 1, 2) == cell(r, 2) && cell(r - 1, 1) < cell(r, 1)) ||
                (tie && cell(r - 1, 0) < cell(r, 0)))
        << "row " << r;
    if (tie && first_tie == 0) first_tie = r;
  }
  ASSERT_GT(first_tie, 0u) << "no (?n, ?y) tie: the tiebreak is untested";

  for (const size_t k :
       {size_t{1}, first_tie, groups - 1, groups, groups + 10}) {
    const std::string limited = base + " LIMIT " + std::to_string(k);
    const size_t kept = std::min(k, groups);
    const std::vector<uint64_t> expected(
        all.agg_rows.begin(),
        all.agg_rows.begin() + static_cast<ptrdiff_t>(kept * 3));
    for (const StrategyRun& run : AllStrategyRuns()) {
      QueryOptions opts;
      opts.num_threads = run.threads;
      opts.agg_strategy = run.strategy;
      opts.scheduling = run.scheduling;
      const QueryResult got = MustExecute(engine, limited, opts);
      const std::string label =
          std::string(join::AggStrategyName(run.strategy)) + "/" +
          std::to_string(run.threads) + "t/" +
          join::SchedulingName(run.scheduling) + " k=" + std::to_string(k);
      EXPECT_EQ(got.row_count, kept) << label;
      EXPECT_EQ(got.agg_rows, expected) << label;
    }
  }
}

TEST(AggregateOrderLimitTest, SignedZeroTieOrderIsStrategyIndependent) {
  // MIN cells -0.0 and 0.0 compare equal but print differently; the raw
  // cell bits must break that tie, or the order would follow each
  // strategy's merge order.
  std::vector<rdf::Triple> triples;
  for (int g = 0; g < 40; ++g) {
    triples.push_back({rdf::Term::Iri("g" + std::to_string(g)),
                       rdf::Term::Iri("v"),
                       rdf::Term::Literal(g % 2 == 0 ? "-0" : "0")});
  }
  auto built = ParjEngine::FromTriples(triples);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ParjEngine engine = std::move(built).value();
  const std::string base =
      "SELECT (MIN(?v) AS ?m) WHERE { ?g <v> ?v } GROUP BY ?g ORDER BY ?m";
  ExpectAllStrategiesMatchReference(engine, base);
  ExpectAllStrategiesMatchReference(engine, base + " LIMIT 25");
}

TEST(AggregateOrderLimitTest, OrderByWithoutLimitSortsEverything) {
  ParjEngine engine = MakeNumericEngine();
  QueryResult r = MustExecute(
      engine, "SELECT ?g ?v WHERE { ?g <v> ?v } ORDER BY ?g DESC(?v)");
  ASSERT_EQ(r.row_count, 6u);
  const auto rows = DecodedRows(engine, r);
  EXPECT_EQ(rows[0][0], "<a>");
  EXPECT_EQ(rows[2][0], "<a>");
  EXPECT_EQ(rows[3][0], "<b>");
  EXPECT_EQ(rows[5][0], "<c>");
}

TEST(AggregateOrderLimitTest, LimitGateStopsShardsEarly) {
  ParjEngine engine = MakeLubmEngine();
  // Plain LIMIT (no ORDER/aggregate): the cross-shard gate must stop all
  // shards once k rows exist. Under emulate_parallel the shards run
  // sequentially, so after the first non-empty shard saturates the gate
  // every later shard's first emission is rejected — deterministic skips.
  const std::string q = std::string(kUb) +
      "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c } LIMIT 5";
  QueryOptions opts;
  opts.num_threads = 4;
  opts.scheduling = join::Scheduling::kStatic;
  opts.emulate_parallel = true;
  QueryResult r = MustExecute(engine, q, opts);
  EXPECT_EQ(r.row_count, 5u);
  EXPECT_GT(r.rows_skipped_by_limit, 0u);

  // Real threads: still exactly k rows, and each returned row is a row of
  // the full answer.
  opts.emulate_parallel = false;
  QueryResult real = MustExecute(engine, q, opts);
  EXPECT_EQ(real.row_count, 5u);
  const QueryResult full = Reference(
      engine,
      std::string(kUb) + "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c }");
  const auto universe = test::ToSortedRows(full.rows, 2);
  const auto picked = test::ToSortedRows(real.rows, 2);
  for (const auto& row : picked) {
    EXPECT_TRUE(std::binary_search(universe.begin(), universe.end(), row));
  }
}

// ---- serving-layer integration (cache satellites) ----------------------

TEST(AggregateServingTest, PlanCacheNeverServesBgpPlanForAggregateForm) {
  ParjEngine engine = MakeLubmEngine();
  server::ServerOptions options;
  options.result_cache_bytes = 0;  // isolate the plan cache
  const std::string where = " WHERE { ?x rdf:type ?t }";
  const std::string plain =
      std::string(kRdf) + "SELECT ?t" + where;
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n)" + where + " GROUP BY ?t";
  const QueryResult agg_ref = Reference(engine, agg);
  const QueryResult plain_ref = Reference(engine, plain);

  // Both submission orders: the shape key must keep the forms apart.
  for (const bool plain_first : {true, false}) {
    server::QueryServer server(&engine, options);
    auto run = [&](const std::string& q) {
      auto r = server.Execute(q);
      PARJ_CHECK(r.ok()) << r.status().ToString();
      return std::move(r).value();
    };
    if (plain_first) run(plain); else run(agg);
    const QueryResult got_agg = run(agg);
    const QueryResult got_plain = run(plain);
    EXPECT_EQ(got_agg.agg_rows, agg_ref.agg_rows);
    EXPECT_EQ(got_agg.column_kinds, agg_ref.column_kinds);
    EXPECT_EQ(got_agg.row_count, agg_ref.row_count);
    EXPECT_TRUE(got_plain.column_kinds.empty());
    EXPECT_EQ(test::ToSortedRows(got_plain.rows, got_plain.column_count),
              test::ToSortedRows(plain_ref.rows, plain_ref.column_count));
    // The aggregate text repeats → its own bound plan replays, still with
    // the aggregate answer.
    const QueryResult replay = run(agg);
    EXPECT_TRUE(replay.plan_cached);
    EXPECT_EQ(replay.agg_rows, agg_ref.agg_rows);
  }
}

TEST(AggregateServingTest, ResultCacheReplaysAndInvalidatesAggregates) {
  ParjEngine engine = MakeLubmEngine();
  server::QueryServer server(&engine, {});
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } GROUP BY ?t";
  auto first = server.Execute(agg);
  ASSERT_TRUE(first.ok());
  auto second = server.Execute(agg);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cached);
  EXPECT_EQ(second->agg_rows, first->agg_rows);
  EXPECT_EQ(second->column_kinds, first->column_kinds);
  EXPECT_EQ(second->row_count, first->row_count);
  EXPECT_EQ(second->var_names, first->var_names);

  // A mutation bumps data_version: the cached aggregate must not be
  // served stale, and the fresh answer reflects the new triple.
  ASSERT_TRUE(engine
                  .Insert({rdf::Term::Iri("http://x/new"),
                           rdf::Term::Iri(
                               "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                           rdf::Term::Iri("http://x/NewType")})
                  .ok());
  auto third = server.Execute(agg);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->result_cached);
  EXPECT_EQ(third->row_count, first->row_count + 1);
}

// ---- fault containment -------------------------------------------------

TEST(AggregateFaultTest, MergeFailpointFailsOnlyTheAggregateQuery) {
  ParjEngine engine = MakeLubmEngine();
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("agg.merge", "error:1").ok());
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } GROUP BY ?t";
  auto broken = engine.Execute(agg);
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.status().ToString().find("agg.merge"), std::string::npos);
  // The budget (`:1`) is spent: the same query succeeds afterwards, and a
  // plain query was never affected.
  auto plain = engine.Execute(std::string(kRdf) +
                              "SELECT ?t WHERE { ?x rdf:type ?t }");
  EXPECT_TRUE(plain.ok());
  auto retried = engine.Execute(agg);
  EXPECT_TRUE(retried.ok());
  failpoint::DisarmAll();
}

TEST(AggregateFaultTest, ServerContainsMergeFault) {
  ParjEngine engine = MakeLubmEngine();
  server::QueryServer server(&engine, {});
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("agg.merge", "error:1").ok());
  const std::string agg = std::string(kRdf) +
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t } GROUP BY ?t";
  auto broken = server.Execute(agg);
  EXPECT_FALSE(broken.ok());
  // The server keeps serving: the next query (same text) succeeds.
  auto after = server.Execute(agg);
  EXPECT_TRUE(after.ok());
  failpoint::DisarmAll();
}

}  // namespace
}  // namespace parj
