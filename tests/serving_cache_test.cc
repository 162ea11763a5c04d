// Serving-cache behavior through the QueryServer front (DESIGN.md §15):
// plan-cache hits skip parse + optimize, result-cache hits skip execution
// entirely, shared-scan batching coalesces concurrent same-leading-scan
// queries — and every cached answer must be row-identical to the
// uncached path, across mutations and compaction.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "mutable/delta_store.h"
#include "server/server.h"
#include "test_util.h"
#include "workload/lubm.h"

namespace parj::server {
namespace {

engine::ParjEngine MakeLubmEngine(int universities = 1) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = universities, .seed = 42});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

const char* kPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

std::string AdvisorQuery(int dept = 0) {
  return std::string(kPrefix) +
         "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?y ub:worksFor "
         "<http://www.Department" +
         std::to_string(dept) + ".University0.edu> }";
}

std::vector<std::vector<TermId>> SortedRows(const engine::QueryResult& r) {
  std::vector<std::vector<TermId>> rows;
  if (r.column_count == 0) return rows;
  rows.reserve(r.row_count);
  for (size_t i = 0; i < r.rows.size(); i += r.column_count) {
    rows.emplace_back(r.rows.begin() + i,
                      r.rows.begin() + i + r.column_count);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ServingCacheTest, RepeatQueryHitsResultCacheWithIdenticalRows) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  auto first = server.Execute(AdvisorQuery());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->result_cached);
  auto second = server.Execute(AdvisorQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cached);
  EXPECT_EQ(SortedRows(*first), SortedRows(*second));
  EXPECT_EQ(first->var_names, second->var_names);
  // The hit resolved on the submit thread: no second admission.
  EXPECT_EQ(server.metrics().queries_admitted.load(), 1u);
  EXPECT_GE(server.result_cache()->stats().hits, 1u);
}

TEST(ServingCacheTest, RepeatShapeHitsPlanCache) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  // Same text twice: second run binds the cached bound-level plan (the
  // result cache is off to keep the execution path exercised).
  SubmitOptions submit;
  submit.use_result_cache = false;
  auto first = server.Execute(AdvisorQuery(0), submit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cached);
  auto again = server.Execute(AdvisorQuery(0), submit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cached);
  EXPECT_EQ(SortedRows(*first), SortedRows(*again));
  // Same shape, new constant: served via the shape level + BindTemplate.
  auto sibling = server.Execute(AdvisorQuery(5), submit);
  ASSERT_TRUE(sibling.ok());
  EXPECT_TRUE(sibling->plan_cached);
  auto uncached_sibling = engine.Execute(AdvisorQuery(5), {});
  ASSERT_TRUE(uncached_sibling.ok());
  EXPECT_EQ(SortedRows(*sibling), SortedRows(*uncached_sibling));
}

TEST(ServingCacheTest, MutationInvalidatesResultCache) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  const std::string query =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }";
  auto before = server.Execute(query);
  ASSERT_TRUE(before.ok());
  // Insert a new advisor edge; the cached answer is now stale.
  ASSERT_TRUE(engine
                  .Insert({rdf::Term::Iri("http://x/newstudent"),
                           rdf::Term::Iri(
                               "http://swat.cse.lehigh.edu/onto/"
                               "univ-bench.owl#advisor"),
                           rdf::Term::Iri("http://x/newprof")})
                  .ok());
  auto after = server.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->result_cached);
  EXPECT_EQ(after->row_count, before->row_count + 1);
  // And the fresh answer is cached at the new version.
  auto warm = server.Execute(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cached);
  EXPECT_EQ(warm->row_count, after->row_count);
}

TEST(ServingCacheTest, CompactionKeepsResultCacheEntriesValid) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  // Warm the cache with a delta-visible row in it.
  ASSERT_TRUE(engine
                  .Insert({rdf::Term::Iri("http://x/s"),
                           rdf::Term::Iri(
                               "http://swat.cse.lehigh.edu/onto/"
                               "univ-bench.owl#advisor"),
                           rdf::Term::Iri("http://x/o")})
                  .ok());
  const std::string query =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }";
  auto warm = server.Execute(query);
  ASSERT_TRUE(warm.ok());
  // Compaction republishes identical content (data_version unchanged),
  // so the entry legitimately survives and stays row-identical.
  ASSERT_TRUE(engine.Compact().ok());
  auto after = server.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->result_cached);
  EXPECT_EQ(SortedRows(*warm), SortedRows(*after));
  auto fresh = engine.Execute(query, {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(SortedRows(*after), SortedRows(*fresh));
}

TEST(ServingCacheTest, PreparedStatementsSkipParsing) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  auto stmt = server.Prepare(AdvisorQuery());
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE((*stmt)->normalized.eligible)
      << (*stmt)->normalized.ineligible_reason;
  SubmitOptions submit;
  submit.use_result_cache = false;
  SubmittedQuery q = server.SubmitPrepared(*stmt, submit);
  auto result = q.result.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto uncached = engine.Execute(AdvisorQuery(), {});
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(SortedRows(*result), SortedRows(*uncached));
  // Parse errors surface at Prepare, not at submit.
  EXPECT_FALSE(server.Prepare("SELECT WHERE {").ok());
}

/// Three distinct residual pipelines over the identical leading
/// ?x ub:advisor ?y scan: two joins (forced order pins the leading
/// pattern) and the bare scan.
std::vector<query::Plan> SameScanPlans(const engine::ParjEngine& engine) {
  query::OptimizerOptions forced_two;
  forced_two.forced_order = {0, 1};
  query::OptimizerOptions forced_one;
  forced_one.forced_order = {0};
  std::vector<query::Plan> plans;
  for (int dept = 0; dept < 2; ++dept) {
    auto plan = engine.Explain(AdvisorQuery(dept), forced_two);
    PARJ_CHECK(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(*plan));
  }
  auto single = engine.Explain(
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }",
      forced_one);
  PARJ_CHECK(single.ok()) << single.status().ToString();
  plans.push_back(std::move(*single));
  return plans;
}

TEST(ServingCacheTest, EngineExecuteSharedMatchesSoloExecution) {
  engine::ParjEngine engine = MakeLubmEngine();
  const std::vector<query::Plan> plans = SameScanPlans(engine);
  for (int threads : {1, 4}) {
    std::vector<const query::Plan*> plan_ptrs;
    std::vector<engine::QueryOptions> options(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      plan_ptrs.push_back(&plans[i]);
      options[i].num_threads = threads;
    }
    auto shared = engine.ExecuteShared(plan_ptrs, options);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    ASSERT_EQ(shared->size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      EXPECT_TRUE((*shared)[i].shared_scan);
      auto solo = engine.ExecutePlan(plans[i], options[i]);
      ASSERT_TRUE(solo.ok());
      EXPECT_EQ(SortedRows((*shared)[i]), SortedRows(*solo))
          << "member " << i << " at " << threads << " thread(s)";
      EXPECT_EQ((*shared)[i].var_names, solo->var_names);
    }
  }
}

/// Leaves pending deletes and inserts on ub:advisor: every 7th base edge
/// is deleted, every 5th student gains a second advisor (an insert on a
/// key that has a base run), faculty members gain advisors (delta-only
/// keys between base keys), and one brand-new subject lands past the
/// last base key.
void DirtyAdvisorDelta(engine::ParjEngine* engine) {
  const std::string advisor =
      "http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor";
  // Decoded cells are N-Triples keys: "<iri>".
  const auto iri = [](const std::string& key) {
    return rdf::Term::Iri(key.substr(1, key.size() - 2));
  };
  auto edges = engine->Execute(std::string(kPrefix) +
                               "SELECT ?x ?y WHERE { ?x ub:advisor ?y }");
  PARJ_CHECK(edges.ok()) << edges.status().ToString();
  auto faculty = engine->Execute(
      std::string(kPrefix) +
      "SELECT ?p WHERE { ?p ub:worksFor <http://www.Department0."
      "University0.edu> }");
  PARJ_CHECK(faculty.ok()) << faculty.status().ToString();
  PARJ_CHECK(edges->row_count > 20 && faculty->row_count > 4);
  std::vector<mut::Mutation> batch;
  for (size_t r = 0; r < edges->row_count; ++r) {
    const std::vector<std::string> row = engine->DecodeRow(*edges, r);
    if (r % 7 == 0) {
      batch.push_back({{iri(row[0]), rdf::Term::Iri(advisor), iri(row[1])},
                       /*remove=*/true});
    } else if (r % 5 == 0) {
      const std::vector<std::string> other =
          engine->DecodeRow(*edges, (r + 1) % edges->row_count);
      batch.push_back(
          {{iri(row[0]), rdf::Term::Iri(advisor), iri(other[1])}});
    }
  }
  for (size_t r = 0; r + 1 < faculty->row_count; r += 2) {
    batch.push_back({{iri(engine->DecodeRow(*faculty, r)[0]),
                      rdf::Term::Iri(advisor),
                      iri(engine->DecodeRow(*faculty, r + 1)[0])}});
  }
  batch.push_back({{rdf::Term::Iri("http://x/late-student"),
                    rdf::Term::Iri(advisor),
                    iri(engine->DecodeRow(*faculty, 0)[0])}});
  PARJ_CHECK(engine->ApplyBatch(batch).ok());
}

// The shared pass against a solo ExecutePlan of each member, across
// static and morsel scheduling, 1/2/4/8 threads, and a clean store or one
// with pending inserts and deletes on the leading predicate. step_rows
// and SearchCounters must match exactly: both runs make the same cuts,
// and cursors reset per cut, so counters do not depend on which worker
// ran a cut. Rows match in order wherever each worker's cuts are fixed
// (static, or one thread), and as multisets under multi-thread morsels.
TEST(ServingCacheTest, SharedPassMatchesSoloAcrossSchedulingThreadsAndDelta) {
  engine::ParjEngine engine = MakeLubmEngine();
  for (const bool dirty : {false, true}) {
    if (dirty) {
      DirtyAdvisorDelta(&engine);
      const mut::MutationStats stats = engine.mutation_stats();
      ASSERT_GT(stats.delta_insert_triples, 0u);
      ASSERT_GT(stats.delta_delete_triples, 0u);
    }
    const std::vector<query::Plan> plans = SameScanPlans(engine);
    std::vector<const query::Plan*> plan_ptrs;
    for (const query::Plan& plan : plans) plan_ptrs.push_back(&plan);
    for (const join::Scheduling scheduling :
         {join::Scheduling::kStatic, join::Scheduling::kMorsel}) {
      for (const int threads : {1, 2, 4, 8}) {
        std::vector<engine::QueryOptions> options(plans.size());
        for (engine::QueryOptions& o : options) {
          o.num_threads = threads;
          o.scheduling = scheduling;
        }
        auto shared = engine.ExecuteShared(plan_ptrs, options);
        ASSERT_TRUE(shared.ok()) << shared.status().ToString();
        ASSERT_EQ(shared->size(), plans.size());
        const bool fixed_order =
            scheduling == join::Scheduling::kStatic || threads == 1;
        for (size_t i = 0; i < plans.size(); ++i) {
          SCOPED_TRACE(std::string(dirty ? "dirty" : "clean") + " " +
                       join::SchedulingName(scheduling) + " " +
                       std::to_string(threads) + "t member " +
                       std::to_string(i));
          auto solo = engine.ExecutePlan(plans[i], options[i]);
          ASSERT_TRUE(solo.ok()) << solo.status().ToString();
          const engine::QueryResult& member = (*shared)[i];
          EXPECT_EQ(member.row_count, solo->row_count);
          EXPECT_EQ(member.step_rows, solo->step_rows);
          EXPECT_EQ(member.counters.binary_searches,
                    solo->counters.binary_searches);
          EXPECT_EQ(member.counters.sequential_searches,
                    solo->counters.sequential_searches);
          EXPECT_EQ(member.counters.sequential_steps,
                    solo->counters.sequential_steps);
          EXPECT_EQ(member.counters.index_lookups,
                    solo->counters.index_lookups);
          EXPECT_EQ(member.counters.run_probes, solo->counters.run_probes);
          if (fixed_order) {
            EXPECT_EQ(member.rows, solo->rows);
          } else {
            EXPECT_EQ(SortedRows(member), SortedRows(*solo));
          }
        }
      }
    }
  }
}

TEST(ServingCacheTest, ServerCoalescesQueuedSameScanQueries) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.scheduler.max_in_flight = 1;  // force queueing behind a blocker
  options.scheduler.max_queue = 64;
  options.query_defaults.mode = join::ResultMode::kCount;
  QueryServer server(&engine, options);
  // Distinct texts, identical single-pattern leading scan — every plan
  // opens with the unbound ?x ub:advisor ?y table walk.
  const std::vector<std::string> queries = {
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }",
      std::string(kPrefix) + "SELECT ?x WHERE { ?x ub:advisor ?y }",
      std::string(kPrefix) + "SELECT ?y WHERE { ?x ub:advisor ?y }",
      std::string(kPrefix) + "SELECT DISTINCT ?y WHERE { ?x ub:advisor ?y }",
  };
  SubmitOptions submit;
  submit.use_result_cache = false;
  std::vector<uint64_t> uncached_counts;
  for (const std::string& q : queries) {
    auto r = server.Execute(q, submit);  // also warms the plan cache
    ASSERT_TRUE(r.ok());
    uncached_counts.push_back(r->row_count);
  }
  // The blocker owns the only slot while the batch queues up; when it
  // finishes, the first queued job leads a shared pass over the rest.
  SubmittedQuery blocker = server.Submit(
      std::string(kPrefix) +
          "SELECT ?x ?y ?z WHERE { ?x a ub:UndergraduateStudent . "
          "?y a ub:UndergraduateStudent . ?z a ub:UndergraduateStudent . }",
      submit);
  std::vector<SubmittedQuery> in_flight;
  for (const std::string& q : queries) {
    in_flight.push_back(server.Submit(q, submit));
  }
  blocker.Cancel();
  (void)blocker.result.get();
  for (size_t i = 0; i < in_flight.size(); ++i) {
    auto r = in_flight[i].result.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->row_count, uncached_counts[i]) << queries[i];
    EXPECT_TRUE(r->plan_cached);
  }
  server.Drain();
  const MetricsRegistry& m = server.metrics();
  EXPECT_GE(m.shared_scan_groups.load(), 1u);
  EXPECT_GE(m.shared_scan_queries_coalesced.load(), 3u);
  EXPECT_EQ(m.queries_failed.load(), 0u);
}

TEST(ServingCacheTest, SubmitOptionsOptOutsBypassCaches) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  SubmitOptions opt_out;
  opt_out.use_result_cache = false;
  opt_out.use_plan_cache = false;
  auto r = server.Execute(AdvisorQuery(), opt_out);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->result_cached);
  EXPECT_FALSE(r->plan_cached);
}

TEST(ServingCacheTest, DisabledCachesServeUncached) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.enable_plan_cache = false;
  options.result_cache_bytes = 0;
  options.enable_shared_scan = false;
  QueryServer server(&engine, options);
  EXPECT_EQ(server.plan_cache(), nullptr);
  EXPECT_EQ(server.result_cache(), nullptr);
  auto first = server.Execute(AdvisorQuery());
  auto second = server.Execute(AdvisorQuery());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cached);
  EXPECT_FALSE(second->plan_cached);
  EXPECT_EQ(SortedRows(*first), SortedRows(*second));
}

TEST(ServingCacheTest, ClearCachesDropsEverything) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  EXPECT_GT(server.plan_cache()->size(), 0u);
  EXPECT_GT(server.result_cache()->stats().entries, 0u);
  server.ClearCaches();
  EXPECT_EQ(server.plan_cache()->size(), 0u);
  EXPECT_EQ(server.result_cache()->stats().entries, 0u);
  auto r = server.Execute(AdvisorQuery());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->result_cached);
}

TEST(ServingCacheTest, ResultCacheRespectsByteBudget) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  // A budget far below one answer's size: nothing must be cached, and
  // nothing must break.
  options.result_cache_bytes = 16;
  QueryServer server(&engine, options);
  auto first = server.Execute(AdvisorQuery());
  auto second = server.Execute(AdvisorQuery());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cached);
  EXPECT_EQ(server.result_cache()->stats().entries, 0u);
}

TEST(ServingCacheTest, CacheCountersFlowIntoMetricsDump) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  const query::PlanCacheStats plans = server.plan_cache()->stats();
  const ResultCacheStats results = server.result_cache()->stats();
  EXPECT_GE(results.hits, 1u);
  EXPECT_GE(results.bytes, 1u);
  EXPECT_GE(plans.misses, 1u);
  const std::string dump = server.DumpMetrics();
  EXPECT_EQ(test::MetricValue(dump, "plan_cache_hits"),
            std::to_string(plans.hits));
  EXPECT_EQ(test::MetricValue(dump, "plan_cache_misses"),
            std::to_string(plans.misses));
  EXPECT_EQ(test::MetricValue(dump, "result_cache_hits"),
            std::to_string(results.hits));
  EXPECT_EQ(test::MetricValue(dump, "result_cache_bytes"),
            std::to_string(results.bytes));
  EXPECT_EQ(test::MetricValue(dump, "shared_scan_groups"), "0");
}

TEST(ServingCacheTest, MetricsDumpKeepsLineNamesInOrder) {
  // The line names `.metrics` prints, in order; README, DESIGN.md and
  // operators refer to them.
  const std::vector<std::string> kNames = {
      "---",
      "queries_submitted",
      "queries_admitted",
      "admission_rejected",
      "queries_completed",
      "queries_failed",
      "queries_cancelled",
      "deadlines_expired",
      "rows_returned",
      "rows_skipped_by_limit",
      "retries",
      "watchdog_kills",
      "degraded_activations",
      "degraded_rejected",
      "worker_faults",
      "snapshot_crc_verified",
      "load_total_micros",
      "load_parse_micros",
      "load_encode_micros",
      "load_build_micros",
      "load_index_micros",
      "load_calibrate_micros",
      "load_threads_used",
      "delta_triples",
      "delta_bytes",
      "compactions",
      "compaction_ms",
      "active_epochs",
      "store_bytes",
      "store_allocated_bytes",
      "store_raw_bytes",
      "wal_records",
      "wal_bytes",
      "wal_fsyncs",
      "group_commit_ms",
      "wal_group_commits",
      "wal_backlog_bytes",
      "wal_segments",
      "wal_checkpoints",
      "wal_backpressure_waits",
      "recovery_replayed",
      "recovery_truncated_bytes",
      "recovery_millis",
      "plan_cache_hits",
      "plan_cache_misses",
      "plan_cache_evictions",
      "result_cache_hits",
      "result_cache_misses",
      "result_cache_bytes",
      "shared_scan_groups",
      "shared_scan_queries_coalesced",
      "shared_scan_fallbacks",
      "queue_wait",
      "execution",
      "total",
  };
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  const std::string dump = server.DumpMetrics();
  std::vector<std::string> names;
  for (auto& [name, value] : test::MetricLines(dump)) names.push_back(name);
  size_t next = 0;
  for (const std::string& name : names) {
    if (next < kNames.size() && name == kNames[next]) ++next;
  }
  ASSERT_EQ(next, kNames.size())
      << "missing or out of order: " << kNames[next] << "\n" << dump;
  // The load gauges come from the engine, so every server shows them.
  EXPECT_GT(std::stoull(test::MetricValue(dump, "load_total_micros")), 0u);
  EXPECT_EQ(test::MetricValue(dump, "load_threads_used"),
            std::to_string(engine.load_stats().threads));
}

}  // namespace
}  // namespace parj::server
