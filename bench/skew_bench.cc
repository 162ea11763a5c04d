// Skewed-data scheduling harness (not a paper table — the paper's
// datasets are benign; this measures the morsel-driven scheduler added on
// top of §5's static sharding).
//
// Generates a two-predicate graph whose first join table is Zipf-skewed:
// subject i (encoded in rank order, so hot subjects are contiguous at the
// low end of the S-O key array, like frequency-ordered dictionary ids in
// real stores) owns ~T/(i+1)/H(K) objects, each of which has exactly one
// <q> partner. Static equal-count sharding puts nearly the whole first
// table's mass into shard 0; cost-balanced morsels split it evenly.
//
// For every thread count the bench runs the same join under kStatic and
// kMorsel with the repo's emulated-parallel straggler model (max of
// per-worker time — the same methodology every paper figure uses, so the
// numbers are meaningful on any host, including single-core CI), verifies
// that both schedulers return byte-identical sorted rows, and reports
// wall model, speedup, and per-worker morsel/steal/tuple tallies.
// Finishes by writing machine-readable BENCH_skew.json.
//
// Environment overrides: PARJ_SKEW_KEYS (default 100000),
// PARJ_SKEW_TRIPLES (default 1000000), PARJ_BENCH_REPEATS (default 3),
// PARJ_BENCH_JSON_DIR (default: the build directory).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/data.h"

namespace parj::bench {
namespace {

workload::GeneratedData GenerateSkewGraph(size_t keys, size_t triples) {
  workload::GeneratedData data;
  const PredicateId p = data.dict.EncodePredicate(rdf::Term::Iri("p"));
  const PredicateId q = data.dict.EncodePredicate(rdf::Term::Iri("q"));

  // Zipf(1) run lengths over `keys` subjects, scaled to ~`triples` pairs.
  double harmonic = 0.0;
  for (size_t i = 0; i < keys; ++i) harmonic += 1.0 / static_cast<double>(i + 1);
  std::vector<size_t> run(keys);
  size_t max_run = 1;
  for (size_t i = 0; i < keys; ++i) {
    run[i] = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(triples) /
                               (static_cast<double>(i + 1) * harmonic)));
    max_run = std::max(max_run, run[i]);
  }

  // Distinct objects: enough that no subject's run wraps (keeps every
  // (s, o) pair unique so nothing collapses in the triple-set dedup).
  const size_t num_objects = max_run;
  std::vector<TermId> object_ids(num_objects);
  std::vector<TermId> subject_ids(keys);
  // Encode subjects first, in rank order: hot subjects get the lowest
  // TermIds and therefore sit contiguously at the front of the S-O keys.
  for (size_t i = 0; i < keys; ++i) {
    subject_ids[i] =
        data.dict.EncodeResource(rdf::Term::Iri("s" + std::to_string(i)));
  }
  for (size_t j = 0; j < num_objects; ++j) {
    object_ids[j] =
        data.dict.EncodeResource(rdf::Term::Iri("v" + std::to_string(j)));
  }
  for (size_t i = 0; i < keys; ++i) {
    for (size_t j = 0; j < run[i]; ++j) {
      EncodedTriple t;
      t.subject = subject_ids[i];
      t.predicate = p;
      // Stride so consecutive tuples of a hot subject probe scattered <q>
      // keys (the realistic, cache-unfriendly case).
      t.object = object_ids[(i * 17 + j) % num_objects];
      data.triples.push_back(t);
    }
  }
  // Every object has exactly one <q> partner: downstream pipeline work is
  // proportional to first-table run length.
  for (size_t j = 0; j < num_objects; ++j) {
    EncodedTriple t;
    t.subject = object_ids[j];
    t.predicate = q;
    t.object =
        data.dict.EncodeResource(rdf::Term::Iri("t" + std::to_string(j % 17)));
    data.triples.push_back(t);
  }
  return data;
}

struct Level {
  int threads = 0;
  double static_millis = 0.0;
  double morsel_millis = 0.0;
  uint64_t rows = 0;
  uint64_t morsels = 0;
  uint64_t stolen = 0;
  double static_max_shard = 0.0;
  double morsel_max_shard = 0.0;
  std::vector<uint64_t> worker_items;
};

int Main() {
  const size_t keys = static_cast<size_t>(EnvInt("PARJ_SKEW_KEYS", 100000));
  const size_t triples =
      static_cast<size_t>(EnvInt("PARJ_SKEW_TRIPLES", 1000000));
  const int repeats = BenchRepeats();
  PrintHeader("Skewed-data scheduling (static shards vs morsel stealing)",
              std::to_string(keys) + " Zipf(1) subjects, ~" +
                  std::to_string(triples) + " first-table triples, " +
                  std::to_string(repeats) +
                  " repeats, straggler model (max worker time)");

  engine::ParjEngine engine =
      BuildEngine(GenerateSkewGraph(keys, triples));
  const std::string sparql =
      "SELECT ?a ?b ?c WHERE { ?a <p> ?b . ?b <q> ?c }";

  engine::QueryOptions base;
  base.mode = join::ResultMode::kCount;
  base.emulate_parallel = true;
  // Pin the plan to scan the skewed table first; this bench measures
  // scheduling, not join ordering.
  base.optimizer.forced_order = {0, 1};

  auto run_once = [&](int threads, join::Scheduling scheduling) {
    engine::QueryOptions opts = base;
    opts.num_threads = threads;
    opts.scheduling = scheduling;
    auto result = engine.Execute(sparql, opts);
    PARJ_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  // Correctness gate: both schedulers must materialize the identical
  // sorted row set (checked at 8 threads, the acceptance configuration).
  {
    engine::QueryOptions mat = base;
    mat.mode = join::ResultMode::kMaterialize;
    mat.num_threads = 8;
    mat.emulate_parallel = false;  // real pool workers, real stealing
    mat.scheduling = join::Scheduling::kStatic;
    auto rs = engine.Execute(sparql, mat);
    PARJ_CHECK(rs.ok()) << rs.status().ToString();
    mat.scheduling = join::Scheduling::kMorsel;
    auto rm = engine.Execute(sparql, mat);
    PARJ_CHECK(rm.ok()) << rm.status().ToString();
    PARJ_CHECK(rs->row_count == rm->row_count);
    auto sorted = [](const std::vector<TermId>& flat, size_t width) {
      std::vector<std::vector<TermId>> rows;
      for (size_t i = 0; i + width <= flat.size(); i += width) {
        rows.emplace_back(flat.begin() + i, flat.begin() + i + width);
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    PARJ_CHECK(sorted(rs->rows, rs->column_count) ==
               sorted(rm->rows, rm->column_count))
        << "schedulers disagree on the result set";
    std::printf("rows verified: static == morsel == %llu rows (8 threads, "
                "real stealing)\n\n",
                static_cast<unsigned long long>(rs->row_count));
  }

  std::vector<Level> levels;
  uint64_t reference_rows = 0;
  for (int threads : {1, 4, 8, 16}) {
    Level level;
    level.threads = threads;
    for (int r = 0; r < repeats; ++r) {
      auto rs = run_once(threads, join::Scheduling::kStatic);
      auto rm = run_once(threads, join::Scheduling::kMorsel);
      PARJ_CHECK(rs.row_count == rm.row_count)
          << "row_count diverged at " << threads << " threads";
      if (reference_rows == 0) reference_rows = rs.row_count;
      PARJ_CHECK(rs.row_count == reference_rows);
      level.static_millis += rs.emulated_total_millis();
      level.morsel_millis += rm.emulated_total_millis();
      level.rows = rm.row_count;
      level.static_max_shard += *std::max_element(rs.shard_millis.begin(),
                                                  rs.shard_millis.end());
      if (!rm.shard_millis.empty()) {
        level.morsel_max_shard += *std::max_element(rm.shard_millis.begin(),
                                                    rm.shard_millis.end());
      }
      level.morsels = 0;
      level.stolen = 0;
      level.worker_items.clear();
      for (const join::MorselWorkerStats& w : rm.morsel_workers) {
        level.morsels += w.morsels;
        level.stolen += w.stolen;
        level.worker_items.push_back(w.items);
      }
    }
    level.static_millis /= repeats;
    level.morsel_millis /= repeats;
    level.static_max_shard /= repeats;
    level.morsel_max_shard /= repeats;
    levels.push_back(std::move(level));
  }

  TablePrinter table({"threads", "static ms", "morsel ms", "speedup",
                      "static max-shard", "morsel max-shard", "morsels",
                      "stolen", "worker items min/max"});
  char buf[96];
  for (const Level& level : levels) {
    std::vector<std::string> row;
    row.push_back(std::to_string(level.threads));
    std::snprintf(buf, sizeof(buf), "%.2f", level.static_millis);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", level.morsel_millis);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2fx",
                  level.morsel_millis > 0
                      ? level.static_millis / level.morsel_millis
                      : 0.0);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", level.static_max_shard);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", level.morsel_max_shard);
    row.push_back(buf);
    row.push_back(std::to_string(level.morsels));
    row.push_back(std::to_string(level.stolen));
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (!level.worker_items.empty()) {
      lo = *std::min_element(level.worker_items.begin(),
                             level.worker_items.end());
      hi = *std::max_element(level.worker_items.begin(),
                             level.worker_items.end());
    }
    std::snprintf(buf, sizeof(buf), "%llu/%llu",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  table.Print();

  std::string json = "{\n  \"bench\": \"skew\",\n";
  json += "  \"keys\": " + std::to_string(keys) + ",\n";
  json += "  \"triples\": " + std::to_string(triples) + ",\n";
  json += "  \"rows\": " + std::to_string(reference_rows) + ",\n";
  json += "  \"levels\": [\n";
  for (size_t i = 0; i < levels.size(); ++i) {
    const Level& level = levels[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"static_millis\": %.3f, "
                  "\"morsel_millis\": %.3f, ",
                  level.threads, level.static_millis, level.morsel_millis);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"speedup\": %.3f, \"morsels\": %llu, \"stolen\": %llu, "
                  "\"worker_items\": [",
                  level.morsel_millis > 0
                      ? level.static_millis / level.morsel_millis
                      : 0.0,
                  static_cast<unsigned long long>(level.morsels),
                  static_cast<unsigned long long>(level.stolen));
    json += buf;
    for (size_t w = 0; w < level.worker_items.size(); ++w) {
      if (w != 0) json += ", ";
      json += std::to_string(level.worker_items[w]);
    }
    json += "]}";
    json += (i + 1 < levels.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  WriteBenchJson("BENCH_skew.json", json);
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Main(); }
