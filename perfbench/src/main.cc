// PARJ end-to-end benchmark: one process runs one workload from a seed.
//
//   parj_perfbench --workload lubm-analytic|watdiv-ingest
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//
// It generates the workload's data and, from the seed, its request stream,
// loads PARJ from N-Triples text, drives it only through public calls
// (ParjEngine, QueryServer, Compactor), checks every answer against a
// serial reference, and prints one JSON report as its last stdout line.
// With --trace 0 the report carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around its calls into each layer, plus the tracing
// overhead. Spans are written to DIR/spans.jsonl at exit.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/simd.h"
#include "dict/sharded_encoder.h"
#include "engine/parj_engine.h"
#include "mutable/compactor.h"
#include "query/parser.h"
#include "rdf/ntriples.h"
#include "report.h"
#include "server/server.h"
#include "server/thread_pool.h"
#include "stats.h"
#include "storage/database.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using parj::Status;
using parj::StatusCode;
using parj::engine::ParjEngine;
using parj::engine::QueryResult;
using parj::server::QueryServer;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

int ProcessorCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Process high-water RSS (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Waits for `due` without letting the CPU go idle: a halted vCPU can take
/// milliseconds to be rescheduled by the host, which would land on the
/// next request as generator lateness. Yielding lets every runnable
/// thread go first.
void WaitUntil(Clock::time_point due) {
  while (Clock::now() < due) sched_yield();
}

// ---- Workload definitions ------------------------------------------------

/// Everything that differs between workloads. Sizes and rates are fixed
/// constants (sized on a 4-core host), never derived from a measurement,
/// so two commits always face the same offered load.
struct WorkloadConfig {
  std::string name;
  int scale = 0;             ///< universities (LUBM) or WatDiv scale
  int population = 0;        ///< WatDiv: Zipf ranks
  double read_rate = 0.0;    ///< open loop: offered reads per second
  double p99_limit_ms = 0.0; ///< fixed read latency limit
  int query_threads = 1;     ///< intra-query threads per read
  bool use_result_cache = true;
  /// WatDiv reads in an open loop beside a writer; otherwise LUBM reads
  /// from one closed-loop client.
  bool ingest = false;
  double write_rate = 0.0;   ///< batches per second
  size_t batch_size = 0;     ///< mutations per batch
  uint64_t compact_threshold = 0;  ///< pending delta triples
};

constexpr double kWarmupSeconds = 2.0;

WorkloadConfig ConfigFor(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "lubm-analytic") {
    // Join-heavy analytics: one closed-loop client, 4 intra-query
    // threads, fresh answers (no result cache).
    c.scale = 8;
    c.p99_limit_ms = 250.0;
    c.query_threads = 4;
    c.use_result_cache = false;
  } else if (name == "watdiv-ingest") {
    // WatDiv reads (Zipf(1) over instantiated S1/F2/F5/C2 templates,
    // every serving cache on) at a fixed open-loop rate beside a
    // WAL-backed writer and a compactor that runs several times per run.
    // Each of these templates takes a few hundred microseconds or more;
    // beside the cheap templates (L*, S7: ~40 us) the median read would
    // fall between two clusters of reads and jump from run to run.
    c.scale = 10;
    c.population = 3400;
    c.read_rate = 300.0;
    c.p99_limit_ms = 100.0;
    c.ingest = true;
    c.write_rate = 50.0;
    c.batch_size = 32;
    c.compact_threshold = 3000;
  } else {
    Die("unknown workload '" + name + "'");
  }
  return c;
}

// ---- Answers -------------------------------------------------------------

/// Row count plus an order-independent hash of the decoded rows: the sum
/// of a per-row hash over the rows' N-Triples cells, so it can be compared
/// across engines whose TermIds differ.
struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;
  friend bool operator==(const Answer&, const Answer&) = default;
};

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RowHash(const std::vector<std::string>& cells) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& cell : cells) {
    for (const char c : cell) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    h = (h ^ 0x1f) * 0x100000001b3ULL;
  }
  return Mix64(h);
}

/// Decodes every row of `result` (the user-visible work of a read).
Answer DecodeAll(const ParjEngine& engine, const QueryResult& result) {
  Answer answer;
  answer.rows = result.row_count;
  for (size_t row = 0; row < result.row_count; ++row) {
    answer.hash += RowHash(engine.DecodeRow(result, row));
  }
  return answer;
}

/// The serial reference: one thread, no server.
Answer SerialAnswer(const ParjEngine& engine, const std::string& sparql) {
  parj::engine::QueryOptions options;
  options.num_threads = 1;
  auto result = engine.Execute(sparql, options);
  if (!result.ok()) {
    Die("reference query failed: " + result.status().ToString() + "\n" +
        sparql);
  }
  return DecodeAll(engine, *result);
}

// ---- Host record ---------------------------------------------------------

struct HostRecord {
  int nproc = 1;
  std::string simd;
  double spin_1 = 0.0;  ///< iterations/s, one spinning thread
  double spin_4 = 0.0;  ///< iterations/s summed over 4 spinning threads
  double capacity() const { return spin_1 > 0 ? spin_4 / spin_1 : 0.0; }
};

/// Iterations per second summed over `threads` threads spinning for
/// `millis` each.
double SpinRate(int threads, double millis) {
  std::vector<double> rates(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&rates, t, millis] {
      uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t);
      uint64_t iterations = 0;
      const Clock::time_point start = Clock::now();
      double elapsed = 0.0;
      while (elapsed < millis) {
        for (int i = 0; i < 4096; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        iterations += 4096;
        elapsed = MillisSince(start);
      }
      rates[static_cast<size_t>(t)] =
          static_cast<double>(iterations + (x & 1)) / (elapsed / 1e3);
    });
  }
  for (std::thread& thread : pool) thread.join();
  double sum = 0.0;
  for (double rate : rates) sum += rate;
  return sum;
}

/// Restricts the process to the highest-numbered CPU it may use and
/// returns that CPU (-1 when the affinity call fails).
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

HostRecord ProbeHost() {
  HostRecord host;
  host.nproc = ProcessorCount();
  host.simd = parj::simd::LevelName(parj::simd::ActiveLevel());
  host.spin_1 = SpinRate(1, 150.0);
  host.spin_4 = SpinRate(4, 150.0);
  return host;
}

// ---- Read path -----------------------------------------------------------

/// Raw per-read samples and outcome counts of one phase.
struct ReadStats {
  std::vector<double> latency_ms;  ///< due -> last row decoded
  std::vector<double> submit_us;   ///< time inside Submit
  std::vector<double> decode_ms;   ///< the DecodeRow loop
  std::vector<double> hit_ms;      ///< latency of result-cache hits
  std::vector<double> miss_ms;     ///< latency of everything else
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;      ///< admission (ResourceExhausted)
  uint64_t deadline = 0;      ///< DeadlineExceeded
  uint64_t errors = 0;        ///< any other failed status
  uint64_t mismatches = 0;    ///< wrong row count or row hash
  uint64_t met_limit = 0;     ///< ok and within the p99 limit
  uint64_t plan_cached = 0;
  uint64_t result_cached = 0;
  uint64_t shared_scan = 0;
  double elapsed_s = 0.0;
  // Open-loop health.
  std::vector<double> gen_late_ms;
  double backlog_growth = 0.0;  ///< in-flight reads, last quarter - first
  uint64_t max_in_flight = 0;
  std::map<std::string, std::vector<double>> by_template;  ///< latency_ms

  uint64_t failed() const { return rejected + deadline + errors + mismatches; }
};

/// A read observed at a data version no reference exists for; checked
/// after the run against its peers and the final answers.
struct VersionedRead {
  uint32_t query = 0;
  uint64_t version = 0;
  Answer answer;
};

/// Shared state of a serving run.
struct Context {
  const WorkloadConfig* config = nullptr;
  ParjEngine* engine = nullptr;
  QueryServer* server = nullptr;
  const Population* population = nullptr;
  std::vector<Answer> reference;      ///< per population index
  uint64_t reference_version = 0;     ///< data version the references hold for
  std::vector<uint32_t> stream;       ///< population indices, in request order
  std::atomic<uint64_t> next_request{0};
  std::mutex versioned_mu;
  std::vector<VersionedRead> versioned;  ///< guarded by versioned_mu
  std::set<uint32_t> requested;          ///< guarded by versioned_mu
};

struct InFlight {
  uint32_t query = 0;
  Clock::time_point due;
  parj::server::SubmittedQuery submitted;
  uint64_t request = 0;
  uint64_t root_span = 0;
  uint64_t wait_span = 0;
};

parj::server::SubmitOptions ReadOptions(const WorkloadConfig& config) {
  parj::server::SubmitOptions options;
  options.timeout_millis = 2000.0;
  options.use_result_cache = config.use_result_cache;
  if (config.query_threads != 1) {
    parj::engine::QueryOptions query;
    query.num_threads = config.query_threads;
    options.query = query;
  }
  return options;
}

InFlight SubmitRead(Context& ctx, Tracer& tracer, Clock::time_point due,
                    ReadStats& stats) {
  InFlight f;
  const uint64_t n = ctx.next_request.fetch_add(1, std::memory_order_relaxed);
  f.query = ctx.stream[n % ctx.stream.size()];
  f.due = due;
  f.request = tracer.NewRequest();
  f.root_span = tracer.Begin("bench.read", 0, f.request);
  const uint64_t submit_span = tracer.Begin("server.submit", f.root_span,
                                            f.request);
  const Clock::time_point start = Clock::now();
  f.submitted = ctx.server->Submit(ctx.population->sparql[f.query],
                                   ReadOptions(*ctx.config));
  stats.submit_us.push_back(MillisSince(start) * 1e3);
  tracer.End(submit_span);
  f.wait_span = tracer.Begin("server.wait", f.root_span, f.request);
  return f;
}

void CollectRead(Context& ctx, Tracer& tracer, InFlight& f, ReadStats& stats) {
  ++stats.attempted;
  auto result = f.submitted.result.get();
  tracer.End(f.wait_span);
  if (!result.ok()) {
    tracer.End(f.root_span);
    switch (result.status().code()) {
      case StatusCode::kResourceExhausted:
        ++stats.rejected;
        break;
      case StatusCode::kDeadlineExceeded:
        ++stats.deadline;
        break;
      default:
        ++stats.errors;
        std::fprintf(stderr, "perfbench: read failed: %s\n",
                     result.status().ToString().c_str());
    }
    return;
  }
  const uint64_t decode_span =
      tracer.Begin("engine.decode", f.root_span, f.request);
  const Clock::time_point decode_start = Clock::now();
  const Answer answer = DecodeAll(*ctx.engine, *result);
  stats.decode_ms.push_back(MillisSince(decode_start));
  tracer.End(decode_span, answer.rows);
  const double latency = MillisSince(f.due);
  tracer.End(f.root_span, answer.rows);

  ++stats.ok;
  stats.latency_ms.push_back(latency);
  stats.by_template[ctx.population->template_name[f.query]].push_back(latency);
  if (latency <= ctx.config->p99_limit_ms) ++stats.met_limit;
  if (result->plan_cached) ++stats.plan_cached;
  if (result->shared_scan) ++stats.shared_scan;
  if (result->result_cached) {
    ++stats.result_cached;
    stats.hit_ms.push_back(latency);
  } else {
    stats.miss_ms.push_back(latency);
  }
  if (result->data_version == ctx.reference_version) {
    if (!(answer == ctx.reference[f.query])) {
      ++stats.mismatches;
      std::fprintf(stderr, "perfbench: answer mismatch for query %u (%s)\n",
                   f.query, ctx.population->template_name[f.query].c_str());
    }
  } else {
    std::lock_guard<std::mutex> lock(ctx.versioned_mu);
    ctx.versioned.push_back({f.query, result->data_version, answer});
  }
  std::lock_guard<std::mutex> lock(ctx.versioned_mu);
  ctx.requested.insert(f.query);
}

/// One client that sends its next read when the previous one is decoded.
ReadStats RunClosedLoop(Context& ctx, Tracer& tracer, double seconds) {
  ReadStats stats;
  const Clock::time_point start = Clock::now();
  while (MillisSince(start) < seconds * 1e3) {
    InFlight f = SubmitRead(ctx, tracer, Clock::now(), stats);
    CollectRead(ctx, tracer, f, stats);
  }
  stats.elapsed_s = MillisSince(start) / 1e3;
  return stats;
}

/// One generator thread sends reads on a fixed schedule; one collector
/// thread waits for them in order and decodes. Latency counts from when
/// each read was due.
ReadStats RunOpenLoop(Context& ctx, Tracer& tracer, double rate,
                      double seconds) {
  ReadStats stats;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;  // guarded by mu
  bool done = false;           // guarded by mu
  std::atomic<uint64_t> completed{0};
  std::vector<std::pair<double, uint64_t>> in_flight;  // (t, reads in flight)
  ReadStats submit_side;

  const Clock::time_point start = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const uint64_t total = static_cast<uint64_t>(rate * seconds);

  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      CollectRead(ctx, tracer, f, stats);
      completed.fetch_add(1, std::memory_order_release);
    }
  });

  for (uint64_t i = 0; i < total; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * i);
    WaitUntil(due);
    submit_side.gen_late_ms.push_back(MillisSince(due));
    InFlight f = SubmitRead(ctx, tracer, due, submit_side);
    const uint64_t outstanding =
        i + 1 - completed.load(std::memory_order_acquire);
    in_flight.emplace_back(MillisSince(start), outstanding);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(f));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();

  stats.elapsed_s = MillisSince(start) / 1e3;
  stats.submit_us = std::move(submit_side.submit_us);
  stats.gen_late_ms = std::move(submit_side.gen_late_ms);
  if (!in_flight.empty()) {
    const size_t quarter = std::max<size_t>(1, in_flight.size() / 4);
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < quarter; ++i) {
      first += static_cast<double>(in_flight[i].second);
      last += static_cast<double>(in_flight[in_flight.size() - 1 - i].second);
    }
    stats.backlog_growth = (last - first) / static_cast<double>(quarter);
    for (const auto& sample : in_flight) {
      stats.max_in_flight = std::max(stats.max_in_flight, sample.second);
    }
  }
  return stats;
}

/// A generator fell behind when it sent its reads more than 1 ms late on
/// average or the reads in flight grew by more than 8 over the phase.
/// Short stalls (a compaction, a host hiccup) show in gen_late_ms, not
/// here.
bool FellBehind(const ReadStats& stats) {
  double late = 0.0;
  for (double ms : stats.gen_late_ms) late += ms;
  const double mean = stats.gen_late_ms.empty()
                          ? 0.0
                          : late / static_cast<double>(stats.gen_late_ms.size());
  return mean > 1.0 || stats.backlog_growth > 8.0;
}

// ---- Write path ----------------------------------------------------------

struct WriteStats {
  std::vector<double> ack_ms;    ///< due -> ApplyBatch returned
  std::vector<double> apply_ms;  ///< time inside ApplyBatch
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mutations = 0;
  uint64_t user_bytes = 0;       ///< N-Triples bytes of the mutations
  uint64_t delta_peak = 0;
  std::vector<double> gen_late_ms;
};

/// Applies batches from `activity` on a fixed schedule until `seconds`
/// pass, triggering compaction the way a serving engine would. Applied
/// mutations are appended to `applied` in order.
void RunWriter(ParjEngine& engine, parj::mut::Compactor& compactor,
               ActivityStream& activity, const WorkloadConfig& config,
               double seconds, Tracer& tracer, WriteStats& stats,
               std::vector<parj::mut::Mutation>& applied) {
  const Clock::time_point start = Clock::now();
  const auto period = std::chrono::duration<double>(1.0 / config.write_rate);
  const uint64_t total = static_cast<uint64_t>(config.write_rate * seconds);
  for (uint64_t i = 0; i < total; ++i) {
    std::vector<parj::mut::Mutation> batch =
        activity.NextBatch(config.batch_size);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * i);
    WaitUntil(due);
    stats.gen_late_ms.push_back(MillisSince(due));
    const uint64_t request = tracer.NewRequest();
    const uint64_t root = tracer.Begin("bench.write", 0, request);
    const uint64_t apply_span = tracer.Begin("mutable.apply", root, request);
    const Clock::time_point apply_start = Clock::now();
    const Status status = engine.ApplyBatch(batch);
    stats.apply_ms.push_back(MillisSince(apply_start));
    tracer.End(apply_span, batch.size());
    stats.ack_ms.push_back(MillisSince(due));
    tracer.End(root, batch.size());
    ++stats.attempted;
    if (!status.ok()) {
      ++stats.failed;
      std::fprintf(stderr, "perfbench: write failed: %s\n",
                   status.ToString().c_str());
      continue;
    }
    compactor.MaybeTrigger();
    const parj::mut::MutationStats ms = engine.mutation_stats();
    stats.delta_peak = std::max(stats.delta_peak, ms.delta_insert_triples +
                                                      ms.delta_delete_triples);
    for (parj::mut::Mutation& m : batch) {
      stats.user_bytes += TripleKey(m.triple).size() + 1;
      ++stats.mutations;
      applied.push_back(std::move(m));
    }
  }
}

// ---- Setup ---------------------------------------------------------------

parj::engine::EngineOptions LoadOptions(int nproc) {
  parj::engine::EngineOptions options;
  options.load.threads = nproc;
  options.calibrate = true;
  return options;
}

parj::mut::WalOptions WalOptionsFor(const std::string& dir) {
  parj::mut::WalOptions wal;
  wal.dir = dir;
  wal.sync = parj::mut::WalSync::kBatch;
  return wal;
}

struct Serving {
  std::unique_ptr<ParjEngine> engine;
  std::unique_ptr<QueryServer> server;
};

/// N-Triples text in memory -> calibrated engine (+ WAL) -> ready server.
Serving SetUp(const std::string& text, int nproc, const std::string& wal_dir) {
  Serving s;
  auto loaded = ParjEngine::FromNTriplesText(text, LoadOptions(nproc));
  if (!loaded.ok()) Die("load failed: " + loaded.status().ToString());
  s.engine = std::make_unique<ParjEngine>(std::move(loaded).value());
  if (!wal_dir.empty()) {
    const Status enabled = s.engine->EnableWal(WalOptionsFor(wal_dir));
    if (!enabled.ok()) Die("EnableWal failed: " + enabled.ToString());
  }
  s.server = std::make_unique<QueryServer>(s.engine.get());
  return s;
}

/// The load pipeline run stage by stage through each layer's public call,
/// with one span per stage, to split setup time by layer.
struct LayeredLoad {
  double parse_ms = 0.0;
  double encode_ms = 0.0;
  double build_ms = 0.0;   ///< group + tables
  double index_ms = 0.0;   ///< histograms, indexes, pair stats, char sets
  double calibrate_ms = 0.0;
  uint64_t triples = 0;
};

LayeredLoad RunLayeredLoad(const std::string& text, int nproc,
                           Tracer& tracer) {
  LayeredLoad out;
  parj::server::ThreadPool pool(nproc);
  const uint64_t request = tracer.NewRequest();
  ScopedSpan root(tracer, "bench.setup", 0, request);

  Clock::time_point t = Clock::now();
  std::vector<parj::rdf::ParsedChunk> chunks;
  {
    ScopedSpan span(tracer, "rdf.parse", root.id(), request);
    parj::rdf::ParallelParseOptions options;
    options.pool = &pool;
    auto parsed = parj::rdf::ParseTextParallel(text, options);
    if (!parsed.ok()) Die("parse failed: " + parsed.status().ToString());
    chunks = std::move(parsed).value();
    span.set_count(chunks.size());
  }
  out.parse_ms = MillisSince(t);

  t = Clock::now();
  parj::dict::Dictionary dict;
  std::vector<parj::EncodedTriple> encoded;
  {
    ScopedSpan span(tracer, "dict.encode", root.id(), request);
    std::vector<parj::dict::EncodedChunk> parts(chunks.size());
    pool.ParallelFor(chunks.size(), [&](size_t i) {
      parts[i] = parj::dict::EncodeChunk(dict, chunks[i].triples);
    });
    auto merged = parj::dict::MergeEncodedChunks(&dict, std::move(parts), &pool);
    if (!merged.ok()) Die("encode failed: " + merged.status().ToString());
    encoded = std::move(merged).value();
    span.set_count(encoded.size());
  }
  out.encode_ms = MillisSince(t);
  out.triples = encoded.size();
  chunks.clear();

  parj::storage::BuildTimings timings;
  parj::storage::DatabaseOptions db_options;
  db_options.build_threads = nproc;
  std::optional<parj::storage::Database> db;
  {
    ScopedSpan span(tracer, "storage.build", root.id(), request);
    auto built = parj::storage::Database::Build(std::move(dict),
                                                std::move(encoded), db_options,
                                                &timings);
    if (!built.ok()) Die("build failed: " + built.status().ToString());
    db.emplace(std::move(built).value());
    span.set_count(out.triples);
  }
  out.build_ms = timings.group_millis + timings.tables_millis;
  out.index_ms =
      timings.meta_millis + timings.pair_stats_millis + timings.char_sets_millis;

  t = Clock::now();
  {
    ScopedSpan span(tracer, "join.calibrate", root.id(), request);
    parj::join::CalibrationOptions calibration;
    calibration.threads = nproc;
    db->Calibrate(calibration);
  }
  out.calibrate_ms = MillisSince(t);
  return out;
}

// ---- Layer probes (traced run) -------------------------------------------

struct ProbeStats {
  std::vector<double> parse_ms, optimize_ms, exec_ms, decode_ms;
  double exec1_ms = 0.0, exec4_ms = 0.0;         ///< wall, summed
  double serial_engine_ms = 0.0, emulated_ms = 0.0;  ///< engine timers, summed
  parj::join::SearchCounters counters;
  uint64_t probes = 0;
  uint64_t mismatches = 0;
  uint64_t morsels = 0, stolen = 0;
  std::vector<double> imbalance;
  double log_qerror_sum = 0.0;
  uint64_t qerror_steps = 0;
  double qerror_max = 0.0;
};

parj::engine::QueryOptions ExecOptions(int threads, bool emulate) {
  parj::engine::QueryOptions options;
  options.num_threads = threads;
  options.emulate_parallel = emulate;
  return options;
}

/// Calls the query and join layers directly on the same request stream:
/// ParseQuery, Explain, ExecutePlan at the workload's thread count, at 1
/// and 4 threads, and under the emulated-parallel model, then DecodeRow.
ProbeStats RunProbes(Context& ctx, Tracer& tracer, double seconds,
                     bool check_answers) {
  ProbeStats p;
  const ParjEngine& engine = *ctx.engine;
  const Clock::time_point start = Clock::now();
  for (uint64_t n = 0; MillisSince(start) < seconds * 1e3; ++n) {
    const uint32_t q = ctx.stream[n % ctx.stream.size()];
    const std::string& sparql = ctx.population->sparql[q];
    const uint64_t request = tracer.NewRequest();
    ScopedSpan root(tracer, "bench.probe", 0, request);

    Clock::time_point t = Clock::now();
    {
      ScopedSpan span(tracer, "query.parse", root.id(), request);
      auto ast = parj::query::ParseQuery(sparql);
      if (!ast.ok()) Die("parse failed: " + ast.status().ToString());
    }
    const double parse_ms = MillisSince(t);

    t = Clock::now();
    std::optional<parj::query::Plan> plan;
    {
      ScopedSpan span(tracer, "query.explain", root.id(), request);
      auto explained = engine.Explain(sparql);
      if (!explained.ok()) Die("explain failed: " + explained.status().ToString());
      plan.emplace(std::move(explained).value());
    }
    const double explain_ms = MillisSince(t);

    const auto exec = [&](const char* name, int threads, bool emulate,
                          double* wall_ms) {
      ScopedSpan span(tracer, name, root.id(), request);
      const Clock::time_point begin = Clock::now();
      auto result = engine.ExecutePlan(*plan, ExecOptions(threads, emulate));
      if (!result.ok()) Die("execute failed: " + result.status().ToString());
      *wall_ms = MillisSince(begin);
      span.set_count(result->row_count);
      return std::move(result).value();
    };
    double exec_ms = 0.0, wall1 = 0.0, wall4 = 0.0, wall_emulated = 0.0;
    const QueryResult main =
        exec("join.execute", ctx.config->query_threads, false, &exec_ms);
    const QueryResult serial = exec("join.execute_1t", 1, false, &wall1);
    const QueryResult parallel = exec("join.execute_4t", 4, false, &wall4);
    const QueryResult emulated =
        exec("join.execute_emulated", 4, true, &wall_emulated);

    t = Clock::now();
    Answer answer;
    {
      ScopedSpan span(tracer, "engine.decode", root.id(), request);
      answer = DecodeAll(engine, main);
      span.set_count(answer.rows);
    }
    p.decode_ms.push_back(MillisSince(t));
    if (check_answers && !(answer == ctx.reference[q])) ++p.mismatches;

    ++p.probes;
    p.parse_ms.push_back(parse_ms);
    p.optimize_ms.push_back(std::max(0.0, explain_ms - parse_ms));
    p.exec_ms.push_back(exec_ms);
    p.exec1_ms += wall1;
    p.exec4_ms += wall4;
    p.serial_engine_ms += serial.execute_millis;
    p.emulated_ms += emulated.emulated_parallel_millis;
    p.counters.Add(main.counters);

    uint64_t max_items = 0, sum_items = 0;
    for (const auto& w : parallel.morsel_workers) {
      p.morsels += w.morsels;
      p.stolen += w.stolen;
      max_items = std::max(max_items, w.items);
      sum_items += w.items;
    }
    if (parallel.morsel_workers.size() > 1 && sum_items > 0) {
      const double mean = static_cast<double>(sum_items) /
                          static_cast<double>(parallel.morsel_workers.size());
      p.imbalance.push_back(static_cast<double>(max_items) / mean);
    }
    const size_t steps = std::min(plan->steps.size(), main.step_rows.size());
    for (size_t s = 0; s < steps; ++s) {
      const double estimated = std::max(1.0, plan->steps[s].estimated_rows);
      const double actual = std::max(1.0, static_cast<double>(main.step_rows[s]));
      const double qerror = std::max(estimated / actual, actual / estimated);
      p.log_qerror_sum += std::log(qerror);
      ++p.qerror_steps;
      p.qerror_max = std::max(p.qerror_max, qerror);
    }
  }
  return p;
}

// ---- Report helpers ------------------------------------------------------

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

JsonObject ReadStatsJson(const ReadStats& s, const WorkloadConfig& config) {
  JsonObject out;
  out.Add("latency", SummaryJson(Summarize(s.latency_ms), "ms"))
      .Add("submit", SummaryJson(Summarize(s.submit_us), "us"))
      .Add("decode", SummaryJson(Summarize(s.decode_ms), "ms"))
      .Add("result_cache_hits", SummaryJson(Summarize(s.hit_ms), "ms"))
      .Add("result_cache_misses", SummaryJson(Summarize(s.miss_ms), "ms"))
      .Add("attempted", s.attempted)
      .Add("ok", s.ok)
      .Add("rejected", s.rejected)
      .Add("deadline_missed", s.deadline)
      .Add("errors", s.errors)
      .Add("mismatches", s.mismatches)
      .Add("within_limit", s.met_limit)
      .Add("p99_limit_ms", config.p99_limit_ms)
      .Add("plan_cached", s.plan_cached)
      .Add("result_cached", s.result_cached)
      .Add("shared_scan", s.shared_scan)
      .Add("elapsed_s", s.elapsed_s);
  JsonObject by_template;
  for (const auto& [name, latencies] : s.by_template) {
    by_template.Add(name, SummaryJson(Summarize(latencies), "ms"));
  }
  out.Add("latency_by_template", by_template);
  if (config.ingest) {
    JsonObject open;
    open.Add("offered_rate", config.read_rate)
        .Add("gen_late_ms", SummaryJson(Summarize(s.gen_late_ms), "ms"))
        .Add("backlog_growth", s.backlog_growth)
        .Add("max_in_flight", s.max_in_flight)
        .Add("fell_behind", FellBehind(s));
    out.Add("open_loop", open);
  }
  return out;
}

void AddTimingMetric(MetricSet& metrics, const std::string& name,
                     const std::vector<double>& samples, const char* unit,
                     JsonObject& samples_json) {
  const Summary s = Summarize(samples);
  metrics.Set(name + ".p50", s.p50, unit);
  metrics.Set(name + ".p99", s.p99, unit);
  samples_json.Add(name, SummaryJson(s, unit));
}

// ---- The run -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    Die("usage: parj_perfbench --workload W --seed N --seconds S "
        "--trace 0|1 --work-dir DIR");
  }
  return args;
}

/// Removes the work directory on every exit path of Run().
struct WorkDir {
  explicit WorkDir(std::string path) : path(std::move(path)) {
    std::error_code ec;
    fs::remove_all(this->path + "/wal", ec);
    fs::create_directories(this->path, ec);
    if (ec) Die("cannot create " + this->path + ": " + ec.message());
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path + "/wal", ec);
  }
  std::string path;
};

int Run(const Args& args) {
  const WorkloadConfig config = ConfigFor(args.workload);
  WorkDir work(args.work_dir);
  Tracer tracer(args.trace);
  Tracer untraced(false);
  MetricSet metrics;
  JsonObject report;
  JsonObject samples;  // sample counts and percentiles behind each metric
  uint64_t attempted = 0, failed = 0;
  bool correct = true;

  const HostRecord host = ProbeHost();
  const int nproc = host.nproc;
  // The ingest workload keeps more threads busy than a small host has
  // CPUs (read generator and collector, server workers, writer, WAL
  // writer, compactor and its build threads); spread over the vCPUs of a
  // shared host they made its latencies several times noisier than on
  // one CPU, where the kernel serializes them the same way every run. The
  // analytic workload runs one client and its intra-query threads, which
  // fit the host, so its joins run in parallel.
  const int pinned_cpu = config.ingest ? PinToOneCpu() : -1;
  {
    JsonObject h;
    h.Add("nproc", nproc)
        .Add("pinned_cpu", pinned_cpu)
        .Add("simd", host.simd)
        .Add("build_type", PERFBENCH_BUILD_TYPE)
        .Add("spin_rate_1", host.spin_1)
        .Add("spin_rate_4", host.spin_4)
        .Add("parallel_capacity_4v1", host.capacity());
    report.Add("host", h);
  }

  // Inputs. The dataset and the query population stay the same for every
  // seed (the generators' default seeds), so runs with different seeds
  // compare like with like; the seed drives the traffic: which query, with
  // which constants, each request sends, and the writer's activity.
  const uint64_t seed = args.seed;
  Dataset data = config.ingest ? MakeWatdiv(config.scale, 7, true)
                              : MakeLubm(config.scale, 42, false);
  const Population population =
      config.ingest ? WatdivPopulation(config.scale, config.population)
                    : LubmAnalyticPopulation(config.scale);

  // Setup, timed several times; the last engine serves.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  Serving serving;
  for (int i = 0; i < setups; ++i) {
    // Release the previous server, then its engine and WAL.
    serving.server.reset();
    serving.engine.reset();
    std::error_code ec;
    fs::remove_all(work.path + "/wal", ec);
    const std::string wal_dir = config.ingest ? work.path + "/wal" : "";
    const Clock::time_point start = Clock::now();
    serving = SetUp(data.ntriples, nproc, wal_dir);
    setup_s.push_back(MillisSince(start) / 1e3);
  }
  ParjEngine& engine = *serving.engine;
  QueryServer& server = *serving.server;
  const parj::engine::LoadStats load_stats = engine.load_stats();
  metrics.Set("setup_s", Median(setup_s), "s");
  {
    JsonObject s;
    s.Add("setup", SummaryJson(Summarize(setup_s), "s"));
    const auto& ls = load_stats;
    JsonObject load;
    load.Add("parse_ms", ls.parse_millis)
        .Add("encode_ms", ls.encode_millis)
        .Add("build_ms", ls.build_millis)
        .Add("index_ms", ls.index_millis)
        .Add("calibrate_ms", ls.calibrate_millis)
        .Add("total_ms", ls.total_millis)
        .Add("triples", ls.triples)
        .Add("threads", ls.threads);
    s.Add("load_stats", load);
    s.Add("ntriples_bytes", static_cast<uint64_t>(data.ntriples.size()));
    s.Add("statements", data.statements);
    report.Add("setup", s);
  }
  const parj::storage::Database& db = engine.database();
  const double bytes_per_triple =
      static_cast<double>(db.TableMemoryUsage() + db.DictionaryMemoryUsage()) /
      static_cast<double>(std::max<uint64_t>(1, load_stats.triples));

  Context ctx;
  ctx.config = &config;
  ctx.engine = &engine;
  ctx.server = &server;
  ctx.population = &population;
  ctx.reference_version = engine.data_version();
  ctx.stream = config.ingest
                   ? ZipfStream(population.sparql.size(), 1 << 17, seed)
                   : TemplateUniformStream(population, 1 << 16, seed);
  {
    const Clock::time_point start = Clock::now();
    ctx.reference.resize(population.sparql.size());
    std::vector<bool> needed(population.sparql.size(), false);
    for (uint32_t q : ctx.stream) needed[q] = true;
    std::unordered_map<std::string_view, Answer> by_text;
    for (size_t q = 0; q < population.sparql.size(); ++q) {
      if (!needed[q]) continue;
      const std::string& sparql = population.sparql[q];
      auto it = by_text.find(sparql);
      if (it == by_text.end()) {
        it = by_text.emplace(sparql, SerialAnswer(engine, sparql)).first;
      }
      ctx.reference[q] = it->second;
    }
    report.Add("reference_s", MillisSince(start) / 1e3);
    std::map<std::string, std::pair<uint64_t, uint64_t>> rows;  // sum, n
    for (size_t q = 0; q < population.sparql.size(); ++q) {
      if (!needed[q]) continue;
      auto& [sum, n] = rows[population.template_name[q]];
      sum += ctx.reference[q].rows;
      ++n;
    }
    JsonObject rows_json;
    for (const auto& [name, sum_n] : rows) {
      rows_json.Add(name, static_cast<double>(sum_n.first) /
                              static_cast<double>(sum_n.second));
    }
    report.Add("mean_rows_by_template", rows_json);
  }

  // Traced runs also split the load pipeline by layer.
  std::optional<LayeredLoad> layered;
  if (args.trace) layered = RunLayeredLoad(data.ntriples, nproc, tracer);
  data.ntriples.clear();
  data.ntriples.shrink_to_fit();

  // Serving: writer + compactor beside the reads on the ingest workload.
  parj::server::ThreadPool compaction_pool(1);
  std::optional<parj::mut::Compactor> compactor;
  std::optional<ActivityStream> activity;
  WriteStats writes;
  std::vector<parj::mut::Mutation> applied;
  if (config.ingest) {
    parj::mut::CompactorOptions options;
    options.auto_compact_delta_triples = config.compact_threshold;
    // Compaction is background work: its pool thread (and the build
    // threads it spawns, which inherit its nice value) runs at nice 19.
    std::thread([&compaction_pool] {
      setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 19);
      compaction_pool.Submit([] {});
    }).join();
    compactor.emplace(engine.delta_store(), &compaction_pool, options);
    activity.emplace(config.scale, seed);
  }
  const auto serve = [&](double seconds, Tracer& t) {
    std::optional<std::thread> writer;
    if (config.ingest) {
      writer.emplace([&, seconds] {
        RunWriter(engine, *compactor, *activity, config, seconds, t, writes,
                  applied);
      });
    }
    ReadStats reads = config.ingest
                          ? RunOpenLoop(ctx, t, config.read_rate, seconds)
                          : RunClosedLoop(ctx, t, seconds);
    if (writer) writer->join();
    return reads;
  };

  ReadStats reads;
  ReadStats traced_reads;
  std::optional<ProbeStats> probes;
  // Warm-up: reads only, untimed, so the plan and result caches hold the
  // stream's hot queries before anything is measured.
  {
    ReadStats warm = config.ingest
                         ? RunOpenLoop(ctx, untraced, config.read_rate, kWarmupSeconds)
                         : RunClosedLoop(ctx, untraced, kWarmupSeconds);
    attempted += warm.attempted;
    failed += warm.failed();
    if (warm.mismatches > 0) correct = false;
    report.Add("warmup_reads", warm.attempted);
  }
  if (!args.trace) {
    reads = serve(args.seconds, untraced);
  } else {
    reads = serve(args.seconds * 0.35, untraced);
    traced_reads = serve(args.seconds * 0.35, tracer);
  }
  if (compactor) compactor->Wait();
  server.Drain();
  if (args.trace) {
    probes = RunProbes(ctx, tracer, args.seconds * 0.3, !config.ingest);
    attempted += probes->probes;
    failed += probes->mismatches;
    if (probes->mismatches > 0) correct = false;
  }

  for (const ReadStats* r : {&reads, &traced_reads}) {
    attempted += r->attempted;
    failed += r->failed();
    if (r->mismatches > 0) correct = false;
  }
  report.Add("reads", ReadStatsJson(reads, config));
  if (args.trace) report.Add("reads_traced", ReadStatsJson(traced_reads, config));

  const Summary latency = Summarize(reads.latency_ms);
  metrics.Set("read_p50_ms", latency.p50, "ms");
  metrics.Set("read_p99_ms", latency.p99, "ms");
  samples.Add("read_ms", SummaryJson(latency, "ms"));
  metrics.Set("read_qps",
              static_cast<double>(config.ingest ? reads.met_limit : reads.ok) /
                  std::max(1e-9, reads.elapsed_s),
              "1/s");
  if (config.ingest) {
    const Summary late = Summarize(reads.gen_late_ms);
    metrics.Set("bench.gen_late_ms.max", late.max, "ms");
    metrics.Set("bench.backlog_growth", reads.backlog_growth, "count");
    if (FellBehind(reads)) {
      std::fprintf(stderr,
                   "perfbench: WARNING: the read generator fell behind "
                   "(late max %.3f ms, backlog growth %.1f)\n",
                   late.max, reads.backlog_growth);
    }
  }

  // Ingest: write metrics, then the three-way answer check and recovery.
  if (config.ingest) {
    attempted += writes.attempted;
    failed += writes.failed;
    const Summary ack = Summarize(writes.ack_ms);
    metrics.Set("write_p50_ms", ack.p50, "ms");
    metrics.Set("write_p99_ms", ack.p99, "ms");
    samples.Add("write_ms", SummaryJson(ack, "ms"));
    const parj::mut::WalStats wal = engine.wal_stats();
    const parj::mut::MutationStats ms = engine.mutation_stats();
    JsonObject w;
    w.Add("ack", SummaryJson(ack, "ms"))
        .Add("apply", SummaryJson(Summarize(writes.apply_ms), "ms"))
        .Add("gen_late_ms", SummaryJson(Summarize(writes.gen_late_ms), "ms"))
        .Add("batches", writes.attempted)
        .Add("failed", writes.failed)
        .Add("mutations", writes.mutations)
        .Add("user_bytes", writes.user_bytes)
        .Add("wal_records", wal.records)
        .Add("wal_bytes", wal.bytes)
        .Add("wal_fsyncs", wal.fsyncs)
        .Add("wal_checkpoints", wal.checkpoints)
        .Add("compactions", ms.compactions)
        .Add("compaction_ms_total", static_cast<double>(ms.compaction_micros) / 1e3)
        .Add("delta_triples_peak", writes.delta_peak)
        .Add("sync", parj::mut::WalSyncName(parj::mut::WalSync::kBatch));
    report.Add("writes", w);
    metrics.Set("mutable.apply_ms.p50", Summarize(writes.apply_ms).p50, "ms");
    metrics.Set("mutable.apply_ms.p99", Summarize(writes.apply_ms).p99, "ms");
    metrics.Set("mutable.fsyncs_per_batch", Ratio(wal.fsyncs, writes.attempted),
                "ratio");
    metrics.Set("mutable.wal_bytes_per_user_byte",
                Ratio(wal.bytes, writes.user_bytes), "ratio");
    metrics.Set("mutable.compactions", static_cast<double>(ms.compactions),
                "count");
    metrics.Set("mutable.compact_ms",
                ms.compactions == 0 ? 0.0
                                    : static_cast<double>(ms.compaction_micros) /
                                          1e3 / static_cast<double>(ms.compactions),
                "ms");
    metrics.Set("mutable.delta_triples_peak",
                static_cast<double>(writes.delta_peak), "count");

    // Every query the run asked for, answered by the live engine, by a
    // fresh load of base ∪ applied mutations, and by WAL recovery.
    std::vector<uint32_t> queries(ctx.requested.begin(), ctx.requested.end());
    const auto answers = [&](const ParjEngine& e) {
      std::vector<Answer> out;
      for (uint32_t q : queries) out.push_back(SerialAnswer(e, population.sparql[q]));
      return out;
    };
    const uint64_t final_version = engine.data_version();
    const std::vector<Answer> live = answers(engine);
    // Reads at the final version must match the live answers; reads at
    // any other version must agree with every other read at that version.
    uint64_t stale_mismatches = 0;
    {
      std::map<uint32_t, size_t> slot;
      for (size_t i = 0; i < queries.size(); ++i) slot[queries[i]] = i;
      std::map<std::pair<uint32_t, uint64_t>, Answer> seen;
      for (const VersionedRead& r : ctx.versioned) {
        if (r.version == final_version) {
          if (!(r.answer == live[slot[r.query]])) ++stale_mismatches;
          continue;
        }
        auto [it, inserted] = seen.emplace(std::make_pair(r.query, r.version),
                                           r.answer);
        if (!inserted && !(it->second == r.answer)) ++stale_mismatches;
      }
    }

    compactor.reset();
    serving.server.reset();
    serving.engine.reset();  // flushes and closes the WAL

    double recovery_s = 0.0;
    uint64_t replayed = 0;
    std::vector<Answer> recovered_answers;
    {
      const uint64_t request = tracer.NewRequest();
      const uint64_t root = tracer.Begin("bench.recover", 0, request);
      const uint64_t span = tracer.Begin("mutable.recover", root, request);
      const Clock::time_point start = Clock::now();
      auto recovered = ParjEngine::RecoverFromWal(
          WalOptionsFor(work.path + "/wal"), LoadOptions(nproc));
      recovery_s = MillisSince(start) / 1e3;
      if (!recovered.ok()) Die("recovery failed: " + recovered.status().ToString());
      replayed = recovered->recovery_stats().records_replayed;
      tracer.End(span, replayed);
      tracer.End(root, replayed);
      recovered_answers = answers(*recovered);
    }

    std::vector<Answer> fresh_answers;
    {
      std::unordered_map<std::string, bool> present;  // mutated triples
      std::unordered_map<std::string, const parj::rdf::Triple*> by_key;
      for (const parj::mut::Mutation& m : applied) {
        std::string key = TripleKey(m.triple);
        by_key[key] = &m.triple;
        present[std::move(key)] = !m.remove;
      }
      std::vector<parj::rdf::Triple> final_triples;
      final_triples.reserve(data.triples.size() + present.size());
      for (const parj::rdf::Triple& t : data.triples) {
        if (present.count(TripleKey(t)) == 0) final_triples.push_back(t);
      }
      for (const auto& [key, is_present] : present) {
        if (is_present) final_triples.push_back(*by_key[key]);
      }
      parj::engine::EngineOptions options;
      options.load.threads = nproc;
      auto fresh = ParjEngine::FromTriples(final_triples, options);
      if (!fresh.ok()) Die("fresh load failed: " + fresh.status().ToString());
      fresh_answers = answers(*fresh);
    }

    uint64_t three_way_mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!(live[i] == fresh_answers[i]) || !(live[i] == recovered_answers[i])) {
        ++three_way_mismatches;
        std::fprintf(stderr, "perfbench: final answers differ for query %u (%s)\n",
                     queries[i], population.template_name[queries[i]].c_str());
      }
    }
    attempted += queries.size();
    failed += three_way_mismatches + stale_mismatches;
    if (three_way_mismatches + stale_mismatches > 0) correct = false;
    metrics.Set("recovery_s", recovery_s, "s");
    metrics.Set("mutable.recover_ms", recovery_s * 1e3, "ms");
    metrics.Set("mutable.replayed_records", static_cast<double>(replayed), "count");
    JsonObject v;
    v.Add("queries", static_cast<uint64_t>(queries.size()))
        .Add("three_way_mismatches", three_way_mismatches)
        .Add("versioned_reads", static_cast<uint64_t>(ctx.versioned.size()))
        .Add("versioned_read_mismatches", stale_mismatches)
        .Add("final_data_version", final_version)
        .Add("recovery_s", recovery_s)
        .Add("replayed_records", replayed);
    report.Add("verification", v);
  }

  if (!config.ingest) {
    // Nothing is written: no log, no delta, no compaction, no replay.
    for (const char* name : {"mutable.fsyncs_per_batch",
                             "mutable.wal_bytes_per_user_byte"}) {
      metrics.Set(name, 0.0, "ratio");
    }
    for (const char* name : {"mutable.compactions", "mutable.delta_triples_peak",
                             "mutable.replayed_records"}) {
      metrics.Set(name, 0.0, "count");
    }
  }
  metrics.Set("peak_rss_mb", PeakRssMb(), "MiB");
  metrics.Set("storage.bytes_per_triple", bytes_per_triple, "B");
  metrics.Set("host.parallel_capacity", host.capacity(), "ratio");

  if (args.trace) {
    const ReadStats& t = traced_reads;
    metrics.Set("bench.trace_overhead_ms",
                Summarize(t.latency_ms).p50 - Summarize(reads.latency_ms).p50,
                "ms");
    metrics.Set("query.plan_cache_hit_ratio", Ratio(t.plan_cached, t.ok), "ratio");
    metrics.Set("server.result_cache_hit_ratio", Ratio(t.result_cached, t.ok),
                "ratio");
    metrics.Set("server.shared_scan_ratio", Ratio(t.shared_scan, t.ok), "ratio");
    metrics.Set("server.submit_us", Summarize(t.submit_us).p50, "us");
    metrics.Set("server.hit_ms.p50", Summarize(t.hit_ms).p50, "ms");
    metrics.Set("server.miss_ms.p99", Summarize(t.miss_ms).p99, "ms");
    samples.Add("server.submit_us", SummaryJson(Summarize(t.submit_us), "us"));
    samples.Add("server.hit_ms", SummaryJson(Summarize(t.hit_ms), "ms"));
    samples.Add("server.miss_ms", SummaryJson(Summarize(t.miss_ms), "ms"));
    samples.Add("read_ms_traced", SummaryJson(Summarize(t.latency_ms), "ms"));

    const LayeredLoad& l = *layered;
    metrics.Set("rdf.parse_ms", l.parse_ms, "ms");
    metrics.Set("dict.encode_ms", l.encode_ms, "ms");
    metrics.Set("storage.build_ms", l.build_ms, "ms");
    metrics.Set("storage.index_ms", l.index_ms, "ms");
    metrics.Set("join.calibrate_ms", l.calibrate_ms, "ms");
    // The same stages as timed by the engine's own load of the same text.
    JsonObject cross;
    const auto pair = [](double span_ms, double engine_ms) {
      JsonObject j;
      j.Add("span_ms", span_ms).Add("load_stats_ms", engine_ms);
      return j;
    };
    cross.Add("rdf.parse_ms", pair(l.parse_ms, load_stats.parse_millis))
        .Add("dict.encode_ms", pair(l.encode_ms, load_stats.encode_millis))
        .Add("storage.build_ms", pair(l.build_ms, load_stats.build_millis))
        .Add("storage.index_ms", pair(l.index_ms, load_stats.index_millis))
        .Add("join.calibrate_ms",
             pair(l.calibrate_ms, load_stats.calibrate_millis));
    report.Add("load_crosscheck", cross);

    const ProbeStats& p = *probes;
    const double probes_n = static_cast<double>(std::max<uint64_t>(1, p.probes));
    metrics.Set("query.parse_ms", Median(p.parse_ms), "ms");
    metrics.Set("query.optimize_ms", Median(p.optimize_ms), "ms");
    metrics.Set("query.qerror_geomean",
                p.qerror_steps == 0
                    ? 1.0
                    : std::exp(p.log_qerror_sum / static_cast<double>(p.qerror_steps)),
                "ratio");
    metrics.Set("query.qerror_max", std::max(1.0, p.qerror_max), "ratio");
    AddTimingMetric(metrics, "join.exec_ms", p.exec_ms, "ms", samples);
    samples.Add("query.parse_ms", SummaryJson(Summarize(p.parse_ms), "ms"));
    samples.Add("query.optimize_ms", SummaryJson(Summarize(p.optimize_ms), "ms"));
    samples.Add("engine.decode_ms", SummaryJson(Summarize(p.decode_ms), "ms"));
    metrics.Set("join.binary_searches",
                static_cast<double>(p.counters.binary_searches) / probes_n, "count");
    metrics.Set("join.sequential_steps",
                static_cast<double>(p.counters.sequential_steps) / probes_n, "count");
    metrics.Set("join.index_lookups",
                static_cast<double>(p.counters.index_lookups) / probes_n, "count");
    metrics.Set("join.run_probes",
                static_cast<double>(p.counters.run_probes) / probes_n, "count");
    metrics.Set("join.steal_ratio", Ratio(p.stolen, p.morsels), "ratio");
    metrics.Set("join.worker_imbalance", p.imbalance.empty() ? 1.0 : Median(p.imbalance),
                "ratio");
    metrics.Set("join.speedup_wall", p.exec4_ms > 0 ? p.exec1_ms / p.exec4_ms : 0.0,
                "ratio");
    metrics.Set("join.speedup_emulated",
                p.emulated_ms > 0 ? p.serial_engine_ms / p.emulated_ms : 0.0, "ratio");
    metrics.Set("engine.decode_ms", Median(p.decode_ms), "ms");
    report.Add("probes", p.probes);

    const std::vector<Span> spans = tracer.Closed();
    JsonObject self_json;
    for (const auto& [layer, millis] : SelfTimeMillis(spans)) {
      self_json.Add(layer, millis);
      metrics.Set(layer + ".self_ms", millis, "ms");
    }
    report.Add("self_ms", self_json);
    JsonObject by_name;
    for (const auto& [name, total] : TotalsByName(spans)) {
      JsonObject j;
      j.Add("ms", total.millis).Add("spans", total.spans);
      by_name.Add(name, j);
    }
    report.Add("span_totals", by_name);
    const std::string spans_path = work.path + "/spans.jsonl";
    if (!tracer.WriteJsonl(spans_path)) Die("cannot write " + spans_path);
    report.Add("spans_file", spans_path);
    report.Add("spans", static_cast<uint64_t>(spans.size()));
  }

  report.Add("samples", samples);
  report.Add("workload", config.name)
      .Add("seed", seed)
      .Add("seconds", args.seconds)
      .Add("trace", args.trace)
      .Add("correct", correct)
      .Add("attempted", attempted)
      .Add("failed", failed)
      .Add("metrics", metrics.ToJson());
  std::printf("%s\n", report.Render().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
