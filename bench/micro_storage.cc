// Ablation microbenchmarks for the physical layout (google-benchmark):
// the paper's compact two-level CSR replica versus a flat sorted
// (key, value) pair array — the design §3 argues for. Measures (a) point
// lookup of one key's full run and (b) a full sequential sweep.
//
// The binary also hard-asserts (before any benchmark runs) that a
// dictionary lookup HIT performs zero heap allocations: the term table is
// probed with a view of a key rendered into a thread-local scratch
// buffer. It also asserts that stream-encoding N-Triples (the bulk load's
// fused parse + chunk-local encode) of lines whose terms the base
// dictionary already holds performs zero heap allocations per line; that
// encoding lines of all-new terms allocates only for the geometric growth
// of the chunk's delta tables, never once per term (and that the check
// catches a per-term key std::string); and that ParjEngine::DecodeRow
// allocates at most once per term cell plus once for the row. The
// counting operator new below makes any regression fail the bench run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dict/dictionary.h"
#include "dict/sharded_encoder.h"
#include "engine/parj_engine.h"
#include "rdf/ntriples.h"
#include "storage/property_table.h"

// TU-level replacement of the global allocator: every heap allocation in
// the binary bumps one relaxed counter. Used only to difference across a
// measurement window.
namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace parj::storage {
namespace {

constexpr size_t kKeys = 1 << 18;
constexpr size_t kRunLength = 4;

struct FlatTable {
  std::vector<std::pair<TermId, TermId>> pairs;  // sorted by key
};

std::vector<std::pair<TermId, TermId>> MakePairs() {
  std::vector<std::pair<TermId, TermId>> pairs;
  Rng rng(7);
  TermId key = 1;
  for (size_t i = 0; i < kKeys; ++i) {
    key += 1 + static_cast<TermId>(rng.Uniform(9));
    const size_t run = 1 + rng.Uniform(2 * kRunLength - 1);
    for (size_t j = 0; j < run; ++j) {
      pairs.emplace_back(key, static_cast<TermId>(1 + rng.Uniform(1 << 20)));
    }
  }
  return pairs;
}

const TableReplica& Csr() {
  static const TableReplica* replica =
      new TableReplica(TableReplica::Build(MakePairs()));
  return *replica;
}

const TableReplica& Packed() {
  static const TableReplica* replica = [] {
    auto* r = new TableReplica(TableReplica::Build(MakePairs()));
    r->Compress();
    return r;
  }();
  return *replica;
}

const FlatTable& Flat() {
  static const FlatTable* table = [] {
    auto* t = new FlatTable();
    t->pairs = MakePairs();
    std::sort(t->pairs.begin(), t->pairs.end());
    t->pairs.erase(std::unique(t->pairs.begin(), t->pairs.end()),
                   t->pairs.end());
    return t;
  }();
  return *table;
}

void BM_CsrPointLookup(benchmark::State& state) {
  const TableReplica& replica = Csr();
  Rng rng(11);
  uint64_t sum = 0;
  for (auto _ : state) {
    const TermId key = replica.KeyAt(rng.Uniform(replica.key_count()));
    const size_t pos = replica.FindKey(key);
    for (TermId v : replica.Run(pos)) sum += v;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsrPointLookup);

void BM_PackedPointLookup(benchmark::State& state) {
  // The same point lookup against the bit-packed block layout: search the
  // block-minima directory, decode one block, scan the run.
  const TableReplica& replica = Packed();
  const TableReplica& flat = Csr();  // to pick existing keys
  Rng rng(11);
  std::vector<TermId> scratch;
  uint64_t sum = 0;
  for (auto _ : state) {
    const TermId key = flat.KeyAt(rng.Uniform(flat.key_count()));
    const size_t pos = replica.FindKey(key);
    for (TermId v : replica.RunInto(pos, &scratch)) sum += v;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedPointLookup);

void BM_FlatPointLookup(benchmark::State& state) {
  const FlatTable& table = Flat();
  const TableReplica& replica = Csr();  // to pick existing keys
  Rng rng(11);
  uint64_t sum = 0;
  for (auto _ : state) {
    const TermId key = replica.KeyAt(rng.Uniform(replica.key_count()));
    auto it = std::lower_bound(
        table.pairs.begin(), table.pairs.end(), std::pair<TermId, TermId>{key, 0});
    while (it != table.pairs.end() && it->first == key) {
      sum += it->second;
      ++it;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatPointLookup);

void BM_CsrFullSweep(benchmark::State& state) {
  const TableReplica& replica = Csr();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < replica.key_count(); ++k) {
      sum += replica.KeyAt(k);
      for (TermId v : replica.Run(k)) sum += v;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Csr().pair_count());
}
BENCHMARK(BM_CsrFullSweep);

void BM_PackedFullSweep(benchmark::State& state) {
  const TableReplica& replica = Packed();
  uint64_t sum = 0;
  for (auto _ : state) {
    replica.ForEachRun([&](size_t, TermId key, std::span<const TermId> run) {
      sum += key;
      for (TermId v : run) sum += v;
    });
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Packed().pair_count());
}
BENCHMARK(BM_PackedFullSweep);

void BM_FlatFullSweep(benchmark::State& state) {
  const FlatTable& table = Flat();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (const auto& [k, v] : table.pairs) sum += k + v;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Flat().pairs.size());
}
BENCHMARK(BM_FlatFullSweep);

void BM_CsrKeyOnlyScan(benchmark::State& state) {
  // The adaptive join's sequential search touches only the compact key
  // array — the locality argument of §3: 4 bytes per distinct key instead
  // of 8 bytes per pair.
  const TableReplica& replica = Csr();
  uint64_t sum = 0;
  for (auto _ : state) {
    for (TermId k : replica.keys()) sum += k;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Csr().key_count());
}
BENCHMARK(BM_CsrKeyOnlyScan);

void BM_FlatKeyScan(benchmark::State& state) {
  // Scanning keys in the flat layout drags the values through the cache
  // and revisits duplicate keys.
  const FlatTable& table = Flat();
  uint64_t sum = 0;
  for (auto _ : state) {
    TermId last = 0;
    for (const auto& [k, v] : table.pairs) {
      if (k != last) sum += k;
      last = k;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * Flat().pairs.size());
}
BENCHMARK(BM_FlatKeyScan);

// ---- Dictionary lookup: timing + zero-allocation assertion ---------------

std::vector<rdf::Term> DictTerms() {
  std::vector<rdf::Term> terms;
  for (int i = 0; i < 1024; ++i) {
    const std::string n = std::to_string(i);
    terms.push_back(rdf::Term::Iri("http://example.org/resource/" + n));
    terms.push_back(rdf::Term::Literal("literal value " + n));
    terms.push_back(rdf::Term::TypedLiteral(
        n, "http://www.w3.org/2001/XMLSchema#integer"));
    terms.push_back(rdf::Term::LangLiteral("label " + n, "en"));
  }
  return terms;
}

const dict::Dictionary& Dict() {
  static const dict::Dictionary* dict = [] {
    auto* d = new dict::Dictionary();
    for (const rdf::Term& t : DictTerms()) d->EncodeResource(t);
    return d;
  }();
  return *dict;
}

void BM_DictLookupHit(benchmark::State& state) {
  const dict::Dictionary& dict = Dict();
  const std::vector<rdf::Term> terms = DictTerms();
  Rng rng(13);
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += dict.LookupResource(terms[rng.Uniform(terms.size())]);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictLookupHit);

/// Aborts the binary if a dictionary lookup hit allocates. One full warm
/// pass first grows the thread-local key scratch buffer to the longest
/// key, so the counted window measures only steady-state lookups.
void AssertLookupHitsDoNotAllocate() {
  const dict::Dictionary& dict = Dict();
  const std::vector<rdf::Term> terms = DictTerms();
  uint64_t hits = 0;
  for (const rdf::Term& t : terms) {
    hits += dict.LookupResource(t) != kInvalidTermId;
  }
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int round = 0; round < 4; ++round) {
    for (const rdf::Term& t : terms) {
      hits += dict.LookupResource(t) != kInvalidTermId;
    }
  }
  const uint64_t allocations =
      g_allocation_count.load(std::memory_order_relaxed) - before;
  if (allocations != 0 || hits != terms.size() * 5) {
    std::fprintf(stderr,
                 "FAIL: %llu allocation(s) across %llu dictionary lookup "
                 "hits (expected 0; hits expected %zu)\n",
                 static_cast<unsigned long long>(allocations),
                 static_cast<unsigned long long>(hits), terms.size() * 5);
    std::abort();
  }
  std::printf("dictionary lookup-hit allocation check: %llu hits, "
              "0 allocations\n",
              static_cast<unsigned long long>(hits));
}

/// Allocations made while one chunk of `text` is walked and stream-encoded
/// against `base` (the load's per-chunk work), with the encoder's triple
/// list pre-sized so only per-line work can allocate. Aborts unless every
/// line parses and every term hits the base.
uint64_t StreamEncodeAllocations(const dict::Dictionary& base,
                                 const std::string& text, size_t lines) {
  dict::ChunkEncoder encoder(base);
  encoder.Reserve(lines);
  std::vector<rdf::ChunkLines> chunks =
      rdf::SplitNewlineChunks(text, text.size());
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  const Status walked = rdf::WalkChunks(
      text, {}, &chunks,
      [&encoder](size_t, rdf::Triple& triple) { encoder.Add(triple); });
  const uint64_t allocations =
      g_allocation_count.load(std::memory_order_relaxed) - before;
  const dict::EncodedChunk encoded = encoder.Finish();
  if (!walked.ok() || encoded.triples.size() != lines ||
      !encoded.delta_resources.empty() || !encoded.delta_predicates.empty()) {
    std::fprintf(stderr,
                 "FAIL: stream-encode setup: %s, %zu of %zu lines encoded, "
                 "%zu + %zu terms missed the base\n",
                 walked.ToString().c_str(), encoded.triples.size(), lines,
                 encoded.delta_resources.size(),
                 encoded.delta_predicates.size());
    std::abort();
  }
  return allocations;
}

/// Aborts the binary if stream-encoding a line whose terms are all in the
/// base dictionary allocates. Walking the same lines once and twice over
/// must cost the same allocations (the scratch triple and key buffer grow
/// during the first copy in both), so the per-line count is zero. A
/// warm-up walk first grows the thread-local buffers.
void AssertStreamEncodeHitsDoNotAllocate() {
  const std::vector<rdf::Term> terms = DictTerms();
  const rdf::Term predicate = rdf::Term::Iri("http://example.org/predicate");
  dict::Dictionary base;
  for (const rdf::Term& t : terms) base.EncodeResource(t);
  base.EncodePredicate(predicate);
  // IRI subjects; objects cycle through every term shape.
  std::string once;
  size_t lines = 0;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (!terms[i].is_iri()) continue;
    for (size_t j = 0; j < terms.size(); j += 97) {
      once += terms[i].ToNTriples() + " " + predicate.ToNTriples() + " " +
              terms[(i + j) % terms.size()].ToNTriples() + " .\n";
      ++lines;
    }
  }
  const std::string twice = once + once;
  StreamEncodeAllocations(base, twice, 2 * lines);  // warm-up
  const uint64_t single = StreamEncodeAllocations(base, once, lines);
  const uint64_t doubled = StreamEncodeAllocations(base, twice, 2 * lines);
  if (doubled != single) {
    std::fprintf(stderr,
                 "FAIL: stream-encoding %zu more base-hit lines made %lld "
                 "more allocation(s) (expected 0 per line)\n",
                 lines,
                 static_cast<long long>(doubled) -
                     static_cast<long long>(single));
    std::abort();
  }
  std::printf("stream-encode allocation check: %zu base-hit lines, "
              "0 allocations per line (%llu per chunk)\n",
              2 * lines, static_cast<unsigned long long>(doubled));
}

/// N-Triples text of `lines` statements over one predicate whose subjects
/// and objects are all distinct, with keys longer than the small-string
/// buffer so a per-term key copy would have to allocate.
std::string NewTermLines(size_t lines) {
  std::string text;
  for (size_t i = 0; i < lines; ++i) {
    const std::string n = std::to_string(i);
    text += "<http://example.org/subject/" + n +
            "> <http://example.org/predicate> \"object value " + n +
            "\" .\n";
  }
  return text;
}

/// Allocations made while `text` (`lines` lines of all-new terms) is
/// walked and encoded against an empty base. `per_term_copy` adds the
/// regression the check exists to catch: a std::string of every term's
/// key, as the per-term key maps used to hold.
uint64_t NewTermEncodeAllocations(const std::string& text, size_t lines,
                                  bool per_term_copy) {
  const dict::Dictionary base;
  dict::ChunkEncoder encoder(base);
  encoder.Reserve(lines);
  std::vector<std::string> copies;
  copies.reserve(3 * lines);
  std::vector<rdf::ChunkLines> chunks =
      rdf::SplitNewlineChunks(text, text.size());
  const uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  const Status walked = rdf::WalkChunks(
      text, {}, &chunks, [&](size_t, rdf::Triple& triple) {
        encoder.Add(triple);
        if (!per_term_copy) return;
        for (const rdf::Term* term :
             {&triple.subject, &triple.predicate, &triple.object}) {
          copies.emplace_back(dict::ScratchKey(*term));
        }
      });
  const uint64_t allocations =
      g_allocation_count.load(std::memory_order_relaxed) - before;
  const dict::EncodedChunk encoded = encoder.Finish();
  if (!walked.ok() || encoded.triples.size() != lines ||
      encoded.delta_resources.size() != 2 * lines ||
      encoded.delta_predicates.size() != 1) {
    std::fprintf(stderr,
                 "FAIL: new-term encode setup: %s, %zu of %zu lines, %zu "
                 "delta resources (expected %zu)\n",
                 walked.ToString().c_str(), encoded.triples.size(), lines,
                 encoded.delta_resources.size(), 2 * lines);
    std::abort();
  }
  return allocations;
}

/// Aborts the binary unless encoding all-new terms allocates only for the
/// growth of the delta tables. Eight times the lines may add at most
/// four doublings (log2(8) = 3, plus one for rounding) to each of the
/// two delta tables' three arrays — O(log n), where a per-term
/// allocation would add thousands. The same check must reject the
/// per-term key copy variant, or it proves nothing.
void AssertNewTermEncodeAllocatesForGrowthOnly() {
  constexpr size_t kLines = 2048;
  constexpr uint64_t kGrowthBound = 2 * 3 * 4;
  const std::string small = NewTermLines(kLines);
  const std::string large = NewTermLines(8 * kLines);
  NewTermEncodeAllocations(large, 8 * kLines, true);  // warm-up
  const auto growth = [&](bool per_term_copy) {
    return static_cast<int64_t>(
               NewTermEncodeAllocations(large, 8 * kLines, per_term_copy)) -
           static_cast<int64_t>(
               NewTermEncodeAllocations(small, kLines, per_term_copy));
  };
  const int64_t tables = growth(false);
  const int64_t copied = growth(true);
  if (tables > static_cast<int64_t>(kGrowthBound) ||
      copied <= static_cast<int64_t>(kGrowthBound)) {
    std::fprintf(stderr,
                 "FAIL: encoding %zu more lines of new terms made %lld more "
                 "allocation(s) (bound %llu); with a per-term key copy "
                 "%lld (must exceed the bound)\n",
                 7 * kLines, static_cast<long long>(tables),
                 static_cast<unsigned long long>(kGrowthBound),
                 static_cast<long long>(copied));
    std::abort();
  }
  std::printf("new-term encode allocation check: %zu more lines of new "
              "terms, %lld more allocations (bound %llu; a per-term key "
              "copy makes %lld)\n",
              7 * kLines, static_cast<long long>(tables),
              static_cast<unsigned long long>(kGrowthBound),
              static_cast<long long>(copied));
}

/// Aborts the binary if ParjEngine::DecodeRow allocates more than once
/// per term cell plus once for the row vector. Every key is longer than
/// the small-string buffer, so each cell really allocates.
void AssertDecodeRowAllocatesPerCell() {
  std::vector<rdf::Triple> triples;
  const rdf::Term p = rdf::Term::Iri("http://example.org/p");
  const rdf::Term q = rdf::Term::Iri("http://example.org/q");
  for (int i = 0; i < 256; ++i) {
    const std::string n = std::to_string(i);
    const rdf::Term b = rdf::Term::Iri("http://example.org/middle/" + n);
    triples.push_back({rdf::Term::Iri("http://example.org/start/" + n), p, b});
    triples.push_back({b, q, rdf::Term::Literal("a literal object " + n)});
  }
  auto engine = engine::ParjEngine::FromTriples(triples);
  if (!engine.ok()) {
    std::fprintf(stderr, "FAIL: DecodeRow check setup: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  auto result = engine->Execute(
      "SELECT ?a ?b ?c WHERE { ?a <http://example.org/p> ?b . "
      "?b <http://example.org/q> ?c }");
  if (!result.ok() || result->row_count != 256) {
    std::fprintf(stderr, "FAIL: DecodeRow check setup\n");
    std::abort();
  }
  uint64_t worst = 0;
  for (size_t row = 0; row < result->row_count; ++row) {
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    const std::vector<std::string> cells = engine->DecodeRow(*result, row);
    worst = std::max(
        worst, g_allocation_count.load(std::memory_order_relaxed) - before);
  }
  if (worst > result->column_count + 1) {
    std::fprintf(stderr,
                 "FAIL: DecodeRow made %llu allocation(s) for a %zu-term "
                 "row (expected at most %zu)\n",
                 static_cast<unsigned long long>(worst), result->column_count,
                 result->column_count + 1);
    std::abort();
  }
  std::printf("DecodeRow allocation check: at most %llu allocations per "
              "%zu-term row\n",
              static_cast<unsigned long long>(worst), result->column_count);
}

/// Prints bytes/triple for the flat and bit-packed replica layouts over
/// the same pair set, so every bench run records the compression ratio
/// next to the latency numbers.
void ReportBytesPerTriple() {
  const TableReplica& flat = Csr();
  const TableReplica& packed = Packed();
  const double n = static_cast<double>(flat.pair_count());
  std::printf(
      "replica bytes/triple: flat %.2f, blocked %.2f (%.2fx smaller, "
      "%zu pairs)\n",
      static_cast<double>(flat.MemoryUsage()) / n,
      static_cast<double>(packed.MemoryUsage()) / n,
      static_cast<double>(flat.MemoryUsage()) /
          static_cast<double>(packed.MemoryUsage()),
      flat.pair_count());
}

}  // namespace
}  // namespace parj::storage

int main(int argc, char** argv) {
  parj::storage::AssertLookupHitsDoNotAllocate();
  parj::storage::AssertStreamEncodeHitsDoNotAllocate();
  parj::storage::AssertNewTermEncodeAllocatesForGrowthOnly();
  parj::storage::AssertDecodeRowAllocatesPerCell();
  parj::storage::ReportBytesPerTriple();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
