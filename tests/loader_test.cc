// Bulk-load pipeline determinism (DESIGN.md §10): the chunked parallel
// parser and the engine-level parallel load must be indistinguishable from
// the serial path — same triples, same error lines, byte-identical stores
// — at every thread count and chunk size.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "dict/sharded_encoder.h"
#include "engine/parj_engine.h"
#include "rdf/ntriples.h"
#include "server/thread_pool.h"
#include "storage/export.h"
#include "storage/snapshot.h"
#include "workload/lubm.h"
#include "workload/watdiv.h"

namespace parj::rdf {
namespace {

/// A document exercising every term shape, long and short lines, comments
/// and blank lines, so chunk boundaries land in interesting places.
std::string MakeDocument(int lines) {
  std::string text;
  for (int i = 0; i < lines; ++i) {
    const std::string n = std::to_string(i);
    switch (i % 5) {
      case 0:
        text += "<http://example.org/s" + n + "> <http://example.org/p> "
                "<http://example.org/o" + n + "> .\n";
        break;
      case 1:
        text += "_:b" + n + " <http://example.org/q> \"plain value " + n +
                "\" .\n";
        break;
      case 2:
        text += "<http://example.org/s" + n + "> <http://example.org/r> \"" +
                n + "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        break;
      case 3:
        text += "# comment line " + n + "\n";
        break;
      default:
        text += "<http://example.org/s" + n + "> <http://example.org/q> "
                "\"label " + n + "\"@en .\n";
        break;
    }
    if (i % 7 == 0) text += "\n";  // blank line
  }
  return text;
}

std::vector<Triple> Flatten(const std::vector<ParsedChunk>& chunks) {
  std::vector<Triple> out;
  for (const ParsedChunk& chunk : chunks) {
    out.insert(out.end(), chunk.triples.begin(), chunk.triples.end());
  }
  return out;
}

TEST(LoaderTest, ChunkedParseMatchesSerialAcrossChunkSizes) {
  const std::string text = MakeDocument(200);
  auto serial = NTriplesParser().ParseToVector(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  server::ThreadPool pool(4);
  for (size_t chunk_bytes : {size_t{1}, size_t{64}, size_t{256},
                             size_t{4096}, text.size() * 2}) {
    ParallelParseOptions options;
    options.chunk_bytes = chunk_bytes;
    options.pool = &pool;
    auto chunks = ParseTextParallel(text, options);
    ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
    EXPECT_EQ(Flatten(*chunks), *serial) << "chunk_bytes=" << chunk_bytes;

    // Chunks tile the input and the line accounting is consistent.
    size_t offset = 0;
    uint64_t line = 1;
    for (const ParsedChunk& chunk : *chunks) {
      EXPECT_EQ(chunk.begin_offset, offset);
      EXPECT_EQ(chunk.first_line, line);
      offset = chunk.end_offset;
      line += chunk.line_count;
    }
    EXPECT_EQ(offset, text.size());
  }
}

TEST(LoaderTest, ChunkedParseWithoutPoolIsIdentical) {
  const std::string text = MakeDocument(50);
  ParallelParseOptions small;
  small.chunk_bytes = 128;  // no pool: serial walk of the same chunking
  auto chunks = ParseTextParallel(text, small);
  ASSERT_TRUE(chunks.ok());
  auto serial = NTriplesParser().ParseToVector(text);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(Flatten(*chunks), *serial);
  EXPECT_GT(chunks->size(), 1u);
}

TEST(LoaderTest, EmptyInputYieldsZeroChunks) {
  auto chunks = ParseTextParallel("");
  ASSERT_TRUE(chunks.ok());
  EXPECT_TRUE(chunks->empty());
}

TEST(LoaderTest, MissingTrailingNewlineStillParses) {
  std::string text = "<s1> <p> <o1> .\n<s2> <p> <o2> .";  // no final '\n'
  ParallelParseOptions options;
  options.chunk_bytes = 8;
  auto chunks = ParseTextParallel(text, options);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  EXPECT_EQ(Flatten(*chunks).size(), 2u);
}

TEST(LoaderTest, StrictErrorMatchesSerialLineNumber) {
  std::string text = MakeDocument(40);
  text += "this is not a triple\n";
  const uint64_t bad_line =
      static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
  text += MakeDocument(10);  // more valid lines after the bad one

  NTriplesParser parser;
  Status serial = parser.ParseDocument(text, [](Triple) {});
  ASSERT_FALSE(serial.ok());

  server::ThreadPool pool(4);
  for (size_t chunk_bytes : {size_t{32}, size_t{1024}, text.size() * 2}) {
    ParallelParseOptions options;
    options.chunk_bytes = chunk_bytes;
    options.pool = &pool;
    Status parallel = ParseTextParallel(text, options).status();
    ASSERT_FALSE(parallel.ok()) << "chunk_bytes=" << chunk_bytes;
    // Identical message, including the real file line number.
    EXPECT_EQ(parallel.message(), serial.message());
    EXPECT_NE(parallel.message().find("line " + std::to_string(bad_line)),
              std::string::npos)
        << parallel.message();
  }
}

TEST(LoaderTest, NonStrictRecordsRealErrorLines) {
  // Malformed lines 2 and 5 of a 6-line document.
  const std::string text =
      "<s1> <p> <o1> .\n"
      "garbage one\n"
      "<s2> <p> <o2> .\n"
      "<s3> <p> <o3> .\n"
      "garbage two\n"
      "<s4> <p> <o4> .\n";
  ParallelParseOptions options;
  options.strict = false;
  options.chunk_bytes = 20;  // force several chunks
  auto chunks = ParseTextParallel(text, options);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  EXPECT_EQ(Flatten(*chunks).size(), 4u);

  uint64_t skipped = 0;
  std::vector<uint64_t> error_lines;
  for (const ParsedChunk& chunk : *chunks) {
    skipped += chunk.skipped_lines;
    for (const auto& error : chunk.errors) error_lines.push_back(error.line);
  }
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(error_lines, (std::vector<uint64_t>{2, 5}));
}

}  // namespace
}  // namespace parj::rdf

namespace parj::engine {
namespace {

std::string SnapshotBytes(const storage::Database& db) {
  std::ostringstream out;  // v2 snapshot bytes pin IDs, order, spellings
  Status written = storage::WriteSnapshot(db, out);
  PARJ_CHECK(written.ok()) << written.ToString();
  return std::move(out).str();
}

std::string ExportText(workload::GeneratedData data) {
  auto seed = ParjEngine::FromEncoded(std::move(data.dict),
                                      std::move(data.triples));
  PARJ_CHECK(seed.ok()) << seed.status().ToString();
  std::ostringstream nt;
  Status exported = storage::ExportNTriples(seed->database(), nt);
  PARJ_CHECK(exported.ok()) << exported.ToString();
  return std::move(nt).str();
}

std::string LubmText() {
  return ExportText(workload::GenerateLubm({.universities = 1, .seed = 7}));
}

TEST(LoaderTest, ParallelLoadIsByteIdenticalToSerial) {
  const std::string text = LubmText();
  auto serial = ParjEngine::FromNTriplesText(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string reference = SnapshotBytes(serial->database());

  for (int threads : {2, 8}) {
    for (size_t chunk_bytes : {size_t{1} << 12, size_t{1} << 16,
                               text.size() * 2}) {
      EngineOptions options;
      options.load.threads = threads;
      options.load.chunk_bytes = chunk_bytes;
      auto parallel = ParjEngine::FromNTriplesText(text, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(SnapshotBytes(parallel->database()), reference)
          << threads << " threads, chunk_bytes=" << chunk_bytes;
      EXPECT_EQ(parallel->load_stats().threads, threads);
      EXPECT_GT(parallel->load_stats().chunks, 0u);
    }
  }
}

TEST(LoaderTest, ParallelLoadAnswersQueriesIdentically) {
  const std::string text = LubmText();
  auto serial = ParjEngine::FromNTriplesText(text);
  ASSERT_TRUE(serial.ok());
  EngineOptions options;
  options.load.threads = 4;
  options.load.chunk_bytes = size_t{1} << 14;
  auto parallel = ParjEngine::FromNTriplesText(text, options);
  ASSERT_TRUE(parallel.ok());

  for (const workload::NamedQuery& query : workload::LubmQueries()) {
    QueryOptions opts;
    opts.num_threads = 1;
    auto a = serial->Execute(query.sparql, opts);
    auto b = parallel->Execute(query.sparql, opts);
    ASSERT_TRUE(a.ok()) << query.name;
    ASSERT_TRUE(b.ok()) << query.name;
    EXPECT_EQ(a->row_count, b->row_count) << query.name;
    EXPECT_EQ(a->rows, b->rows) << query.name;
  }
}

TEST(LoaderTest, MidChunkParseErrorStrictAndLenient) {
  std::string text = LubmText();
  // Inject a malformed line roughly mid-file, at a line boundary.
  const size_t mid = text.find('\n', text.size() / 2);
  ASSERT_NE(mid, std::string::npos);
  text.insert(mid + 1, "broken line without a dot\n");

  EngineOptions strict;
  strict.load.threads = 4;
  strict.load.chunk_bytes = size_t{1} << 12;
  auto failed = ParjEngine::FromNTriplesText(text, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kParseError);
  EXPECT_NE(failed.status().message().find("line "), std::string::npos);

  EngineOptions lenient = strict;
  lenient.load.strict = false;
  auto loaded = ParjEngine::FromNTriplesText(text, lenient);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->load_stats().skipped_lines, 1u);
}

TEST(LoaderTest, FromSnapshotFileParallelMatchesDirectLoad) {
  const std::string text = LubmText();
  auto original = ParjEngine::FromNTriplesText(text);
  ASSERT_TRUE(original.ok());
  const std::string path =
      ::testing::TempDir() + "/parj_loader_snapshot_test.bin";
  ASSERT_TRUE(storage::SaveSnapshot(original->database(), path).ok());

  EngineOptions options;
  options.load.threads = 4;
  auto restored = ParjEngine::FromSnapshotFile(path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SnapshotBytes(restored->database()),
            SnapshotBytes(original->database()));
  EXPECT_GT(restored->load_stats().total_millis, 0.0);
}

/// Every line shape a loader must survive: CRLF endings, blank and
/// whitespace-only lines, comments, escaped literals, and malformed lines
/// scattered through the document (the first is line 5).
std::string MixedText() {
  std::string text;
  for (int i = 0; i < 400; ++i) {
    const std::string n = std::to_string(i);
    const std::string eol = (i % 3 == 0) ? "\r\n" : "\n";
    switch (i % 9) {
      case 0:
        text += "<http://example.org/s" + n + "> <http://example.org/p> "
                "<http://example.org/o" + std::to_string(i % 17) + "> ." + eol;
        break;
      case 1:
        text += "_:b" + std::to_string(i % 23) +
                " <http://example.org/q> \"quoted \\\"" + n +
                "\\\" tab\\t\" ." + eol;
        break;
      case 2:
        text += eol;  // blank
        break;
      case 3:
        text += "# comment " + n + eol;
        break;
      case 4:
        text += (i % 2 == 0) ? "<http://example.org/s" + n + "> <p> ." + eol
                             : "\"literal\" <http://example.org/p> <o> ." + eol;
        break;
      case 5:
        text += "<http://example.org/s" + std::to_string(i % 31) +
                "> <http://example.org/r> \"" + n +
                "\"^^<http://www.w3.org/2001/XMLSchema#integer> ." + eol;
        break;
      case 6:
        text += "   \t" + eol;  // whitespace only
        break;
      case 7:
        text += "<http://example.org/s" + n +
                "> <http://example.org/l> \"label " + std::to_string(i % 13) +
                "\"@en-GB ." + eol;
        break;
      default:
        text += "<http://example.org/o" + std::to_string(i % 17) +
                "> <http://example.org/p> _:b" + std::to_string(i % 23) +
                " ." + eol;
        break;
    }
  }
  return text;
}

/// The pre-streaming load: ParseTextParallel materializes every chunk's
/// triples, then EncodeChunk per chunk and MergeEncodedChunks.
struct ReferenceLoad {
  dict::Dictionary dict;
  std::vector<EncodedTriple> triples;
  uint64_t skipped_lines = 0;
};

Result<ReferenceLoad> MaterializedEncode(
    std::string_view text, const rdf::ParallelParseOptions& options) {
  PARJ_ASSIGN_OR_RETURN(std::vector<rdf::ParsedChunk> chunks,
                        rdf::ParseTextParallel(text, options));
  ReferenceLoad out;
  std::vector<dict::EncodedChunk> parts;
  for (const rdf::ParsedChunk& chunk : chunks) {
    parts.push_back(dict::EncodeChunk(out.dict, chunk.triples));
    out.skipped_lines += chunk.skipped_lines;
  }
  PARJ_ASSIGN_OR_RETURN(
      out.triples,
      dict::MergeEncodedChunks(&out.dict, std::move(parts), options.pool));
  return out;
}

void ExpectSameDictionary(const dict::Dictionary& a, const dict::Dictionary& b,
                          const std::string& where) {
  ASSERT_EQ(a.resource_count(), b.resource_count()) << where;
  ASSERT_EQ(a.predicate_count(), b.predicate_count()) << where;
  for (TermId id = 1; id <= a.resource_count(); ++id) {
    ASSERT_EQ(a.DecodeResource(id), b.DecodeResource(id))
        << where << ", resource " << id;
  }
  for (PredicateId id = 1; id <= a.predicate_count(); ++id) {
    ASSERT_EQ(a.DecodePredicate(id), b.DecodePredicate(id))
        << where << ", predicate " << id;
  }
}

/// Streamed load vs the materialized reference, at 1/2/8 threads with
/// dozens of chunks: same dictionary ID by ID, same encoded triple order,
/// same skipped-line count, byte-identical snapshots; in strict mode the
/// same earliest "line N:" error.
void ExpectStreamedMatchesMaterialized(const std::string& name,
                                       const std::string& text, bool strict) {
  const size_t chunk_bytes = std::max<size_t>(64, text.size() / 40);
  for (int threads : {1, 2, 8}) {
    const std::string where = name + ", " + std::to_string(threads) +
                              " threads, strict=" + std::to_string(strict);
    std::optional<server::ThreadPool> pool;
    if (threads > 1) pool.emplace(threads);
    rdf::ParallelParseOptions options;
    options.strict = strict;
    options.chunk_bytes = chunk_bytes;
    options.pool = pool.has_value() ? &*pool : nullptr;

    auto reference = MaterializedEncode(text, options);
    dict::Dictionary streamed_dict;
    dict::NTriplesEncodeStats stats;
    auto streamed =
        dict::EncodeNTriples(&streamed_dict, text, options, &stats);
    EngineOptions engine_options;
    engine_options.load.threads = threads;
    engine_options.load.chunk_bytes = chunk_bytes;
    engine_options.load.strict = strict;
    auto engine = ParjEngine::FromNTriplesText(text, engine_options);

    ASSERT_EQ(streamed.ok(), reference.ok()) << where;
    ASSERT_EQ(engine.ok(), reference.ok()) << where;
    if (!reference.ok()) {
      EXPECT_EQ(streamed.status(), reference.status()) << where;
      EXPECT_EQ(engine.status(), reference.status()) << where;
      EXPECT_EQ(reference.status().message().rfind("line ", 0), 0u) << where;
      continue;
    }
    EXPECT_GE(stats.chunks, 24u) << where;
    ExpectSameDictionary(streamed_dict, reference->dict, where);
    EXPECT_EQ(*streamed, reference->triples) << where;
    EXPECT_EQ(stats.skipped_lines, reference->skipped_lines) << where;
    EXPECT_EQ(engine->load_stats().skipped_lines, reference->skipped_lines)
        << where;
    auto expected = ParjEngine::FromEncoded(std::move(reference->dict),
                                            std::move(reference->triples));
    ASSERT_TRUE(expected.ok()) << where;
    EXPECT_EQ(SnapshotBytes(engine->database()),
              SnapshotBytes(expected->database()))
        << where;
  }
}

TEST(LoaderTest, FileLoadMatchesTextLoad) {
  const std::string text = LubmText();
  const std::string path = ::testing::TempDir() + "/parj_loader_file.nt";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  EngineOptions options;
  options.load.threads = 2;
  options.load.chunk_bytes = size_t{1} << 14;
  auto from_file = ParjEngine::FromNTriplesFile(path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  auto from_text = ParjEngine::FromNTriplesText(text, options);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(SnapshotBytes(from_file->database()),
            SnapshotBytes(from_text->database()));
  EXPECT_EQ(from_file->load_stats().chunks, from_text->load_stats().chunks);
  EXPECT_GE(from_file->load_stats().read_millis, 0.0);
}

TEST(LoaderTest, StreamedLoadMatchesMaterializedOnLubm) {
  ExpectStreamedMatchesMaterialized("lubm", LubmText(), /*strict=*/true);
}

TEST(LoaderTest, StreamedLoadMatchesMaterializedOnWatdiv) {
  ExpectStreamedMatchesMaterialized(
      "watdiv", ExportText(workload::GenerateWatdiv({.scale = 1, .seed = 7})),
      /*strict=*/true);
}

TEST(LoaderTest, StreamedLoadMatchesMaterializedOnMixedLines) {
  const std::string text = MixedText();
  ExpectStreamedMatchesMaterialized("mixed", text, /*strict=*/false);
  ExpectStreamedMatchesMaterialized("mixed", text, /*strict=*/true);

  EngineOptions strict;
  strict.load.chunk_bytes = 64;
  auto failed = ParjEngine::FromNTriplesText(text, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message().rfind("line 5: ", 0), 0u)
      << failed.status().message();
  EngineOptions lenient = strict;
  lenient.load.strict = false;
  auto loaded = ParjEngine::FromNTriplesText(text, lenient);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->load_stats().skipped_lines, 44u);  // i % 9 == 4, i < 400
}

}  // namespace
}  // namespace parj::engine
