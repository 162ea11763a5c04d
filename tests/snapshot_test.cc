#include "storage/snapshot.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "engine/parj_engine.h"
#include "test_util.h"
#include "workload/lubm.h"

namespace parj::storage {
namespace {

using test::MakeDatabase;
using test::Spec;

const Spec kData = {
    {"ProfessorA", "teaches", "Mathematics"},
    {"ProfessorA", "worksFor", "University1"},
    {"ProfessorB", "teaches", "Chemistry"},
};

TEST(SnapshotTest, RoundTripPreservesEverything) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());

  auto restored = ReadSnapshot(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->total_triples(), original.total_triples());
  EXPECT_EQ(restored->predicate_count(), original.predicate_count());
  EXPECT_EQ(restored->dictionary().resource_count(),
            original.dictionary().resource_count());
  // IDs and decoded terms are identical.
  for (TermId id = 1; id <= original.dictionary().resource_count(); ++id) {
    EXPECT_EQ(restored->dictionary().DecodeResource(id),
              original.dictionary().DecodeResource(id));
  }
  // Table contents are identical.
  for (PredicateId pid = 1; pid <= original.predicate_count(); ++pid) {
    const TableReplica& a = original.entry(pid).table.so();
    const TableReplica& b = restored->entry(pid).table.so();
    ASSERT_EQ(a.key_count(), b.key_count());
    for (size_t k = 0; k < a.key_count(); ++k) {
      EXPECT_EQ(a.KeyAt(k), b.KeyAt(k));
      ASSERT_EQ(a.RunLength(k), b.RunLength(k));
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesLiteralKinds) {
  std::vector<rdf::Triple> triples = {
      {rdf::Term::Iri("s"), rdf::Term::Iri("p"), rdf::Term::Literal("plain")},
      {rdf::Term::Iri("s"), rdf::Term::Iri("p"),
       rdf::Term::LangLiteral("bonjour", "fr")},
      {rdf::Term::Iri("s"), rdf::Term::Iri("p"),
       rdf::Term::TypedLiteral("5", "http://dt")},
      {rdf::Term::Blank("b0"), rdf::Term::Iri("q"), rdf::Term::Iri("o")},
  };
  auto engine = engine::ParjEngine::FromTriples(triples);
  ASSERT_TRUE(engine.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(engine->database(), buffer).ok());
  auto restored = ReadSnapshot(buffer);
  ASSERT_TRUE(restored.ok());
  const auto& dict = restored->dictionary();
  EXPECT_NE(dict.LookupResource(rdf::Term::LangLiteral("bonjour", "fr")),
            kInvalidTermId);
  EXPECT_NE(dict.LookupResource(rdf::Term::TypedLiteral("5", "http://dt")),
            kInvalidTermId);
  EXPECT_NE(dict.LookupResource(rdf::Term::Blank("b0")), kInvalidTermId);
}

TEST(SnapshotTest, QueriesAgreeAfterRoundTrip) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 9});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  ASSERT_TRUE(engine.ok());

  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(engine->database(), buffer).ok());
  auto restored_db = ReadSnapshot(buffer);
  ASSERT_TRUE(restored_db.ok());
  // Rebuild an engine around the restored database via a second snapshot
  // pass through FromEncoded-equivalent path: reuse Database directly.
  for (const auto& q : workload::LubmQueries()) {
    engine::QueryOptions opts;
    opts.mode = join::ResultMode::kCount;
    auto original = engine->Execute(q.sparql, opts);
    ASSERT_TRUE(original.ok());

    // Execute against the restored database with the lower-level API.
    auto ast = query::ParseQuery(q.sparql);
    ASSERT_TRUE(ast.ok());
    auto enc = query::EncodeQuery(*ast, *restored_db);
    ASSERT_TRUE(enc.ok());
    auto plan = query::Optimize(*enc, *restored_db);
    ASSERT_TRUE(plan.ok());
    join::Executor executor(&*restored_db);
    join::ExecOptions exec;
    exec.mode = join::ResultMode::kCount;
    auto restored = executor.Execute(*plan, exec);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->row_count, original->row_count) << q.name;
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  Database original = MakeDatabase(kData);
  const std::string path = ::testing::TempDir() + "/parj_snapshot_test.bin";
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  auto restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->total_triples(), 3u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFile) {
  auto restored = LoadSnapshot("/nonexistent/snapshot.bin");
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kIoError);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTASNAP-and-some-more-bytes";
  EXPECT_EQ(ReadSnapshot(buffer).status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, RejectsTruncation) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  // Chop the file at several points; every prefix must fail cleanly.
  for (size_t cut : {size_t{4}, size_t{12}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_FALSE(ReadSnapshot(truncated).ok()) << "cut at " << cut;
  }
}

TEST(SnapshotTest, RejectsFutureVersion) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[8] = 99;  // version field
  std::stringstream patched(bytes);
  EXPECT_EQ(ReadSnapshot(patched).status().code(), StatusCode::kUnsupported);
}

TEST(SnapshotTest, LegacyV1RoundTripStillReads) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(
      WriteSnapshot(original, buffer, kSnapshotVersionLegacy).ok());
  auto restored = ReadSnapshot(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->total_triples(), original.total_triples());

  // Verify walks it too, with zero CRC-verified sections (v1 has none).
  std::stringstream again;
  ASSERT_TRUE(WriteSnapshot(original, again, kSnapshotVersionLegacy).ok());
  auto info = VerifySnapshot(again);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, kSnapshotVersionLegacy);
  EXPECT_EQ(info->sections_verified, 0u);
}

TEST(SnapshotTest, VerifyReportsSectionsAndCounts) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  auto info = VerifySnapshot(buffer);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->triple_count, original.total_triples());
  EXPECT_EQ(info->resource_count, original.dictionary().resource_count());
  EXPECT_EQ(info->predicate_count, original.dictionary().predicate_count());
  EXPECT_EQ(info->sections_verified, 3u);  // dictionary, triples, trailer
  EXPECT_EQ(info->bytes, buffer.str().size());
}

TEST(SnapshotTest, CorruptDictionaryNamedInDataLoss) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  // Flip a byte inside the first term's lexical text: structurally the
  // file still parses, so only the CRC can catch it.
  bytes[30] ^= 0x40;
  std::stringstream corrupted(bytes);
  Status status = ReadSnapshot(corrupted).status();
  ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("dictionary"), std::string::npos);
  EXPECT_NE(status.message().find("offset"), std::string::npos);
}

TEST(SnapshotTest, CorruptDataSectionNamedInDataLoss) {
  Database original = MakeDatabase(kData);
  // v2 names its data section "triples"; v3 packs the tables themselves
  // and names it "tables". Either way the failing section is identified.
  for (const auto& [version, section] :
       {std::pair<uint32_t, const char*>{kSnapshotVersionV2, "triples"},
        std::pair<uint32_t, const char*>{kSnapshotVersion, "tables"}}) {
    std::stringstream buffer;
    ASSERT_TRUE(WriteSnapshot(original, buffer, version).ok());
    std::string bytes = buffer.str();
    // The last 16 bytes are the trailer, 4 more the data-section CRC;
    // flip a payload byte just before them.
    bytes[bytes.size() - 16 - 4 - 2] ^= 0x01;
    std::stringstream corrupted(bytes);
    Status status = VerifySnapshot(corrupted).status();
    ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
    EXPECT_NE(status.message().find(section), std::string::npos)
        << "v" << version << ": " << status.ToString();
  }
}

TEST(SnapshotTest, TrailingGarbageRejected) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str() + "extra";
  std::stringstream padded(bytes);
  Status status = ReadSnapshot(padded).status();
  ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("trailing"), std::string::npos);
}

TEST(SnapshotTest, CorruptTrailerRejected) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[bytes.size() - 1] ^= 0xFF;  // trailer's crc-of-crcs
  std::stringstream corrupted(bytes);
  EXPECT_EQ(VerifySnapshot(corrupted).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotTest, CrcMismatchCountsInGlobalStats) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[30] ^= 0x40;
  const uint64_t before = GlobalSnapshotStats().crc_mismatches.load();
  std::stringstream corrupted(bytes);
  ASSERT_FALSE(ReadSnapshot(corrupted).ok());
  EXPECT_GT(GlobalSnapshotStats().crc_mismatches.load(), before);
}

TEST(SnapshotTest, ParallelLoadMatchesSerialByteForByte) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 3});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  ASSERT_TRUE(engine.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(engine->database(), buffer).ok());
  const std::string bytes = buffer.str();

  auto rewrite = [](const Database& db) {
    std::stringstream out;
    PARJ_CHECK(WriteSnapshot(db, out).ok());
    return out.str();
  };
  std::stringstream serial_in(bytes);
  auto serial = ReadSnapshot(serial_in);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (int threads : {2, 8}) {
    std::stringstream in(bytes);
    SnapshotLoadOptions load;
    load.threads = threads;
    DatabaseOptions db_options;
    db_options.build_threads = threads;
    SnapshotLoadStats stats;
    auto parallel = ReadSnapshot(in, db_options, load, &stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(rewrite(*parallel), rewrite(*serial)) << threads << " threads";
    EXPECT_GE(stats.decode_millis, 0.0);
  }
}

/// Pins the v3 snapshot bytes of a fixed dataset: hand-written N-Triples
/// covering every term kind and escape, then LUBM-1 (seed 42), loaded
/// through the multi-chunk parallel N-Triples path. The length and
/// CRC-32C are the values the format produced before the dictionary kept
/// its terms as N-Triples keys; any change to IDs, triple order or term
/// records shows up here.
TEST(SnapshotTest, GoldenBytesOfFixedDataset) {
  std::string text =
      "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
      "<http://ex.org/with space> <http://ex.org/p> "
      "<http://ex.org/q\"uote\\back> .\n"
      "_:b1 <http://ex.org/p> \"plain\" .\n"
      "_:b1 <http://ex.org/p> \"\" .\n"
      "_:b2 <http://ex.org/p> \"esc \\\" \\\\ \\n \\r \\t end\" .\n"
      "_:b2 <http://ex.org/lang> \"bonjour \\\"monde\\\"\"@fr-CA .\n"
      "_:b2 <http://ex.org/lang> \"\"@en .\n"
      "_:b2 <http://ex.org/typed> "
      "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "_:b2 <http://ex.org/typed> \"\"^^<http://ex.org/dt\"quote> .\n"
      "<http://ex.org/o> <http://ex.org/p\\q> \"a@b^^<c>\" .\n";
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 42});
  for (const EncodedTriple& t : data.triples) {
    text += data.dict.DecodeResource(t.subject).ToNTriples() + " " +
            data.dict.DecodePredicate(t.predicate).ToNTriples() + " " +
            data.dict.DecodeResource(t.object).ToNTriples() + " .\n";
  }
  engine::EngineOptions options;
  options.load.threads = 4;
  options.load.chunk_bytes = 64 << 10;
  auto engine = engine::ParjEngine::FromNTriplesText(text, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_GT(engine->load_stats().chunks, 1u);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(engine->database(), buffer).ok());
  const std::string bytes = buffer.str();
  EXPECT_EQ(bytes.size(), 1053284u);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0xa8743c45u);
}

TEST(SnapshotTest, ParallelLoadDetectsCorruption) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  std::string bytes = buffer.str();
  bytes[30] ^= 0x40;  // inside the first term's text: CRC-only damage
  SnapshotLoadOptions load;
  load.threads = 4;
  std::stringstream corrupted(bytes);
  Status status = ReadSnapshot(corrupted, {}, load).status();
  ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.message().find("dictionary"), std::string::npos);
}

TEST(SnapshotTest, ParallelLoadRejectsTruncation) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
  const std::string bytes = buffer.str();
  SnapshotLoadOptions load;
  load.threads = 4;
  for (size_t cut : {size_t{4}, size_t{12}, size_t{20}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_FALSE(ReadSnapshot(truncated, {}, load).ok()) << "cut at " << cut;
  }
}

TEST(SnapshotTest, ParallelLoadFallsBackOnLegacyV1) {
  Database original = MakeDatabase(kData);
  std::stringstream buffer;
  ASSERT_TRUE(WriteSnapshot(original, buffer, kSnapshotVersionLegacy).ok());
  SnapshotLoadOptions load;
  load.threads = 4;  // v1 has no sections: must fall back to the serial walk
  auto restored = ReadSnapshot(buffer, {}, load);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->total_triples(), original.total_triples());
}

TEST(SnapshotTest, SaveIsAtomicUnderRenameFault) {
  Database original = MakeDatabase(kData);
  const std::string path = ::testing::TempDir() + "/parj_atomic_test.bin";
  ASSERT_TRUE(SaveSnapshot(original, path).ok());

  // A failure at the rename step must leave the previous snapshot intact
  // and clean up the temporary.
  ASSERT_TRUE(failpoint::Arm("snapshot.save.rename", "io:1").ok());
  Status st = SaveSnapshot(original, path);
  failpoint::DisarmAll();
  ASSERT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  auto survivor = LoadSnapshot(path);
  EXPECT_TRUE(survivor.ok()) << survivor.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveWriteFaultLeavesNoFile) {
  Database original = MakeDatabase(kData);
  const std::string path = ::testing::TempDir() + "/parj_writefault_test.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(failpoint::Arm("snapshot.write.triples", "io:1").ok());
  Status st = SaveSnapshot(original, path);
  failpoint::DisarmAll();
  ASSERT_FALSE(st.ok());
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(SnapshotTest, ReadFailpointsInjectCleanly) {
  Database original = MakeDatabase(kData);
  for (const char* point :
       {"snapshot.read.header", "snapshot.read.dictionary",
        "snapshot.read.triples", "snapshot.read.trailer"}) {
    std::stringstream buffer;
    ASSERT_TRUE(WriteSnapshot(original, buffer).ok());
    ASSERT_TRUE(failpoint::Arm(point, "dataloss:1").ok());
    Status status = ReadSnapshot(buffer).status();
    failpoint::DisarmAll();
    ASSERT_EQ(status.code(), StatusCode::kDataLoss) << point;
    EXPECT_NE(status.message().find(point), std::string::npos);
  }
}

}  // namespace
}  // namespace parj::storage
