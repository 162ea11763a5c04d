#include "storage/snapshot.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/crc32c.h"
#include "common/durable_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "server/thread_pool.h"
#include "storage/compressed.h"

namespace parj::storage {

SnapshotStats& GlobalSnapshotStats() {
  static SnapshotStats* stats = new SnapshotStats();
  return *stats;
}

namespace {

constexpr char kMagic[8] = {'P', 'A', 'R', 'J', 'S', 'N', 'A', 'P'};
constexpr size_t kMaxStringLength = 1u << 24;  // 16 MB per term, sanity cap

// Section ids. The trailer id spells "TRLR" so a hex dump of a healthy
// snapshot ends recognizably. v2 data lives in kSectionTriples, v3 data
// in kSectionTables (bit-packed SO replicas).
constexpr uint32_t kSectionDictionary = 1;
constexpr uint32_t kSectionTriples = 2;
constexpr uint32_t kSectionTables = 3;
constexpr uint32_t kSectionTrailer = 0x524C5254u;  // "TRLR" in an LE dump

/// Streaming writer: every byte goes straight to the ostream; while a
/// section is open its payload bytes are folded into a running CRC-32C,
/// which EndSection appends (and records for the trailer).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::ostream& out) : out_(out) {}

  void WriteBytes(const void* data, size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    if (crc_active_) crc_ = Crc32cExtend(crc_, data, n);
  }
  void WriteU8(uint8_t v) { WriteBytes(&v, 1); }
  void WriteU32(uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    WriteBytes(buf, 4);
  }
  void WriteU64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    WriteBytes(buf, 8);
  }
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes(s.data(), s.size());
  }
  void WriteTerm(const rdf::Term& term) {
    WriteU8(static_cast<uint8_t>(term.kind()));
    WriteString(term.lexical());
    WriteString(term.datatype());
    WriteString(term.lang());
  }

  void BeginSection(uint32_t id) {
    WriteU32(id);  // header, not covered by the section CRC
    crc_ = 0;
    crc_active_ = true;
  }
  void EndSection() {
    crc_active_ = false;
    section_crcs_.push_back(crc_);
    WriteU32(crc_);
  }
  void WriteTrailer() {
    WriteU32(kSectionTrailer);
    WriteU64(section_crcs_.size());
    WriteU32(Crc32c(section_crcs_.data(),
                    section_crcs_.size() * sizeof(uint32_t)));
  }

  bool good() const { return static_cast<bool>(out_); }

 private:
  std::ostream& out_;
  uint32_t crc_ = 0;
  bool crc_active_ = false;
  std::vector<uint32_t> section_crcs_;
};

/// Streaming reader mirror: tracks the byte offset (for error messages)
/// and folds bytes read while a section is open into a running CRC.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream& in) : in_(in) {}

  Status ReadBytes(void* buf, size_t n, const char* what) {
    if (n > 0 &&
        !in_.read(static_cast<char*>(buf), static_cast<std::streamsize>(n))) {
      return Status::IoError("truncated snapshot (" + std::string(what) +
                             ") at offset " + std::to_string(offset_));
    }
    offset_ += n;
    if (crc_active_) crc_ = Crc32cExtend(crc_, buf, n);
    return Status::OK();
  }
  Result<uint8_t> ReadU8(const char* what) {
    uint8_t v;
    PARJ_RETURN_NOT_OK(ReadBytes(&v, 1, what));
    return v;
  }
  Result<uint32_t> ReadU32(const char* what) {
    char buf[4];
    PARJ_RETURN_NOT_OK(ReadBytes(buf, 4, what));
    uint32_t v;
    std::memcpy(&v, buf, 4);
    return v;
  }
  Result<uint64_t> ReadU64(const char* what) {
    char buf[8];
    PARJ_RETURN_NOT_OK(ReadBytes(buf, 8, what));
    uint64_t v;
    std::memcpy(&v, buf, 8);
    return v;
  }
  Result<std::string> ReadString() {
    PARJ_ASSIGN_OR_RETURN(uint32_t length, ReadU32("string length"));
    if (length > kMaxStringLength) {
      return Status::ParseError(
          "snapshot string length exceeds sanity cap at offset " +
          std::to_string(offset_ - 4));
    }
    std::string s(length, '\0');
    PARJ_RETURN_NOT_OK(ReadBytes(s.data(), length, "string"));
    return s;
  }
  Result<rdf::Term> ReadTerm() {
    PARJ_ASSIGN_OR_RETURN(uint8_t kind_byte, ReadU8("term"));
    PARJ_ASSIGN_OR_RETURN(std::string lexical, ReadString());
    PARJ_ASSIGN_OR_RETURN(std::string datatype, ReadString());
    PARJ_ASSIGN_OR_RETURN(std::string lang, ReadString());
    switch (static_cast<rdf::TermKind>(kind_byte)) {
      case rdf::TermKind::kIri:
        return rdf::Term::Iri(std::move(lexical));
      case rdf::TermKind::kBlank:
        return rdf::Term::Blank(std::move(lexical));
      case rdf::TermKind::kLiteral:
        if (!lang.empty()) {
          return rdf::Term::LangLiteral(std::move(lexical), std::move(lang));
        }
        if (!datatype.empty()) {
          return rdf::Term::TypedLiteral(std::move(lexical),
                                         std::move(datatype));
        }
        return rdf::Term::Literal(std::move(lexical));
    }
    return Status::ParseError("snapshot term has unknown kind " +
                              std::to_string(kind_byte) + " at offset " +
                              std::to_string(offset_));
  }

  void BeginCrc() {
    crc_ = 0;
    crc_active_ = true;
  }
  uint32_t EndCrc() {
    crc_active_ = false;
    return crc_;
  }

  /// Reads the stored section CRC (not folded into any CRC) and compares
  /// it to the computed payload CRC.
  Status VerifySectionCrc(const char* section, uint32_t computed) {
    const uint64_t payload_end = offset_;
    PARJ_ASSIGN_OR_RETURN(uint32_t stored, ReadU32("section CRC"));
    if (stored != computed) {
      GlobalSnapshotStats().crc_mismatches.fetch_add(
          1, std::memory_order_relaxed);
      char detail[64];
      std::snprintf(detail, sizeof(detail), " (stored %08x, computed %08x)",
                    stored, computed);
      return Status::DataLoss("snapshot section '" + std::string(section) +
                              "' CRC mismatch at offset " +
                              std::to_string(payload_end) + detail);
    }
    GlobalSnapshotStats().crc_sections_verified.fetch_add(
        1, std::memory_order_relaxed);
    return Status::OK();
  }

  bool AtEof() {
    return in_.peek() == std::istream::traits_type::eof();
  }
  uint64_t offset() const { return offset_; }

 private:
  std::istream& in_;
  uint64_t offset_ = 0;
  uint32_t crc_ = 0;
  bool crc_active_ = false;
};

// --- v3 packed-table payload helpers ---------------------------------------

/// Serializes one bit-packed column: logical size, payload word count,
/// payload words, then the per-block word offsets and meta bytes (their
/// counts derive from the size).
void WritePackedColumn(SnapshotWriter& writer, const PackedColumn& col) {
  writer.WriteU32(col.size);
  writer.WriteU64(col.words.size());
  writer.WriteBytes(col.words.data(), col.words.size() * sizeof(uint64_t));
  writer.WriteBytes(col.block_word.data(),
                    col.block_word.size() * sizeof(uint32_t));
  writer.WriteBytes(col.meta.data(), col.meta.size());
}

/// Reads and structurally validates one packed column: every width must
/// be <= 32 and every block's payload (plus the decoder's one-word
/// overread allowance) must sit inside the word array, so a decoder can
/// never read out of bounds even on data that defeats the CRC.
Status ReadPackedColumn(SnapshotReader& reader, PackedColumn* col,
                        const char* what) {
  PARJ_ASSIGN_OR_RETURN(col->size, reader.ReadU32(what));
  PARJ_ASSIGN_OR_RETURN(uint64_t word_count, reader.ReadU64(what));
  const size_t blocks =
      (static_cast<size_t>(col->size) + kPackBlock - 1) / kPackBlock;
  // Widest legal encoding: 32-bit fields, word-aligned blocks, one guard.
  const uint64_t max_words =
      static_cast<uint64_t>(blocks) * (kPackBlock * 32 / 64 + 1) + 1;
  if (word_count > max_words) {
    return Status::ParseError("snapshot packed column '" + std::string(what) +
                              "' has implausible word count " +
                              std::to_string(word_count));
  }
  col->words.resize(static_cast<size_t>(word_count));
  PARJ_RETURN_NOT_OK(reader.ReadBytes(col->words.data(),
                                      col->words.size() * sizeof(uint64_t),
                                      what));
  col->block_word.resize(blocks);
  PARJ_RETURN_NOT_OK(reader.ReadBytes(col->block_word.data(),
                                      blocks * sizeof(uint32_t), what));
  col->meta.resize(blocks);
  PARJ_RETURN_NOT_OK(reader.ReadBytes(col->meta.data(), blocks, what));
  for (size_t b = 0; b < blocks; ++b) {
    const unsigned width = col->meta[b] & kPackWidthMask;
    if (width > 32) {
      return Status::ParseError("snapshot packed column '" +
                                std::string(what) + "' block " +
                                std::to_string(b) + " has width " +
                                std::to_string(width));
    }
    const uint64_t needed =
        (static_cast<uint64_t>(col->BlockLen(b)) * width + 63) / 64;
    if (static_cast<uint64_t>(col->block_word[b]) + needed + 1 > word_count) {
      return Status::ParseError("snapshot packed column '" +
                                std::string(what) + "' block " +
                                std::to_string(b) +
                                " payload exceeds word array");
    }
  }
  return Status::OK();
}

/// Serializes one replica's packed form. The encoder is deterministic, so
/// the bytes are identical whether the source store was flat (packed on
/// the fly) or already compressed.
void WritePackedReplica(SnapshotWriter& writer, const CompressedReplica& r) {
  writer.WriteU32(static_cast<uint32_t>(r.key_count()));
  writer.WriteU64(r.lens.total);
  if (r.key_count() == 0) return;
  writer.WriteU32(r.min_key);
  writer.WriteU32(r.max_key);
  WritePackedColumn(writer, r.keys.col);
  writer.WriteBytes(r.keys.minima.data(),
                    r.keys.minima.size() * sizeof(TermId));
  WritePackedColumn(writer, r.lens.col);
  writer.WriteBytes(r.lens.base.data(), r.lens.base.size() * sizeof(uint64_t));
  writer.WriteBytes(r.lens.min_len.data(),
                    r.lens.min_len.size() * sizeof(uint32_t));
  WritePackedColumn(writer, r.vals.col);
  writer.WriteBytes(r.vals.minima.data(),
                    r.vals.minima.size() * sizeof(TermId));
}

/// Reads one packed replica and (when `triples` is non-null) decodes it
/// back into (key, pid, value) triples. Returns the replica's pair count.
Result<uint64_t> ReadPackedReplica(SnapshotReader& reader, PredicateId pid,
                                   std::vector<EncodedTriple>* triples) {
  PARJ_ASSIGN_OR_RETURN(uint32_t key_count, reader.ReadU32("table key count"));
  PARJ_ASSIGN_OR_RETURN(uint64_t pair_count,
                        reader.ReadU64("table pair count"));
  if (key_count == 0) {
    if (pair_count != 0) {
      return Status::ParseError("snapshot table for predicate " +
                                std::to_string(pid) +
                                " has pairs but no keys");
    }
    return uint64_t{0};
  }
  CompressedReplica r;
  PARJ_ASSIGN_OR_RETURN(r.min_key, reader.ReadU32("table min key"));
  PARJ_ASSIGN_OR_RETURN(r.max_key, reader.ReadU32("table max key"));
  r.lens.total = pair_count;

  PARJ_RETURN_NOT_OK(ReadPackedColumn(reader, &r.keys.col, "keys"));
  if (r.keys.col.size != key_count) {
    return Status::ParseError("snapshot key column size mismatch");
  }
  const size_t key_blocks = r.keys.col.block_count();
  r.keys.minima.resize(key_blocks);
  PARJ_RETURN_NOT_OK(reader.ReadBytes(r.keys.minima.data(),
                                      key_blocks * sizeof(TermId),
                                      "key minima"));

  PARJ_RETURN_NOT_OK(ReadPackedColumn(reader, &r.lens.col, "lengths"));
  if (r.lens.col.size != key_count) {
    return Status::ParseError("snapshot length column size mismatch");
  }
  r.lens.base.resize(key_blocks);
  PARJ_RETURN_NOT_OK(reader.ReadBytes(r.lens.base.data(),
                                      key_blocks * sizeof(uint64_t),
                                      "length bases"));
  r.lens.min_len.resize(key_blocks);
  PARJ_RETURN_NOT_OK(reader.ReadBytes(r.lens.min_len.data(),
                                      key_blocks * sizeof(uint32_t),
                                      "length minima"));

  PARJ_RETURN_NOT_OK(ReadPackedColumn(reader, &r.vals.col, "values"));
  if (r.vals.col.size != pair_count) {
    return Status::ParseError("snapshot value column size mismatch");
  }
  const size_t val_blocks = r.vals.col.block_count();
  r.vals.minima.resize(val_blocks);
  PARJ_RETURN_NOT_OK(reader.ReadBytes(r.vals.minima.data(),
                                      val_blocks * sizeof(TermId),
                                      "value minima"));
  if (triples == nullptr) return pair_count;

  // Decode back to flat arrays. Database::Build revalidates and re-sorts
  // the triples, so decode errors that survive the CRC can only yield a
  // load failure or a well-formed store, never a malformed one.
  std::vector<TermId> keys(key_count);
  for (size_t b = 0; b < key_blocks; ++b) {
    DecodeKeyBlock(r.keys, b, keys.data() + b * kPackBlock);
  }
  std::vector<uint64_t> offsets(static_cast<size_t>(key_count) + 1);
  uint64_t len_buf[kPackBlock + 1];
  for (size_t b = 0; b < key_blocks; ++b) {
    DecodeLengthBlock(r.lens, b, len_buf);
    const size_t len = r.lens.col.BlockLen(b);
    for (size_t i = 0; i <= len; ++i) offsets[b * kPackBlock + i] = len_buf[i];
  }
  if (offsets.front() != 0 || offsets.back() != pair_count) {
    return Status::ParseError("snapshot table offsets do not cover pairs");
  }
  for (size_t i = 0; i < key_count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::ParseError("snapshot table offsets not monotone");
    }
  }
  std::vector<TermId> values(static_cast<size_t>(pair_count));
  for (size_t b = 0; b < val_blocks; ++b) {
    DecodeValueBlock(r.vals, b, values.data() + b * kPackBlock);
  }
  for (size_t k = 0; k < key_count; ++k) {
    const TermId s = keys[k];
    for (uint64_t i = offsets[k]; i < offsets[k + 1]; ++i) {
      triples->push_back(EncodedTriple{s, pid, values[i]});
    }
  }
  return pair_count;
}

/// Shared walker behind ReadSnapshot (build == true: populate dict +
/// triples) and VerifySnapshot (build == false: decode and discard).
Status ParseSnapshot(std::istream& in, bool build, dict::Dictionary* dict,
                     std::vector<EncodedTriple>* triples, SnapshotInfo* info) {
  SnapshotReader reader(in);
  char magic[sizeof(kMagic)];
  PARJ_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic), "magic"));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a PARJ snapshot (bad magic)");
  }
  PARJ_FAILPOINT("snapshot.read.header");
  PARJ_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32("version"));
  if (version != kSnapshotVersion && version != kSnapshotVersionV2 &&
      version != kSnapshotVersionLegacy) {
    return Status::Unsupported("snapshot version " + std::to_string(version) +
                               " (supported: " +
                               std::to_string(kSnapshotVersionLegacy) + ", " +
                               std::to_string(kSnapshotVersionV2) + ", " +
                               std::to_string(kSnapshotVersion) + ")");
  }
  info->version = version;
  PARJ_ASSIGN_OR_RETURN(uint32_t flags, reader.ReadU32("flags"));
  if (flags != 0) {
    return Status::Unsupported("snapshot uses unknown flags");
  }
  const bool checked = version >= kSnapshotVersionV2;
  std::vector<uint32_t> section_crcs;

  // --- dictionary section -----------------------------------------------
  PARJ_FAILPOINT("snapshot.read.dictionary");
  if (checked) {
    PARJ_ASSIGN_OR_RETURN(uint32_t id, reader.ReadU32("section id"));
    if (id != kSectionDictionary) {
      return Status::DataLoss(
          "snapshot dictionary section has wrong id " + std::to_string(id) +
          " at offset " + std::to_string(reader.offset() - 4));
    }
    reader.BeginCrc();
  }
  PARJ_ASSIGN_OR_RETURN(uint32_t resource_count,
                        reader.ReadU32("resource count"));
  info->resource_count = resource_count;
  for (uint32_t i = 0; i < resource_count; ++i) {
    PARJ_ASSIGN_OR_RETURN(rdf::Term term, reader.ReadTerm());
    if (build) {
      TermId id = dict->EncodeResource(term);
      if (id != i + 1) {
        return Status::ParseError("snapshot contains duplicate resource terms");
      }
    }
  }
  PARJ_ASSIGN_OR_RETURN(uint32_t predicate_count,
                        reader.ReadU32("predicate count"));
  info->predicate_count = predicate_count;
  for (uint32_t i = 0; i < predicate_count; ++i) {
    PARJ_ASSIGN_OR_RETURN(rdf::Term term, reader.ReadTerm());
    if (build) {
      PredicateId id = dict->EncodePredicate(term);
      if (id != i + 1) {
        return Status::ParseError(
            "snapshot contains duplicate predicate terms");
      }
    }
  }
  if (checked) {
    const uint32_t computed = reader.EndCrc();
    PARJ_RETURN_NOT_OK(reader.VerifySectionCrc("dictionary", computed));
    section_crcs.push_back(computed);
    ++info->sections_verified;
  }

  // --- data section (v1/v2: raw triples; v3: packed tables) -------------
  PARJ_FAILPOINT("snapshot.read.triples");
  if (version >= kSnapshotVersion) {
    PARJ_ASSIGN_OR_RETURN(uint32_t id, reader.ReadU32("section id"));
    if (id != kSectionTables) {
      return Status::DataLoss(
          "snapshot tables section has wrong id " + std::to_string(id) +
          " at offset " + std::to_string(reader.offset() - 4));
    }
    reader.BeginCrc();
    PARJ_ASSIGN_OR_RETURN(uint64_t triple_count,
                          reader.ReadU64("triple count"));
    info->triple_count = triple_count;
    PARJ_ASSIGN_OR_RETURN(uint32_t table_count, reader.ReadU32("table count"));
    if (table_count != info->predicate_count) {
      return Status::DataLoss(
          "snapshot has " + std::to_string(table_count) +
          " tables for " + std::to_string(info->predicate_count) +
          " predicates");
    }
    if (build) {
      triples->reserve(std::min<uint64_t>(triple_count, uint64_t{1} << 24));
    }
    uint64_t decoded = 0;
    for (uint32_t p = 0; p < table_count; ++p) {
      PARJ_ASSIGN_OR_RETURN(
          uint64_t pairs,
          ReadPackedReplica(reader, static_cast<PredicateId>(p + 1),
                            build ? triples : nullptr));
      decoded += pairs;
    }
    if (decoded != triple_count) {
      return Status::DataLoss("snapshot tables hold " +
                              std::to_string(decoded) + " triples, header "
                              "says " + std::to_string(triple_count));
    }
    const uint32_t computed = reader.EndCrc();
    PARJ_RETURN_NOT_OK(reader.VerifySectionCrc("tables", computed));
    section_crcs.push_back(computed);
    ++info->sections_verified;
  } else {
    if (checked) {
      PARJ_ASSIGN_OR_RETURN(uint32_t id, reader.ReadU32("section id"));
      if (id != kSectionTriples) {
        return Status::DataLoss(
            "snapshot triples section has wrong id " + std::to_string(id) +
            " at offset " + std::to_string(reader.offset() - 4));
      }
      reader.BeginCrc();
    }
    PARJ_ASSIGN_OR_RETURN(uint64_t triple_count,
                          reader.ReadU64("triple count"));
    info->triple_count = triple_count;
    if (build) {
      // Do not trust the header for a giant up-front allocation; a
      // corrupted count will fail on the truncated read (or the CRC)
      // instead.
      triples->reserve(std::min<uint64_t>(triple_count, uint64_t{1} << 24));
    }
    for (uint64_t i = 0; i < triple_count; ++i) {
      EncodedTriple t;
      PARJ_ASSIGN_OR_RETURN(t.subject, reader.ReadU32("triple subject"));
      PARJ_ASSIGN_OR_RETURN(t.predicate, reader.ReadU32("triple predicate"));
      PARJ_ASSIGN_OR_RETURN(t.object, reader.ReadU32("triple object"));
      if (build) triples->push_back(t);
    }
    if (checked) {
      const uint32_t computed = reader.EndCrc();
      PARJ_RETURN_NOT_OK(reader.VerifySectionCrc("triples", computed));
      section_crcs.push_back(computed);
      ++info->sections_verified;
    }
  }

  // --- trailer ----------------------------------------------------------
  if (checked) {
    PARJ_FAILPOINT("snapshot.read.trailer");
    PARJ_ASSIGN_OR_RETURN(uint32_t id, reader.ReadU32("trailer id"));
    if (id != kSectionTrailer) {
      return Status::DataLoss("snapshot trailer has wrong id " +
                              std::to_string(id) + " at offset " +
                              std::to_string(reader.offset() - 4));
    }
    PARJ_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64("trailer count"));
    if (count != section_crcs.size()) {
      return Status::DataLoss("snapshot trailer records " +
                              std::to_string(count) + " sections, expected " +
                              std::to_string(section_crcs.size()));
    }
    PARJ_ASSIGN_OR_RETURN(uint32_t stored, reader.ReadU32("trailer CRC"));
    const uint32_t computed = Crc32c(section_crcs.data(),
                                     section_crcs.size() * sizeof(uint32_t));
    if (stored != computed) {
      GlobalSnapshotStats().crc_mismatches.fetch_add(
          1, std::memory_order_relaxed);
      return Status::DataLoss("snapshot section 'trailer' CRC mismatch at "
                              "offset " + std::to_string(reader.offset() - 4));
    }
    GlobalSnapshotStats().crc_sections_verified.fetch_add(
        1, std::memory_order_relaxed);
    ++info->sections_verified;
    if (!reader.AtEof()) {
      return Status::DataLoss("snapshot has trailing bytes after trailer at "
                              "offset " + std::to_string(reader.offset()));
    }
  }
  info->bytes = reader.offset();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Buffered parallel load path (v2 snapshots, SnapshotLoadOptions.threads > 1)
//
// A serial structural scan walks the buffer once — cheap, it only follows
// length fields — recording section payload spans, every term record's
// offset, and the triple array's span. The expensive work (CRC-32C over the
// payloads, term string materialization, triple record decode) then runs in
// parallel over disjoint ranges. Every structural check of the streaming
// reader is replicated with the same status codes, messages, and offsets,
// so corruption reports do not depend on which path loaded the file.
// ---------------------------------------------------------------------------

/// Byte spans of one v2 section: [payload_begin, payload_end) is CRC-covered;
/// the stored CRC word sits at payload_end.
struct SectionSpan {
  size_t payload_begin = 0;
  size_t payload_end = 0;
  uint32_t stored_crc = 0;
};

/// Everything the structural scan learns about a v2 snapshot buffer.
struct SnapshotLayout {
  SectionSpan dictionary;
  SectionSpan triples;
  uint32_t resource_count = 0;
  uint32_t predicate_count = 0;
  /// Offset of each term record, resources first then predicates.
  std::vector<size_t> term_offsets;
  uint64_t triple_count = 0;
  size_t triples_begin = 0;  ///< offset of the first 12-byte triple record
  uint64_t trailer_section_count = 0;
  uint32_t trailer_stored_crc = 0;
  size_t trailer_crc_offset = 0;  ///< offset just past the stored trailer CRC
  size_t end = 0;                 ///< offset just past the trailer
};

/// Bounds-checked cursor over the snapshot buffer; mirrors SnapshotReader's
/// error wording ("truncated snapshot (<what>) at offset N").
class BufferCursor {
 public:
  BufferCursor(const char* data, size_t size) : data_(data), size_(size) {}

  Status Skip(size_t n, const char* what) {
    if (n > size_ - pos_ || pos_ > size_) {
      return Status::IoError("truncated snapshot (" + std::string(what) +
                             ") at offset " + std::to_string(pos_));
    }
    pos_ += n;
    return Status::OK();
  }
  Result<uint8_t> ReadU8(const char* what) {
    PARJ_RETURN_NOT_OK(Skip(1, what));
    return static_cast<uint8_t>(data_[pos_ - 1]);
  }
  Result<uint32_t> ReadU32(const char* what) {
    PARJ_RETURN_NOT_OK(Skip(4, what));
    uint32_t v;
    std::memcpy(&v, data_ + pos_ - 4, 4);
    return v;
  }
  Result<uint64_t> ReadU64(const char* what) {
    PARJ_RETURN_NOT_OK(Skip(8, what));
    uint64_t v;
    std::memcpy(&v, data_ + pos_ - 8, 8);
    return v;
  }
  /// Skips one length-prefixed string, enforcing the sanity cap with the
  /// streaming reader's message and offset.
  Status SkipString() {
    PARJ_ASSIGN_OR_RETURN(uint32_t length, ReadU32("string length"));
    if (length > kMaxStringLength) {
      return Status::ParseError(
          "snapshot string length exceeds sanity cap at offset " +
          std::to_string(pos_ - 4));
    }
    return Skip(length, "string");
  }
  size_t pos() const { return pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Structural scan of a v2 snapshot. Validates everything the streaming
/// walker validates except the CRCs themselves (recorded for later parallel
/// verification) and term uniqueness (checked by the dictionary insert).
Status ScanSnapshotV2(const char* data, size_t size, SnapshotLayout* layout,
                      SnapshotInfo* info) {
  BufferCursor cur(data, size);
  PARJ_RETURN_NOT_OK(cur.Skip(sizeof(kMagic), "magic"));
  PARJ_FAILPOINT("snapshot.read.header");
  PARJ_ASSIGN_OR_RETURN(uint32_t version, cur.ReadU32("version"));
  PARJ_CHECK(version == kSnapshotVersionV2)
      << "ScanSnapshotV2 called for version " << version;
  info->version = version;
  PARJ_ASSIGN_OR_RETURN(uint32_t flags, cur.ReadU32("flags"));
  if (flags != 0) {
    return Status::Unsupported("snapshot uses unknown flags");
  }

  // Scans one term record: kind byte + three strings. The streaming reader
  // materializes the strings before judging the kind byte, so string errors
  // take precedence and the unknown-kind offset is the record's END.
  const auto scan_term = [&]() -> Status {
    PARJ_ASSIGN_OR_RETURN(uint8_t kind_byte, cur.ReadU8("term"));
    PARJ_RETURN_NOT_OK(cur.SkipString());
    PARJ_RETURN_NOT_OK(cur.SkipString());
    PARJ_RETURN_NOT_OK(cur.SkipString());
    if (kind_byte > static_cast<uint8_t>(rdf::TermKind::kBlank)) {
      return Status::ParseError("snapshot term has unknown kind " +
                                std::to_string(kind_byte) + " at offset " +
                                std::to_string(cur.pos()));
    }
    return Status::OK();
  };

  // --- dictionary section -----------------------------------------------
  PARJ_FAILPOINT("snapshot.read.dictionary");
  {
    PARJ_ASSIGN_OR_RETURN(uint32_t id, cur.ReadU32("section id"));
    if (id != kSectionDictionary) {
      return Status::DataLoss("snapshot dictionary section has wrong id " +
                              std::to_string(id) + " at offset " +
                              std::to_string(cur.pos() - 4));
    }
  }
  layout->dictionary.payload_begin = cur.pos();
  PARJ_ASSIGN_OR_RETURN(layout->resource_count, cur.ReadU32("resource count"));
  info->resource_count = layout->resource_count;
  layout->term_offsets.reserve(static_cast<size_t>(layout->resource_count));
  for (uint32_t i = 0; i < layout->resource_count; ++i) {
    layout->term_offsets.push_back(cur.pos());
    PARJ_RETURN_NOT_OK(scan_term());
  }
  PARJ_ASSIGN_OR_RETURN(layout->predicate_count,
                        cur.ReadU32("predicate count"));
  info->predicate_count = layout->predicate_count;
  for (uint32_t i = 0; i < layout->predicate_count; ++i) {
    layout->term_offsets.push_back(cur.pos());
    PARJ_RETURN_NOT_OK(scan_term());
  }
  layout->dictionary.payload_end = cur.pos();
  PARJ_ASSIGN_OR_RETURN(layout->dictionary.stored_crc,
                        cur.ReadU32("section CRC"));

  // --- triples section --------------------------------------------------
  PARJ_FAILPOINT("snapshot.read.triples");
  {
    PARJ_ASSIGN_OR_RETURN(uint32_t id, cur.ReadU32("section id"));
    if (id != kSectionTriples) {
      return Status::DataLoss("snapshot triples section has wrong id " +
                              std::to_string(id) + " at offset " +
                              std::to_string(cur.pos() - 4));
    }
  }
  layout->triples.payload_begin = cur.pos();
  PARJ_ASSIGN_OR_RETURN(layout->triple_count, cur.ReadU64("triple count"));
  info->triple_count = layout->triple_count;
  layout->triples_begin = cur.pos();
  for (uint64_t i = 0; i < layout->triple_count; ++i) {
    PARJ_RETURN_NOT_OK(cur.Skip(4, "triple subject"));
    PARJ_RETURN_NOT_OK(cur.Skip(4, "triple predicate"));
    PARJ_RETURN_NOT_OK(cur.Skip(4, "triple object"));
  }
  layout->triples.payload_end = cur.pos();
  PARJ_ASSIGN_OR_RETURN(layout->triples.stored_crc, cur.ReadU32("section CRC"));

  // --- trailer ----------------------------------------------------------
  PARJ_FAILPOINT("snapshot.read.trailer");
  {
    PARJ_ASSIGN_OR_RETURN(uint32_t id, cur.ReadU32("trailer id"));
    if (id != kSectionTrailer) {
      return Status::DataLoss("snapshot trailer has wrong id " +
                              std::to_string(id) + " at offset " +
                              std::to_string(cur.pos() - 4));
    }
  }
  PARJ_ASSIGN_OR_RETURN(layout->trailer_section_count,
                        cur.ReadU64("trailer count"));
  if (layout->trailer_section_count != 2) {
    return Status::DataLoss("snapshot trailer records " +
                            std::to_string(layout->trailer_section_count) +
                            " sections, expected 2");
  }
  PARJ_ASSIGN_OR_RETURN(layout->trailer_stored_crc, cur.ReadU32("trailer CRC"));
  layout->trailer_crc_offset = cur.pos();
  if (cur.pos() != size) {
    return Status::DataLoss("snapshot has trailing bytes after trailer at "
                            "offset " + std::to_string(cur.pos()));
  }
  layout->end = cur.pos();
  info->bytes = cur.pos();
  return Status::OK();
}

/// Renders the term record at `pos` (already bounds- and kind-validated
/// by the scan) as its dictionary key, appended to `*out`. The record's
/// fields go through one reused scratch term, whose AppendNTriples applies
/// SnapshotReader::ReadTerm's construction rules: IRIs and blank nodes
/// ignore datatype and lang, and a language tag wins over a datatype.
void AppendKeyAt(const char* data, size_t pos, rdf::Term* scratch,
                 std::string* out) {
  const auto kind = static_cast<rdf::TermKind>(data[pos]);
  pos += 1;
  const auto take_string = [&]() {
    uint32_t length;
    std::memcpy(&length, data + pos, 4);
    const std::string_view s(data + pos + 4, length);
    pos += 4 + length;
    return s;
  };
  const std::string_view lexical = take_string();
  const std::string_view datatype = take_string();
  const std::string_view lang = take_string();
  scratch->Assign(kind, lexical, datatype, lang);
  scratch->AppendNTriples(out);
}

/// One term-range task's output: its keys back to back, each key's end
/// offset, and each key's TermTable::Hash.
struct KeyRange {
  std::string bytes;
  std::vector<size_t> ends;
  std::vector<uint64_t> hashes;
};

/// Verifies one section's computed CRC against the stored word, with the
/// streaming reader's exact diagnostics and counter updates.
Status CheckSectionCrc(const char* section, const SectionSpan& span,
                       uint32_t computed) {
  if (span.stored_crc != computed) {
    GlobalSnapshotStats().crc_mismatches.fetch_add(1,
                                                   std::memory_order_relaxed);
    char detail[64];
    std::snprintf(detail, sizeof(detail), " (stored %08x, computed %08x)",
                  span.stored_crc, computed);
    return Status::DataLoss("snapshot section '" + std::string(section) +
                            "' CRC mismatch at offset " +
                            std::to_string(span.payload_end) + detail);
  }
  GlobalSnapshotStats().crc_sections_verified.fetch_add(
      1, std::memory_order_relaxed);
  return Status::OK();
}

/// The parallel v2 load: scan serially, then CRC + key rendering and
/// hashing + triple decode on `pool`, then the keys' serial insert into
/// `*dict` in ID order. CRC failures are reported in the streaming
/// walker's section order, before any duplicate-term error.
Status DecodeSnapshotParallel(const char* data, size_t size,
                              server::ThreadPool* pool, dict::Dictionary* dict,
                              std::vector<EncodedTriple>* triples,
                              SnapshotInfo* info) {
  SnapshotLayout layout;
  PARJ_RETURN_NOT_OK(ScanSnapshotV2(data, size, &layout, info));

  triples->resize(layout.triple_count);

  // Task list: two section CRCs + term-range decodes + triple-range
  // decodes, all over disjoint inputs and outputs.
  uint32_t dict_crc = 0;
  uint32_t triples_crc = 0;
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&] {
    dict_crc = Crc32c(data + layout.dictionary.payload_begin,
                      layout.dictionary.payload_end -
                          layout.dictionary.payload_begin);
  });
  tasks.push_back([&] {
    triples_crc = Crc32c(data + layout.triples.payload_begin,
                         layout.triples.payload_end -
                             layout.triples.payload_begin);
  });
  const size_t total_terms = layout.term_offsets.size();
  const size_t term_stride = std::max<size_t>(
      1024, total_terms / (static_cast<size_t>(pool->thread_count()) * 4 + 1));
  std::vector<KeyRange> key_ranges((total_terms + term_stride - 1) /
                                    term_stride);
  for (size_t r = 0; r < key_ranges.size(); ++r) {
    tasks.push_back([&, r] {
      KeyRange& range = key_ranges[r];
      rdf::Term scratch;
      const size_t end = std::min((r + 1) * term_stride, total_terms);
      for (size_t i = r * term_stride; i < end; ++i) {
        const size_t begin = range.bytes.size();
        AppendKeyAt(data, layout.term_offsets[i], &scratch, &range.bytes);
        range.ends.push_back(range.bytes.size());
        range.hashes.push_back(dict::TermTable::Hash(
            std::string_view(range.bytes).substr(begin)));
      }
    });
  }
  const size_t triple_stride = std::max<size_t>(
      size_t{64} << 10,
      layout.triple_count / (static_cast<size_t>(pool->thread_count()) * 4 + 1));
  for (size_t begin = 0; begin < layout.triple_count; begin += triple_stride) {
    const size_t end =
        std::min<size_t>(begin + triple_stride, layout.triple_count);
    tasks.push_back([&, begin, end] {
      const char* records = data + layout.triples_begin;
      for (size_t i = begin; i < end; ++i) {
        EncodedTriple& t = (*triples)[i];
        std::memcpy(&t.subject, records + i * 12, 4);
        std::memcpy(&t.predicate, records + i * 12 + 4, 4);
        std::memcpy(&t.object, records + i * 12 + 8, 4);
      }
    });
  }
  pool->ParallelFor(tasks.size(), [&](size_t i) { tasks[i](); });

  // Verify in the streaming walker's order so a multi-corruption file
  // reports the same first error on both paths.
  PARJ_RETURN_NOT_OK(CheckSectionCrc("dictionary", layout.dictionary,
                                     dict_crc));
  ++info->sections_verified;
  PARJ_RETURN_NOT_OK(CheckSectionCrc("triples", layout.triples, triples_crc));
  ++info->sections_verified;
  const uint32_t section_crcs[2] = {layout.dictionary.stored_crc,
                                    layout.triples.stored_crc};
  const uint32_t trailer_computed = Crc32c(section_crcs, sizeof(section_crcs));
  if (layout.trailer_stored_crc != trailer_computed) {
    GlobalSnapshotStats().crc_mismatches.fetch_add(1,
                                                   std::memory_order_relaxed);
    return Status::DataLoss(
        "snapshot section 'trailer' CRC mismatch at offset " +
        std::to_string(layout.trailer_crc_offset - 4));
  }
  GlobalSnapshotStats().crc_sections_verified.fetch_add(
      1, std::memory_order_relaxed);
  ++info->sections_verified;

  size_t i = 0;  // term index: resources first, then predicates
  for (const KeyRange& range : key_ranges) {
    size_t begin = 0;
    for (size_t k = 0; k < range.ends.size(); ++k, ++i) {
      const std::string_view key(range.bytes.data() + begin,
                                 range.ends[k] - begin);
      begin = range.ends[k];
      if (i < layout.resource_count) {
        if (dict->EncodeResourceByKey(key, range.hashes[k]) != i + 1) {
          return Status::ParseError(
              "snapshot contains duplicate resource terms");
        }
      } else if (dict->EncodePredicateByKey(key, range.hashes[k]) !=
                 i - layout.resource_count + 1) {
        return Status::ParseError(
            "snapshot contains duplicate predicate terms");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const Database& db, std::ostream& out, uint32_t version) {
  if (version != kSnapshotVersion && version != kSnapshotVersionV2 &&
      version != kSnapshotVersionLegacy) {
    return Status::InvalidArgument("cannot write snapshot version " +
                                   std::to_string(version));
  }
  const bool checked = version >= kSnapshotVersionV2;
  SnapshotWriter writer(out);
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU32(version);
  writer.WriteU32(0);  // flags, reserved

  const dict::Dictionary& dict = db.dictionary();
  if (checked) writer.BeginSection(kSectionDictionary);
  // Term records keep their (kind, lexical, datatype, lang) layout: each
  // key decodes into one reused scratch term.
  rdf::Term term;
  writer.WriteU32(dict.resource_count());
  for (TermId id = 1; id <= dict.resource_count(); ++id) {
    term.AssignKey(dict.ResourceKey(id));
    writer.WriteTerm(term);
  }
  writer.WriteU32(dict.predicate_count());
  for (PredicateId id = 1; id <= dict.predicate_count(); ++id) {
    term.AssignKey(dict.PredicateKey(id));
    writer.WriteTerm(term);
  }
  if (checked) writer.EndSection();

  PARJ_FAILPOINT("snapshot.write.triples");
  if (version >= kSnapshotVersion) {
    // v3: each predicate's SO replica through the deterministic block
    // encoder — byte-identical output whether the in-memory store is flat
    // (packed here on the fly) or already compressed (reused as is).
    writer.BeginSection(kSectionTables);
    writer.WriteU64(db.total_triples());
    writer.WriteU32(static_cast<uint32_t>(db.predicate_count()));
    for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
      const TableReplica& so = db.entry(pid).table.so();
      if (so.empty()) {
        writer.WriteU32(0);
        writer.WriteU64(0);
      } else if (so.is_compressed()) {
        WritePackedReplica(writer, *so.packed());
      } else {
        WritePackedReplica(
            writer, CompressReplica(so.keys(), so.offsets(), so.values()));
      }
    }
    writer.EndSection();
    writer.WriteTrailer();
  } else {
    if (checked) writer.BeginSection(kSectionTriples);
    writer.WriteU64(db.total_triples());
    for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
      const TableReplica& so = db.entry(pid).table.so();
      // ForEachRun works in both storage modes, emitting the identical
      // (key, run) sequence a flat walk produces.
      so.ForEachRun([&](size_t, TermId key, std::span<const TermId> run) {
        for (TermId o : run) {
          writer.WriteU32(key);
          writer.WriteU32(pid);
          writer.WriteU32(o);
        }
      });
    }
    if (checked) {
      writer.EndSection();
      writer.WriteTrailer();
    }
  }
  if (!writer.good()) {
    return Status::IoError("write failure while saving snapshot");
  }
  GlobalSnapshotStats().snapshots_written.fetch_add(1,
                                                    std::memory_order_relaxed);
  return Status::OK();
}

Status SaveSnapshot(const Database& db, const std::string& path) {
  // Write-then-fsync-then-rename-then-fsync(dir): the snapshot
  // materializes at `path` only complete and durable; any failure
  // (including injected ones) leaves whatever was previously at `path`
  // untouched and removes the temporary. An ofstream flush alone only
  // moves bytes into the page cache — without the fsync of the temporary
  // a crash after rename could expose a *named* but empty snapshot, and
  // without the directory fsync the rename itself can be forgotten.
  const std::string tmp = path + ".tmp";
  {
    Status open_fp = failpoint::Check("snapshot.save.open");
    if (!open_fp.ok()) return open_fp;
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    Status written = WriteSnapshot(db, out);
    if (written.ok()) {
      out.flush();
      if (!out) written = Status::IoError("flush failure while saving " + tmp);
    }
    if (!written.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return written;
    }
  }
  Status synced = io::FsyncFile(tmp);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  Status rename_fp = failpoint::Check("snapshot.save.rename");
  if (!rename_fp.ok()) {
    std::remove(tmp.c_str());
    return rename_fp;
  }
  Status renamed = io::RenameDurable(tmp, path);
  if (!renamed.ok()) {
    std::remove(tmp.c_str());
    return renamed;
  }
  return Status::OK();
}

Result<Database> ReadSnapshot(std::istream& in, const DatabaseOptions& options,
                              const SnapshotLoadOptions& load,
                              SnapshotLoadStats* stats) {
  dict::Dictionary dict;
  std::vector<EncodedTriple> triples;
  SnapshotInfo info;
  Stopwatch decode_timer;
  if (load.threads > 1) {
    // Buffered path: slurp, then scan + parallel CRC/decode. A v1 stream
    // (or anything that is not exactly v2) is replayed through the serial
    // walker so its structural diagnostics stay authoritative.
    Stopwatch read_timer;
    std::ostringstream slurp;
    slurp << in.rdbuf();
    std::string buffer = std::move(slurp).str();
    if (stats != nullptr) stats->read_millis = read_timer.ElapsedMillis();
    decode_timer.Restart();
    uint32_t version = 0;
    if (buffer.size() >= sizeof(kMagic) + 4) {
      std::memcpy(&version, buffer.data() + sizeof(kMagic), 4);
    }
    if (version == kSnapshotVersionV2 &&
        std::memcmp(buffer.data(), kMagic, sizeof(kMagic)) == 0) {
      server::ThreadPool pool(load.threads);
      PARJ_RETURN_NOT_OK(DecodeSnapshotParallel(buffer.data(), buffer.size(),
                                                &pool, &dict, &triples,
                                                &info));
    } else {
      std::istringstream replay(std::move(buffer));
      PARJ_RETURN_NOT_OK(ParseSnapshot(replay, /*build=*/true, &dict,
                                       &triples, &info));
    }
  } else {
    PARJ_RETURN_NOT_OK(ParseSnapshot(in, /*build=*/true, &dict, &triples,
                                     &info));
  }
  if (stats != nullptr) stats->decode_millis = decode_timer.ElapsedMillis();
  GlobalSnapshotStats().snapshots_loaded.fetch_add(1,
                                                   std::memory_order_relaxed);
  Stopwatch build_timer;
  auto built = Database::Build(std::move(dict), std::move(triples), options);
  if (stats != nullptr) stats->build_millis = build_timer.ElapsedMillis();
  return built;
}

Result<Database> LoadSnapshot(const std::string& path,
                              const DatabaseOptions& options,
                              const SnapshotLoadOptions& load,
                              SnapshotLoadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return ReadSnapshot(in, options, load, stats);
}

Result<SnapshotInfo> VerifySnapshot(std::istream& in) {
  SnapshotInfo info;
  PARJ_RETURN_NOT_OK(ParseSnapshot(in, /*build=*/false, nullptr, nullptr,
                                   &info));
  return info;
}

Result<SnapshotInfo> VerifySnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  return VerifySnapshot(in);
}

}  // namespace parj::storage
