#ifndef PARJ_RDF_NTRIPLES_H_
#define PARJ_RDF_NTRIPLES_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"

namespace parj::server {
class ThreadPool;
}  // namespace parj::server

namespace parj::rdf {

/// Parses one N-Triples term starting at `*pos` in `line`; advances `*pos`
/// past the term. Accepts IRIs, literals (plain, language-tagged, typed)
/// and blank nodes.
Result<Term> ParseTerm(std::string_view line, size_t* pos);

/// Parses a single N-Triples statement line ("<s> <p> <o> ." with optional
/// surrounding whitespace). Empty lines and `#` comment lines yield
/// Status::NotFound, which callers treat as "skip".
Result<Triple> ParseStatementLine(std::string_view line);

/// Streaming N-Triples document parser.
class NTriplesParser {
 public:
  struct Options {
    /// When true, a malformed line aborts the parse; when false it is
    /// counted and skipped.
    bool strict = true;
  };

  NTriplesParser() = default;
  explicit NTriplesParser(Options options) : options_(options) {}

  /// Parses a whole document from a string, invoking `sink` per triple.
  Status ParseDocument(std::string_view text,
                       const std::function<void(Triple)>& sink);

  /// Parses a document from a stream (e.g. std::ifstream).
  Status ParseStream(std::istream& in,
                     const std::function<void(Triple)>& sink);

  /// Convenience: parse a whole document into a vector.
  Result<std::vector<Triple>> ParseToVector(std::string_view text);

  /// Number of malformed lines skipped in non-strict mode so far.
  uint64_t skipped_lines() const { return skipped_lines_; }
  /// Number of triples produced so far.
  uint64_t parsed_triples() const { return parsed_triples_; }

 private:
  Status HandleLine(std::string_view line, uint64_t line_no,
                    const std::function<void(Triple)>& sink);

  Options options_;
  uint64_t skipped_lines_ = 0;
  uint64_t parsed_triples_ = 0;
};

/// Serializes triples in N-Triples syntax, one statement per line.
void WriteNTriples(const std::vector<Triple>& triples, std::ostream& out);

// --- Chunked parallel parsing (bulk-load pipeline, DESIGN.md §10) --------

/// Line bookkeeping of one newline-aligned chunk of a chunked parse.
/// Chunks partition the input at newline boundaries; all line numbers are
/// real (1-based) file line numbers, identical to what a serial parse
/// would report.
struct ChunkLines {
  /// File line number of the chunk's first line.
  uint64_t first_line = 1;
  /// Lines in this chunk (a trailing line without '\n' counts).
  uint64_t line_count = 0;
  /// Malformed lines skipped (only accumulates in non-strict mode).
  uint64_t skipped_lines = 0;
  /// Byte range of the chunk in the input text.
  size_t begin_offset = 0;
  size_t end_offset = 0;

  struct LineError {
    uint64_t line = 0;  ///< real file line number
    std::string message;
  };
  /// Every malformed line, with its real line number. In strict mode the
  /// overall parse fails with the earliest error across all chunks; in
  /// non-strict mode the lists are informational.
  std::vector<LineError> errors;
};

/// One parsed chunk of ParseTextParallel: its lines and its statements.
struct ParsedChunk : ChunkLines {
  std::vector<Triple> triples;
};

struct ParallelParseOptions {
  /// Strict: any malformed line fails the parse with "line N: ..." for
  /// the earliest offending line. Non-strict: malformed lines are skipped
  /// and recorded per chunk.
  bool strict = true;
  /// Target chunk size; actual chunks extend to the next newline.
  size_t chunk_bytes = size_t{16} << 20;
  /// Pool to parse chunks on; nullptr parses them serially (still through
  /// the identical chunked code path, so results cannot differ).
  server::ThreadPool* pool = nullptr;
};

/// Newline-aligned chunks of ~`chunk_bytes` covering all of `text` (byte
/// ranges set, line fields still zero). Every chunk except possibly the
/// last ends just past a '\n'; a single line longer than `chunk_bytes`
/// gets a correspondingly oversized chunk. Empty input yields no chunks.
std::vector<ChunkLines> SplitNewlineChunks(std::string_view text,
                                           size_t chunk_bytes);

/// Receives one well-formed statement of chunk `chunk`, on the thread
/// walking that chunk, in line order within the chunk. `triple` is the
/// walker's scratch triple, overwritten by the chunk's next statement:
/// copy or move from it, keep no reference.
using StatementSink = std::function<void(size_t chunk, Triple& triple)>;

/// The chunk walker under ParseTextParallel and the streaming bulk load
/// (DESIGN.md §10). Parses every chunk of `*chunks` (a SplitNewlineChunks
/// result for `text`) — concurrently on options.pool — handing each
/// statement to `sink`, then fills in the chunks' line accounting with
/// real file line numbers. Strict: fails with "line N: ..." for the
/// earliest malformed line once every chunk is walked. Non-strict:
/// malformed lines are counted in `skipped_lines` and recorded per chunk.
Status WalkChunks(std::string_view text, const ParallelParseOptions& options,
                  std::vector<ChunkLines>* chunks, const StatementSink& sink);

/// Splits `text` into newline-aligned chunks of ~`chunk_bytes` and parses
/// them concurrently (WalkChunks, collecting each chunk's statements).
/// The concatenated per-chunk triples are exactly the serial parse's
/// output (same order); per-chunk error lists carry real line numbers.
/// Empty input yields zero chunks.
Result<std::vector<ParsedChunk>> ParseTextParallel(
    std::string_view text, const ParallelParseOptions& options = {});

}  // namespace parj::rdf

#endif  // PARJ_RDF_NTRIPLES_H_
