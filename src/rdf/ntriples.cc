#include "rdf/ntriples.h"

#include <istream>
#include <ostream>

#include "common/strings.h"
#include "server/thread_pool.h"

namespace parj::rdf {

namespace {

void SkipSpaces(std::string_view line, size_t* pos) {
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++(*pos);
  }
}

bool IsPnChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

/// ParseTerm into `*out`, reusing its strings' capacity (Term::Assign).
Status ParseTermInto(std::string_view line, size_t* pos, Term* out) {
  SkipSpaces(line, pos);
  if (*pos >= line.size()) {
    return Status::ParseError("expected term, found end of line");
  }
  char c = line[*pos];
  if (c == '<') {
    size_t end = line.find('>', *pos + 1);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated IRI");
    }
    if (end == *pos + 1) return Status::ParseError("empty IRI");
    out->Assign(TermKind::kIri, line.substr(*pos + 1, end - *pos - 1));
    *pos = end + 1;
    return Status::OK();
  }
  if (c == '_') {
    if (*pos + 1 >= line.size() || line[*pos + 1] != ':') {
      return Status::ParseError("malformed blank node: expected _:");
    }
    size_t start = *pos + 2;
    size_t end = start;
    while (end < line.size() && IsPnChar(line[end])) ++end;
    if (end == start) return Status::ParseError("empty blank node label");
    out->Assign(TermKind::kBlank, line.substr(start, end - start));
    *pos = end;
    return Status::OK();
  }
  if (c == '"') {
    // Find the closing quote, honouring backslash escapes.
    size_t end = *pos + 1;
    bool escaped = false;
    bool has_escape = false;
    while (end < line.size()) {
      if (escaped) {
        escaped = false;
      } else if (line[end] == '\\') {
        escaped = true;
        has_escape = true;
      } else if (line[end] == '"') {
        break;
      }
      ++end;
    }
    if (end >= line.size()) {
      return Status::ParseError("unterminated literal");
    }
    std::string_view value = line.substr(*pos + 1, end - *pos - 1);
    if (has_escape) {
      // Per-thread buffer, so even escaped literals stop allocating once
      // it has grown.
      thread_local std::string unescaped;
      PARJ_RETURN_NOT_OK(UnescapeLiteralInto(value, &unescaped));
      value = unescaped;
    }
    *pos = end + 1;
    // Optional language tag or datatype.
    if (*pos < line.size() && line[*pos] == '@') {
      size_t start = *pos + 1;
      size_t lang_end = start;
      while (lang_end < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[lang_end])) ||
              line[lang_end] == '-')) {
        ++lang_end;
      }
      if (lang_end == start) return Status::ParseError("empty language tag");
      out->Assign(TermKind::kLiteral, value, {},
                  line.substr(start, lang_end - start));
      *pos = lang_end;
      return Status::OK();
    }
    if (*pos + 1 < line.size() && line[*pos] == '^' && line[*pos + 1] == '^') {
      *pos += 2;
      if (*pos >= line.size() || line[*pos] != '<') {
        return Status::ParseError("expected datatype IRI after ^^");
      }
      size_t end_dt = line.find('>', *pos + 1);
      if (end_dt == std::string_view::npos) {
        return Status::ParseError("unterminated datatype IRI");
      }
      out->Assign(TermKind::kLiteral, value,
                  line.substr(*pos + 1, end_dt - *pos - 1));
      *pos = end_dt + 1;
      return Status::OK();
    }
    out->Assign(TermKind::kLiteral, value);
    return Status::OK();
  }
  return Status::ParseError(std::string("unexpected character '") + c +
                            "' at start of term");
}

/// ParseStatementLine into `*out`, reusing its terms' capacity: a line
/// allocates nothing once `*out` has held terms at least as long. On
/// error `*out` holds a partial parse.
Status ParseStatementLineInto(std::string_view raw, Triple* out) {
  std::string_view line = TrimWhitespace(raw);
  if (line.empty() || line[0] == '#') {
    return Status::NotFound("blank or comment line");
  }
  size_t pos = 0;
  PARJ_RETURN_NOT_OK(ParseTermInto(line, &pos, &out->subject));
  if (out->subject.is_literal()) {
    return Status::ParseError("literal in subject position");
  }
  PARJ_RETURN_NOT_OK(ParseTermInto(line, &pos, &out->predicate));
  if (!out->predicate.is_iri()) {
    return Status::ParseError("predicate must be an IRI");
  }
  PARJ_RETURN_NOT_OK(ParseTermInto(line, &pos, &out->object));
  SkipSpaces(line, &pos);
  if (pos >= line.size() || line[pos] != '.') {
    return Status::ParseError("expected '.' terminating statement");
  }
  ++pos;
  SkipSpaces(line, &pos);
  if (pos != line.size()) {
    return Status::ParseError("trailing garbage after '.'");
  }
  return Status::OK();
}

}  // namespace

Result<Term> ParseTerm(std::string_view line, size_t* pos) {
  Term term;
  PARJ_RETURN_NOT_OK(ParseTermInto(line, pos, &term));
  return term;
}

Result<Triple> ParseStatementLine(std::string_view line) {
  Triple triple;
  PARJ_RETURN_NOT_OK(ParseStatementLineInto(line, &triple));
  return triple;
}

Status NTriplesParser::HandleLine(std::string_view line, uint64_t line_no,
                                  const std::function<void(Triple)>& sink) {
  Result<Triple> triple = ParseStatementLine(line);
  if (triple.ok()) {
    ++parsed_triples_;
    sink(std::move(triple).value());
    return Status::OK();
  }
  if (triple.status().code() == StatusCode::kNotFound) {
    return Status::OK();  // blank line / comment
  }
  if (!options_.strict) {
    ++skipped_lines_;
    return Status::OK();
  }
  return Status::ParseError("line " + std::to_string(line_no) + ": " +
                            triple.status().message());
}

Status NTriplesParser::ParseDocument(std::string_view text,
                                     const std::function<void(Triple)>& sink) {
  uint64_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line = (end == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, end - start);
    ++line_no;
    PARJ_RETURN_NOT_OK(HandleLine(line, line_no, sink));
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return Status::OK();
}

Status NTriplesParser::ParseStream(std::istream& in,
                                   const std::function<void(Triple)>& sink) {
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    PARJ_RETURN_NOT_OK(HandleLine(line, line_no, sink));
  }
  if (in.bad()) return Status::IoError("stream error while reading N-Triples");
  return Status::OK();
}

Result<std::vector<Triple>> NTriplesParser::ParseToVector(
    std::string_view text) {
  std::vector<Triple> out;
  Status st = ParseDocument(text, [&out](Triple t) { out.push_back(std::move(t)); });
  if (!st.ok()) return st;
  return out;
}

std::vector<ChunkLines> SplitNewlineChunks(std::string_view text,
                                           size_t chunk_bytes) {
  std::vector<ChunkLines> chunks;
  if (chunk_bytes == 0) chunk_bytes = 1;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = pos + chunk_bytes;
    if (end >= text.size()) {
      end = text.size();
    } else {
      const size_t nl = text.find('\n', end - 1);
      end = (nl == std::string_view::npos) ? text.size() : nl + 1;
    }
    ChunkLines& chunk = chunks.emplace_back();
    chunk.begin_offset = pos;
    chunk.end_offset = end;
    pos = end;
  }
  return chunks;
}

namespace {

/// Walks one chunk's lines, parsing each into one scratch triple that is
/// reused for the whole chunk; records errors with chunk-local 1-based
/// line ordinals (rebased to file line numbers once all chunks report
/// their line counts).
void WalkOneChunk(std::string_view text, bool strict, size_t index,
                  ChunkLines* chunk, const StatementSink& sink) {
  const std::string_view body =
      text.substr(chunk->begin_offset, chunk->end_offset - chunk->begin_offset);
  Triple scratch;
  uint64_t local_line = 0;
  size_t start = 0;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    const std::string_view line = (end == std::string_view::npos)
                                      ? body.substr(start)
                                      : body.substr(start, end - start);
    ++local_line;
    Status parsed = ParseStatementLineInto(line, &scratch);
    if (parsed.ok()) {
      sink(index, scratch);
    } else if (!parsed.IsNotFound()) {
      chunk->errors.push_back(
          ChunkLines::LineError{local_line, parsed.message()});
      if (!strict) ++chunk->skipped_lines;
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  chunk->line_count = local_line;
}

}  // namespace

Status WalkChunks(std::string_view text, const ParallelParseOptions& options,
                  std::vector<ChunkLines>* chunks, const StatementSink& sink) {
  auto walk_one = [&](size_t c) {
    WalkOneChunk(text, options.strict, c, &(*chunks)[c], sink);
  };
  if (options.pool != nullptr && chunks->size() > 1) {
    options.pool->ParallelFor(chunks->size(), walk_one);
  } else {
    for (size_t c = 0; c < chunks->size(); ++c) walk_one(c);
  }

  // Rebase chunk-local line ordinals to real file line numbers.
  uint64_t line_base = 0;
  for (ChunkLines& chunk : *chunks) {
    chunk.first_line = line_base + 1;
    for (ChunkLines::LineError& error : chunk.errors) {
      error.line += line_base;
    }
    line_base += chunk.line_count;
  }

  if (options.strict) {
    // Fail with the earliest error, exactly as the serial parser's
    // first-error abort would have.
    const ChunkLines::LineError* first = nullptr;
    for (const ChunkLines& chunk : *chunks) {
      for (const ChunkLines::LineError& error : chunk.errors) {
        if (first == nullptr || error.line < first->line) first = &error;
      }
    }
    if (first != nullptr) {
      return Status::ParseError("line " + std::to_string(first->line) + ": " +
                                first->message);
    }
  }
  return Status::OK();
}

Result<std::vector<ParsedChunk>> ParseTextParallel(
    std::string_view text, const ParallelParseOptions& options) {
  std::vector<ChunkLines> lines =
      SplitNewlineChunks(text, options.chunk_bytes);
  std::vector<std::vector<Triple>> triples(lines.size());
  PARJ_RETURN_NOT_OK(WalkChunks(text, options, &lines,
                                [&triples](size_t chunk, Triple& triple) {
                                  triples[chunk].push_back(std::move(triple));
                                }));
  std::vector<ParsedChunk> chunks(lines.size());
  for (size_t c = 0; c < lines.size(); ++c) {
    static_cast<ChunkLines&>(chunks[c]) = std::move(lines[c]);
    chunks[c].triples = std::move(triples[c]);
  }
  return chunks;
}

void WriteNTriples(const std::vector<Triple>& triples, std::ostream& out) {
  for (const Triple& t : triples) {
    out << t.subject.ToNTriples() << " " << t.predicate.ToNTriples() << " "
        << t.object.ToNTriples() << " .\n";
  }
}

}  // namespace parj::rdf
