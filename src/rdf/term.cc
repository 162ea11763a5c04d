#include "rdf/term.h"

namespace parj::rdf {

std::string EscapeLiteral(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Status UnescapeLiteralInto(std::string_view value, std::string* out) {
  out->clear();
  for (size_t i = 0; i < value.size(); ++i) {
    char c = value[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i + 1 >= value.size()) {
      return Status::ParseError("dangling escape at end of literal");
    }
    char e = value[++i];
    switch (e) {
      case '\\':
        out->push_back('\\');
        break;
      case '"':
        out->push_back('"');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 't':
        out->push_back('\t');
        break;
      default:
        return Status::ParseError(std::string("unknown escape \\") + e);
    }
  }
  return Status::OK();
}

Result<std::string> UnescapeLiteral(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  PARJ_RETURN_NOT_OK(UnescapeLiteralInto(value, &out));
  return out;
}

namespace {

/// EscapeLiteral, appending into an existing buffer (no temporary string).
void AppendEscapedLiteral(std::string_view value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->push_back(c);
    }
  }
}

}  // namespace

void Term::AppendNTriples(std::string* out) const {
  switch (kind_) {
    case TermKind::kIri:
      out->push_back('<');
      out->append(lexical_);
      out->push_back('>');
      return;
    case TermKind::kBlank:
      out->append("_:");
      out->append(lexical_);
      return;
    case TermKind::kLiteral:
      out->push_back('"');
      AppendEscapedLiteral(lexical_, out);
      out->push_back('"');
      if (!lang_.empty()) {
        out->push_back('@');
        out->append(lang_);
      } else if (!datatype_.empty()) {
        out->append("^^<");
        out->append(datatype_);
        out->push_back('>');
      }
      return;
  }
}

void Term::AssignKey(std::string_view key) {
  datatype_.clear();
  lang_.clear();
  switch (key.front()) {
    case '<':
      kind_ = TermKind::kIri;
      lexical_.assign(key.substr(1, key.size() - 2));
      return;
    case '_':
      kind_ = TermKind::kBlank;
      lexical_.assign(key.substr(2));
      return;
    default:
      break;
  }
  kind_ = TermKind::kLiteral;
  // Every quote inside the escaped lexical is escaped, so the first quote
  // closes it unless a backslash precedes it.
  size_t end = key.find('"', 1);
  const bool escaped =
      key.substr(1, end - 1).find('\\') != std::string_view::npos;
  if (escaped) {
    end = 1;
    while (key[end] != '"') end += key[end] == '\\' ? 2 : 1;
    // AppendNTriples writes only escapes UnescapeLiteralInto reverses.
    (void)UnescapeLiteralInto(key.substr(1, end - 1), &lexical_);
  } else {
    lexical_.assign(key.substr(1, end - 1));
  }
  const std::string_view rest = key.substr(end + 1);
  if (rest.empty()) return;
  if (rest.front() == '@') {
    lang_.assign(rest.substr(1));
  } else {
    datatype_.assign(rest.substr(3, rest.size() - 4));  // ^^<datatype>
  }
}

std::string Term::ToNTriples() const {
  std::string out;
  AppendNTriples(&out);
  return out;
}

}  // namespace parj::rdf
