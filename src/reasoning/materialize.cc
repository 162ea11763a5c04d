#include "reasoning/materialize.h"

#include <algorithm>

#include "rdf/vocab.h"

namespace parj::reasoning {

Result<ClosureData> MaterializeHierarchies(const storage::Database& db,
                                           const Hierarchy& hierarchy,
                                           MaterializeStats* stats) {
  ClosureData out;
  out.dict = db.dictionary().Clone();
  MaterializeStats local;

  const PredicateId type_pid =
      out.dict.LookupPredicate(rdf::Term::Iri(rdf::vocab::kRdfType));

  // Pre-resolve, per base predicate, the list of super-predicate ids
  // (creating fresh ids for abstract super-properties).
  std::vector<std::vector<PredicateId>> supers(db.predicate_count() + 1);
  for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
    for (TermId resource : hierarchy.SuperPropertyResourcesOf(pid)) {
      const std::string_view key = out.dict.ResourceKey(resource);
      supers[pid].push_back(
          out.dict.EncodePredicateByKey(key, dict::TermTable::Hash(key)));
    }
  }

  for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
    const storage::PropertyEntry& entry = db.entry(pid);
    const storage::TableReplica& so = entry.table.so();
    const bool is_type = pid == type_pid;
    so.ForEachRun([&](size_t, TermId s, std::span<const TermId> run) {
      for (TermId o : run) {
        out.triples.push_back(EncodedTriple{s, pid, o});
        ++local.input_triples;
        if (is_type) {
          for (TermId super_class : hierarchy.SuperClassesOf(o)) {
            if (super_class == o) continue;
            out.triples.push_back(EncodedTriple{s, type_pid, super_class});
            ++local.inferred_class_triples;
          }
        }
        for (PredicateId super_pid : supers[pid]) {
          out.triples.push_back(EncodedTriple{s, super_pid, o});
          ++local.inferred_property_triples;
        }
      }
    });
  }

  // Deduplicate (inferences can coincide with asserted triples and with
  // one another through diamond hierarchies).
  std::sort(out.triples.begin(), out.triples.end(),
            [](const EncodedTriple& a, const EncodedTriple& b) {
              if (a.predicate != b.predicate) return a.predicate < b.predicate;
              if (a.subject != b.subject) return a.subject < b.subject;
              return a.object < b.object;
            });
  out.triples.erase(std::unique(out.triples.begin(), out.triples.end()),
                    out.triples.end());
  local.output_triples = out.triples.size();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace parj::reasoning
