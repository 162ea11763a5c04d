#include "reasoning/hierarchy.h"

#include <algorithm>
#include <unordered_set>

#include "rdf/vocab.h"

namespace parj::reasoning {

namespace {

/// Collects the (subject, object) pairs of one predicate as id pairs.
void CollectPairs(const storage::Database& db, PredicateId pid,
                  std::vector<std::pair<TermId, TermId>>* out) {
  const storage::PropertyEntry* entry = db.FindEntry(pid);
  if (entry == nullptr) return;
  const storage::TableReplica& so = entry->table.so();
  so.ForEachRun([&](size_t, TermId s, std::span<const TermId> run) {
    for (TermId o : run) out->emplace_back(s, o);
  });
}

}  // namespace

Hierarchy Hierarchy::FromDatabase(const storage::Database& db) {
  Hierarchy h;
  const dict::Dictionary& dict = db.dictionary();

  const PredicateId sub_class =
      dict.LookupPredicate(rdf::Term::Iri(rdf::vocab::kRdfsSubClassOf));
  const PredicateId sub_property =
      dict.LookupPredicate(rdf::Term::Iri(rdf::vocab::kRdfsSubPropertyOf));

  if (sub_class != kInvalidPredicateId) {
    std::vector<std::pair<TermId, TermId>> pairs;
    CollectPairs(db, sub_class, &pairs);
    for (const auto& [child, parent] : pairs) {
      h.class_super_[child].push_back(parent);
      h.class_sub_[parent].push_back(child);
      ++h.class_link_count_;
    }
  }
  if (sub_property != kInvalidPredicateId) {
    std::vector<std::pair<TermId, TermId>> pairs;
    CollectPairs(db, sub_property, &pairs);
    for (const auto& [child, parent] : pairs) {
      h.property_super_[child].push_back(parent);
      h.property_sub_[parent].push_back(child);
      ++h.property_link_count_;
    }
    // Map every property resource mentioned in the hierarchy to its
    // predicate id (when the property has direct assertions).
    auto map_resource = [&](TermId resource) {
      if (h.resource_to_predicate_.count(resource) != 0) return;
      const std::string_view key = dict.ResourceKey(resource);
      const PredicateId pid =
          dict.LookupPredicateByKey(key, dict::TermTable::Hash(key));
      if (pid != kInvalidPredicateId) {
        h.resource_to_predicate_.emplace(resource, pid);
        h.predicate_to_resource_.emplace(pid, resource);
      }
    };
    for (const auto& [child, parent] : pairs) {
      map_resource(child);
      map_resource(parent);
    }
  }
  return h;
}

std::vector<TermId> Hierarchy::Closure(
    const std::unordered_map<TermId, std::vector<TermId>>& edges,
    TermId start) {
  std::vector<TermId> out;
  std::unordered_set<TermId> seen;
  std::vector<TermId> stack = {start};
  seen.insert(start);
  while (!stack.empty()) {
    TermId node = stack.back();
    stack.pop_back();
    out.push_back(node);
    auto it = edges.find(node);
    if (it == edges.end()) continue;
    for (TermId next : it->second) {
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TermId> Hierarchy::SubClassesOf(TermId cls) const {
  return Closure(class_sub_, cls);
}

std::vector<TermId> Hierarchy::SuperClassesOf(TermId cls) const {
  return Closure(class_super_, cls);
}

std::vector<PredicateId> Hierarchy::SubPropertiesOf(
    TermId property_resource) const {
  std::vector<PredicateId> out;
  for (TermId resource : Closure(property_sub_, property_resource)) {
    auto it = resource_to_predicate_.find(resource);
    if (it != resource_to_predicate_.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<TermId> Hierarchy::SuperPropertyResourcesOf(
    PredicateId pred) const {
  auto it = predicate_to_resource_.find(pred);
  if (it == predicate_to_resource_.end()) return {};
  std::vector<TermId> closure = Closure(property_super_, it->second);
  // Remove the property itself; only strict ancestors are inferred.
  closure.erase(std::remove(closure.begin(), closure.end(), it->second),
                closure.end());
  return closure;
}

PredicateId Hierarchy::PredicateForResource(TermId property_resource) const {
  auto it = resource_to_predicate_.find(property_resource);
  return it == resource_to_predicate_.end() ? kInvalidPredicateId
                                            : it->second;
}

}  // namespace parj::reasoning
