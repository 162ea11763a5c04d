#include "mutable/delta_view.h"

namespace parj::mut {

TermId TermOverlay::AddResource(const rdf::Term& term) {
  const std::string_view key = dict::ScratchKey(term);
  return base_resources_ + 1 +
         resources_.Insert(key, dict::TermTable::Hash(key));
}

PredicateId TermOverlay::AddPredicate(const rdf::Term& term) {
  const std::string_view key = dict::ScratchKey(term);
  return base_predicates_ + 1 +
         predicates_.Insert(key, dict::TermTable::Hash(key));
}

TermId TermOverlay::LookupResource(const rdf::Term& term) const {
  const std::string_view key = dict::ScratchKey(term);
  const uint32_t index = resources_.Find(key, dict::TermTable::Hash(key));
  return index == dict::TermTable::kAbsent ? kInvalidTermId
                                           : base_resources_ + 1 + index;
}

PredicateId TermOverlay::LookupPredicate(const rdf::Term& term) const {
  const std::string_view key = dict::ScratchKey(term);
  const uint32_t index = predicates_.Find(key, dict::TermTable::Hash(key));
  return index == dict::TermTable::kAbsent ? kInvalidPredicateId
                                           : base_predicates_ + 1 + index;
}

DeltaView::DeltaView(std::vector<std::shared_ptr<const PropertyDelta>> props,
                     std::shared_ptr<const TermOverlay> overlay,
                     uint64_t sequence)
    : props_(std::move(props)),
      overlay_(std::move(overlay)),
      sequence_(sequence) {
  delta_bytes_ = overlay_->MemoryUsage();
  for (const auto& d : props_) {
    if (d == nullptr) continue;
    insert_triples_ += d->inserts.triple_count();
    delete_triples_ += d->deletes.triple_count();
    delta_bytes_ += d->MemoryUsage();
  }
}

}  // namespace parj::mut
