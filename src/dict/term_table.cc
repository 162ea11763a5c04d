#include "dict/term_table.h"

namespace parj::dict {

namespace {

uint32_t TagOf(uint64_t hash) { return static_cast<uint32_t>(hash >> 32); }

}  // namespace

size_t TermTable::Probe(std::string_view key, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t pos = tag & mask;; pos = (pos + 1) & mask) {
    const uint64_t slot = slots_[pos];
    if (slot == 0) return pos;
    if (static_cast<uint32_t>(slot >> 32) == tag &&
        Key(static_cast<uint32_t>(slot) - 1) == key) {
      return pos;
    }
  }
}

uint32_t TermTable::Find(std::string_view key, uint64_t hash) const {
  if (slots_.empty()) return kAbsent;
  const uint64_t slot = slots_[Probe(key, TagOf(hash))];
  return slot == 0 ? kAbsent : static_cast<uint32_t>(slot) - 1;
}

uint32_t TermTable::Insert(std::string_view key, uint64_t hash) {
  if ((ends_.size() + 1) * 4 > slots_.size() * 3) Grow();  // load <= 3/4
  const uint32_t tag = TagOf(hash);
  uint64_t& slot = slots_[Probe(key, tag)];
  if (slot != 0) return static_cast<uint32_t>(slot) - 1;
  const uint32_t index = static_cast<uint32_t>(ends_.size());
  arena_.insert(arena_.end(), key.begin(), key.end());
  ends_.push_back(arena_.size());
  slot = (uint64_t{tag} << 32) | (uint64_t{index} + 1);
  return index;
}

void TermTable::Grow() {
  const size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<uint64_t> slots(capacity, 0);
  const size_t mask = capacity - 1;
  for (const uint64_t slot : slots_) {
    if (slot == 0) continue;
    size_t pos = static_cast<uint32_t>(slot >> 32) & mask;
    while (slots[pos] != 0) pos = (pos + 1) & mask;
    slots[pos] = slot;
  }
  slots_ = std::move(slots);
}

std::string_view ScratchKey(const rdf::Term& term) {
  thread_local std::string buffer;
  buffer.clear();
  term.AppendNTriples(&buffer);
  return buffer;
}

}  // namespace parj::dict
