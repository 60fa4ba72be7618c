#include "eval/answer_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace bvq {

namespace {

// What one resident entry costs: the cube's bitset plus the key's version
// vector and the bookkeeping structs around them. The cube dominates for
// anything but trivial domains; the overhead terms keep a flood of tiny
// entries honest against the budget.
std::size_t EntryBytes(const AnswerCache::Key& key,
                       const AssignmentSet& value) {
  return value.ByteSize() + key.versions.size() * sizeof(std::uint64_t) +
         sizeof(AnswerCache::Key) + 4 * sizeof(void*);
}

// Pending entries additionally carry the canonical form and relation names;
// the charge carries over unchanged when the entry resolves to live, so the
// account never needs a mid-life adjustment.
std::size_t PendingEntryBytes(const AnswerCache::PortableEntry& entry) {
  std::size_t bytes = entry.value.ByteSize() + entry.key.canon.size() +
                      sizeof(AnswerCache::Key) + 4 * sizeof(void*);
  for (const auto& [name, fp] : entry.key.rels) {
    bytes += name.size() + sizeof(fp);
  }
  return bytes;
}

}  // namespace

std::size_t AnswerCache::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t w) {
    h ^= w;
    h *= 1099511628211ull;
  };
  mix(key.cls);
  mix(key.domain_size);
  mix(key.num_vars);
  for (std::uint64_t v : key.versions) mix(v);
  return static_cast<std::size_t>(h);
}

AnswerCache::AnswerCache(AnswerCacheOptions options)
    : options_(options) {}

AnswerCache::~AnswerCache() {
  if (options_.governor != nullptr && bytes_ != 0) {
    options_.governor->Release(bytes_);
  }
}

bool AnswerCache::Lookup(const Key& key, AssignmentSet* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  *out = it->second->value;
  return true;
}

void AnswerCache::EvictOne() {
  if (!pending_.empty()) {
    DropPending(pending_.begin());
  } else {
    DropLive(std::prev(lru_.end()));
  }
  ++evictions_;
}

bool AnswerCache::ReserveBytes(std::size_t bytes) {
  if (options_.max_bytes != 0 && bytes > options_.max_bytes) return false;
  while (options_.max_bytes != 0 && bytes_ + bytes > options_.max_bytes &&
         !(lru_.empty() && pending_.empty())) {
    EvictOne();
  }
  if (options_.max_bytes != 0 && bytes_ + bytes > options_.max_bytes) {
    return false;
  }
  if (options_.governor == nullptr) return true;
  // The governor account is shared with live queries, so a refusal may be
  // transient pressure rather than a true overflow: shed entries one at
  // a time (each Release frees headroom) and retry until the charge lands
  // or nothing is left to shed.
  while (!options_.governor->TryCharge(bytes)) {
    if (lru_.empty() && pending_.empty()) return false;
    EvictOne();
  }
  return true;
}

void AnswerCache::Insert(const Key& key, const AssignmentSet& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Keys determine answers, so the resident value is already this value;
    // just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  const std::size_t bytes = EntryBytes(key, value);
  if (!ReserveBytes(bytes)) return;
  lru_.push_front(Entry{key, value, bytes});
  entries_.emplace(key, lru_.begin());
  bytes_ += bytes;
  ++insertions_;
}

void AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.governor != nullptr && bytes_ != 0) {
    options_.governor->Release(bytes_);
  }
  lru_.clear();
  entries_.clear();
  pending_.clear();
  bytes_ = 0;
}

bool AnswerCache::IsCurrent(const Key& key, const Database& db,
                            FreeNameMemo* names) {
  if (key.domain_size != db.domain_size()) return false;
  auto it = names->find(key.cls);
  if (it == names->end()) {
    it = names->emplace(key.cls, interner_.FreePredNames(key.cls)).first;
  }
  const std::vector<std::string>& free = it->second;
  if (free.size() != key.versions.size()) return false;
  for (std::size_t i = 0; i < free.size(); ++i) {
    const std::uint64_t version = db.relation_version(free[i]);
    if (version == 0 || version != key.versions[i]) return false;
  }
  return true;
}

std::vector<AnswerCache::PortableEntry> AnswerCache::ExportResolved(
    const Database& db) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PortableEntry> out;
  FreeNameMemo names;
  for (const Entry& e : lru_) {
    if (!IsCurrent(e.key, db, &names)) continue;
    std::vector<std::pair<std::string, std::uint64_t>> rels;
    for (const std::string& name : names.at(e.key.cls)) {
      rels.emplace_back(name, db.relation_fingerprint(name));
    }
    std::sort(rels.begin(), rels.end());
    PortableEntry pe;
    pe.key.canon = interner_.CanonicalFormOf(e.key.cls);
    pe.key.domain_size = e.key.domain_size;
    pe.key.num_vars = e.key.num_vars;
    pe.key.rels = std::move(rels);
    pe.value = e.value;
    out.push_back(std::move(pe));
  }
  return out;
}

std::size_t AnswerCache::Restore(std::vector<PortableEntry> entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t kept = 0;
  for (PortableEntry& e : entries) {
    // The cube must actually have the shape the key claims, or a later hit
    // would hand the evaluator a wrong-sized cube.
    if (e.key.canon.empty() || e.value.domain_size() != e.key.domain_size ||
        e.value.num_vars() != e.key.num_vars) {
      continue;
    }
    const std::size_t bytes = PendingEntryBytes(e);
    // Shed-don't-evict: restored warmth is never worth a live entry, and a
    // TryCharge refusal under session memory pressure drops the entry
    // instead of tripping the governor.
    if (options_.max_bytes != 0 && bytes_ + bytes > options_.max_bytes) {
      continue;
    }
    if (options_.governor != nullptr && !options_.governor->TryCharge(bytes)) {
      continue;
    }
    bytes_ += bytes;
    pending_.push_back(PendingEntry{std::move(e), bytes});
    ++kept;
  }
  return kept;
}

AnswerCache::LruList::iterator AnswerCache::DropLive(LruList::iterator it) {
  bytes_ -= it->bytes;
  if (options_.governor != nullptr) options_.governor->Release(it->bytes);
  entries_.erase(it->key);
  return lru_.erase(it);
}

std::deque<AnswerCache::PendingEntry>::iterator AnswerCache::DropPending(
    std::deque<PendingEntry>::iterator it) {
  bytes_ -= it->bytes;
  if (options_.governor != nullptr) options_.governor->Release(it->bytes);
  return pending_.erase(it);
}

std::size_t AnswerCache::ResolveAgainst(const Database& db) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Free what this write made unreachable before the pending entries join:
  // those are keyed on db's current versions, so they would all survive.
  FreeNameMemo names;
  for (auto it = lru_.begin(); it != lru_.end();) {
    it = IsCurrent(it->key, db, &names) ? std::next(it) : DropLive(it);
  }
  std::size_t resolved = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    const PortableKey& pk = it->entry.key;
    if (pk.domain_size != db.domain_size()) {
      ++it;
      continue;
    }
    bool match = true;
    for (const auto& [name, fp] : pk.rels) {
      if (fp == 0 || db.relation_fingerprint(name) != fp) {
        match = false;
        break;
      }
    }
    if (!match) {
      ++it;
      continue;
    }
    std::size_t cls = 0;
    if (!interner_.InternCanonical(pk.canon, &cls)) {
      it = DropPending(it);
      continue;
    }
    // The decoded class's free relation variables must be exactly the names
    // the key recorded fingerprints for — otherwise the fingerprint match
    // above proved nothing about what the entry actually depends on.
    std::vector<std::string> names = interner_.FreePredNames(cls);
    std::vector<std::string> sorted_names = names;
    std::sort(sorted_names.begin(), sorted_names.end());
    bool names_ok = sorted_names.size() == pk.rels.size();
    for (std::size_t i = 0; names_ok && i < sorted_names.size(); ++i) {
      names_ok = sorted_names[i] == pk.rels[i].first;
    }
    if (!names_ok) {
      it = DropPending(it);
      continue;
    }
    Key key;
    key.cls = cls;
    key.domain_size = pk.domain_size;
    key.num_vars = pk.num_vars;
    key.versions.reserve(names.size());
    for (const std::string& n : names) {
      key.versions.push_back(db.relation_version(n));
    }
    if (entries_.count(key) != 0) {
      it = DropPending(it);  // a live query already recomputed this answer
      continue;
    }
    lru_.push_front(
        Entry{std::move(key), std::move(it->entry.value), it->bytes});
    entries_.emplace(lru_.front().key, lru_.begin());
    ++restored_;
    ++resolved;
    it = pending_.erase(it);
  }
  return resolved;
}

AnswerCacheStats AnswerCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AnswerCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.restored = restored_;
  s.bytes = bytes_;
  s.entries = entries_.size();
  s.pending = pending_.size();
  return s;
}

}  // namespace bvq
