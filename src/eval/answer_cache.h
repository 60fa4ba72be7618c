#ifndef BVQ_EVAL_ANSWER_CACHE_H_
#define BVQ_EVAL_ANSWER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "db/assignment_set.h"
#include "db/database.h"
#include "logic/analysis.h"

namespace bvq {

/// Configuration for AnswerCache.
struct AnswerCacheOptions {
  /// Cap on resident value bytes; least-recently-used entries are evicted
  /// to stay under it. 0 means no cap (the governor budget, if any, still
  /// applies).
  std::size_t max_bytes = std::size_t{64} << 20;
  /// Long-lived residency account (not owned; must outlive the cache).
  /// Every resident entry holds a TryCharge against it and releases on
  /// eviction/Clear/destruction — the cache never trips the governor: an
  /// insert that would exceed the budget evicts, then gives up, instead of
  /// poisoning the session token with ResourceExhausted.
  ResourceGovernor* governor = nullptr;
};

/// Cumulative observations of one AnswerCache (monotone counters survive
/// Clear; bytes/entries are the current residency).
struct AnswerCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Pending entries moved into the live map by ResolveAgainst (monotone).
  std::uint64_t restored = 0;
  std::size_t bytes = 0;
  std::size_t entries = 0;
  /// Restored entries still waiting for a database whose fingerprints match.
  std::size_t pending = 0;
};

/// A persistent, version-invalidated answer cache shared across the queries
/// of a session (DESIGN.md §11).
///
/// Entries map a Key — a structural class from this cache's FormulaInterner
/// together with the evaluation shape (domain size, k) and the database
/// versions of the class's free relation variables — to the subformula's
/// answer cube. Because class ids are hash-consed exactly (equal id ⟺
/// syntactically identical subtree) and relation versions are process-wide
/// nonces (Database::relation_version), a key matches iff the cached cube
/// is *the* answer for that subtree on the current database: mutating or
/// reloading a relation changes its version, so stale entries stop
/// matching. Invalidation is per key, never a flush: ResolveAgainst, which
/// every database write calls, frees exactly the entries the write made
/// unreachable and keeps every entry that is still current.
///
/// Only subtrees whose free relation variables are all database-resolved
/// are cacheable (the BoundedEvaluator enforces this: an all-zero memo
/// version signature); anything depending on a fixpoint iterate or
/// second-order witness stays per-query.
///
/// Thread safety: all methods are mutex-serialized; the embedded interner
/// has its own lock, so concurrent index builds and probes interleave
/// safely.
class AnswerCache {
 public:
  struct Key {
    std::size_t cls = 0;
    std::size_t domain_size = 0;
    std::size_t num_vars = 0;
    /// Database versions of the class's free relation variables, in sorted
    /// interned-id order (the order FormulaIndex::FreeRelVars reports).
    std::vector<std::uint64_t> versions;

    bool operator==(const Key& other) const {
      return cls == other.cls && domain_size == other.domain_size &&
             num_vars == other.num_vars && versions == other.versions;
    }
  };

  /// Process-independent form of a Key (DESIGN.md §13): the formula class as
  /// its canonical byte form instead of a process-local id, and relations as
  /// (name, content fingerprint) pairs instead of version nonces. Two
  /// processes build the same PortableKey for the same subformula over
  /// databases with identical relation contents — the identity snapshots are
  /// keyed on.
  struct PortableKey {
    std::string canon;  // FormulaInterner::CanonicalFormOf of the class
    std::size_t domain_size = 0;
    std::size_t num_vars = 0;
    /// (relation name, Relation::fingerprint) of every free relation
    /// variable of the class, sorted by name.
    std::vector<std::pair<std::string, std::uint64_t>> rels;
  };

  struct PortableEntry {
    PortableKey key;
    AssignmentSet value;
  };

  explicit AnswerCache(AnswerCacheOptions options = {});
  ~AnswerCache();

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// The interner every formula of the session must be indexed against for
  /// its class ids to mean the same thing as the cached keys.
  FormulaInterner* interner() { return &interner_; }

  /// On hit copies the cached cube into `*out`, refreshes the entry's LRU
  /// position, and returns true; on miss returns false and leaves `*out`
  /// alone.
  bool Lookup(const Key& key, AssignmentSet* out);

  /// Inserts a copy of `value` (refreshing LRU on an already-present key —
  /// the value is known identical, keys determine answers). Evicts LRU
  /// entries as needed to respect max_bytes and the governor budget; if the
  /// entry still does not fit with the cache empty, the insert is dropped.
  void Insert(const Key& key, const AssignmentSet& value);

  /// Drops every entry and releases all governor bytes. Monotone counters
  /// and the interner survive (class ids stay valid).
  void Clear();

  /// Re-keys every live entry that is *currently resolved against `db`* —
  /// domain size equal and every free relation variable's version matching
  /// the database — into portable form, for snapshotting. Entries keyed on
  /// stale versions (or on relations the database no longer has) are
  /// skipped: they answer nothing on this database, so they would be dead
  /// weight or worse in a snapshot.
  std::vector<PortableEntry> ExportResolved(const Database& db);

  /// Stashes restored snapshot entries as *pending*: charged against
  /// max_bytes and the governor via TryCharge but shed (dropped, not
  /// tripped, and never at the cost of a live entry) when the charge does
  /// not fit. Pending entries serve no lookups until ResolveAgainst moves
  /// them live, so a stale snapshot is per-key misses, never wrong answers.
  /// Returns how many entries were retained.
  std::size_t Restore(std::vector<PortableEntry> entries);

  /// Call after every database mutation, while `db` cannot change (the
  /// caller holds its db lock). First frees every live entry that is no
  /// longer current on `db` — its domain size differs, or a free relation's
  /// version is not `db`'s — and releases its bytes to max_bytes and the
  /// governor: versions are never reused, so no later lookup could reach
  /// it. Then matches pending entries against `db`: an entry whose domain
  /// size and relation fingerprints all match has its canonical form
  /// interned and re-enters the live map keyed on the database's *current*
  /// versions. Entries that don't match stay pending (the database may
  /// still be loading); malformed or duplicate entries are dropped. Returns
  /// how many entries went live.
  std::size_t ResolveAgainst(const Database& db);

  AnswerCacheStats stats() const;

 private:
  struct Entry {
    Key key;
    AssignmentSet value;
    std::size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  struct PendingEntry {
    PortableEntry entry;
    std::size_t bytes = 0;
  };

  // FormulaInterner::FreePredNames per class, filled during one pass over
  // the live entries: classes recur across versions, so a pass asks the
  // interner once per class, not once per entry.
  using FreeNameMemo =
      std::unordered_map<std::size_t, std::vector<std::string>>;

  // True iff `key` is the key the evaluator would build for its class on
  // `db` now: the domain size is db's, and every free relation's version
  // is db.relation_version(name) and not 0 (the relation exists). Fills
  // `(*names)[key.cls]` when the domain matches. Requires mutex_ held.
  bool IsCurrent(const Key& key, const Database& db, FreeNameMemo* names);

  // Drops the next victim — the oldest pending entry if any (restored
  // warmth is speculative; live entries were paid for by real queries), the
  // least-recently-used live entry otherwise. Requires mutex_ held and a
  // non-empty cache.
  void EvictOne();
  // Charges `bytes` of residency, evicting as needed; false = does not fit.
  // Requires mutex_ held.
  bool ReserveBytes(std::size_t bytes);
  // Each releases a live (pending) entry's charge and erases it; returns
  // the iterator past it. Requires mutex_ held.
  LruList::iterator DropLive(LruList::iterator it);
  std::deque<PendingEntry>::iterator DropPending(
      std::deque<PendingEntry>::iterator it);

  const AnswerCacheOptions options_;
  FormulaInterner interner_;

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> entries_;
  std::deque<PendingEntry> pending_;  // restored, not yet fingerprint-matched
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t restored_ = 0;
};

}  // namespace bvq

#endif  // BVQ_EVAL_ANSWER_CACHE_H_
