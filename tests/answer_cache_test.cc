// Tests for the cross-query answer cache (DESIGN.md §11): database
// relation versioning, the shared FormulaInterner, ResourceGovernor's
// non-tripping TryCharge, the AnswerCache LRU itself, and the evaluator
// integration — warm hits byte-identical to the cache-off path, stale
// entries invalidated by version mismatch, governor accounts balanced
// through insert/evict/clear cycles.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/resource.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/answer_cache.h"
#include "eval/bounded_eval.h"
#include "eval/cache_snapshot.h"
#include "logic/analysis.h"
#include "logic/parser.h"

namespace bvq {
namespace {

Database PathDbWithLastP(std::size_t n) {
  Database db(n);
  EXPECT_TRUE(db.AddRelation("E", PathGraph(n)).ok());
  RelationBuilder p(1);
  Value last = static_cast<Value>(n - 1);
  p.Add(&last);
  EXPECT_TRUE(db.AddRelation("P", p.Build()).ok());
  return db;
}

AssignmentSet MustEval(const Database& db, std::size_t k, const FormulaPtr& f,
                       BoundedEvalOptions opts, EvalStats* stats = nullptr) {
  BoundedEvaluator eval(db, k, opts);
  auto r = eval.Evaluate(f);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (stats != nullptr) *stats = eval.stats();
  return *r;
}

FormulaPtr MustParse(const std::string& text) {
  auto f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

// A fixpoint whose whole tree is database-resolved, so every memoized
// subtree (the root included) is exportable to the cross-query cache.
const char kReach[] = "[lfp T(x1) . P(x1) | exists x2 . (E(x1,x2) & T(x2))](x1)";

// --- Database relation versions --------------------------------------------

TEST(RelationVersionTest, VersionsAreFreshNoncesPerAddRelation) {
  Database db(4);
  EXPECT_EQ(db.relation_version("E"), 0u);  // missing = 0, never a nonce
  ASSERT_TRUE(db.AddRelation("E", PathGraph(4)).ok());
  const std::uint64_t v1 = db.relation_version("E");
  EXPECT_NE(v1, 0u);

  // Replacing a relation (same name, even same contents) gets a version
  // never handed out before — a cache key from before the mutation can
  // never match again.
  ASSERT_TRUE(db.AddRelation("E", PathGraph(4)).ok());
  const std::uint64_t v2 = db.relation_version("E");
  EXPECT_NE(v2, v1);
  EXPECT_NE(v2, 0u);

  // Versions are process-wide: a different database's relations never
  // collide with this one's.
  Database other(4);
  ASSERT_TRUE(other.AddRelation("E", PathGraph(4)).ok());
  EXPECT_NE(other.relation_version("E"), v1);
  EXPECT_NE(other.relation_version("E"), v2);
}

TEST(RelationVersionTest, CopiesShareVersionsReparseDoesNot) {
  Database db = PathDbWithLastP(4);
  Database copy = db;  // same object history -> same versions
  EXPECT_EQ(copy.relation_version("E"), db.relation_version("E"));
  EXPECT_EQ(copy.relation_version("P"), db.relation_version("P"));

  auto reparsed = ParseDatabase(db.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_NE(reparsed->relation_version("E"), db.relation_version("E"));
}

// --- FormulaInterner across formulas ----------------------------------------

TEST(FormulaInternerTest, SharedInternerAlignsClassIdsAcrossFormulas) {
  FormulaInterner interner;
  auto a = MustParse("E(x1,x2) & P(x1)");
  auto b = MustParse("P(x1) | E(x1,x2)");
  FormulaIndex ia(a, &interner);
  FormulaIndex ib(b, &interner);

  const auto& conj = static_cast<const BinaryFormula&>(*a);
  const auto& disj = static_cast<const BinaryFormula&>(*b);
  // Identical subtrees of *different* formulas share a class id — that is
  // what makes one formula's exported answer another formula's cache hit.
  EXPECT_EQ(ia.Facts(conj.lhs().get()).cls, ib.Facts(disj.rhs().get()).cls);
  EXPECT_EQ(ia.Facts(conj.rhs().get()).cls, ib.Facts(disj.lhs().get()).cls);
  // The two roots are distinct formulas and get distinct classes.
  EXPECT_NE(ia.Facts(a.get()).cls, ib.Facts(b.get()).cls);
}

TEST(FormulaInternerTest, SeparateInternersAreIndependent) {
  auto f = MustParse("E(x1,x2)");
  FormulaIndex ia(f);  // owns a private interner
  FormulaIndex ib(f);
  // Both assign ids from scratch: same structure, same local numbering.
  EXPECT_EQ(ia.Facts(f.get()).cls, ib.Facts(f.get()).cls);
}

// --- ResourceGovernor::TryCharge --------------------------------------------

TEST(TryChargeTest, RefusalLeavesAccountExactAndNeverTrips) {
  ResourceGovernor::Limits limits;
  limits.mem_budget_bytes = 1024;
  ResourceGovernor gov(limits);

  EXPECT_TRUE(gov.TryCharge(512));
  EXPECT_EQ(gov.stats().mem_current_bytes, 512u);

  // Over budget: refused, nothing sticks, and — unlike Charge — the
  // governor is NOT tripped; later work proceeds.
  EXPECT_FALSE(gov.TryCharge(1024));
  EXPECT_EQ(gov.stats().mem_current_bytes, 512u);
  EXPECT_FALSE(gov.stopped());
  EXPECT_TRUE(gov.Check().ok());
  EXPECT_TRUE(gov.Charge(256).ok());
  gov.Release(768);
  EXPECT_EQ(gov.stats().mem_current_bytes, 0u);
}

TEST(TryChargeTest, ParentRefusalRollsBackChild) {
  ResourceGovernor::Limits parent_limits;
  parent_limits.mem_budget_bytes = 256;
  ResourceGovernor parent(parent_limits);
  ResourceGovernor child;  // unlimited on its own
  child.set_parent(&parent);

  // The child accepts 512 but the parent refuses: the charge must land in
  // NEITHER account (contrast Charge, which sticks in both and trips).
  EXPECT_FALSE(child.TryCharge(512));
  EXPECT_EQ(child.stats().mem_current_bytes, 0u);
  EXPECT_EQ(parent.stats().mem_current_bytes, 0u);
  EXPECT_FALSE(parent.stopped());

  // Within budget it lands in both, and Release drains both.
  EXPECT_TRUE(child.TryCharge(128));
  EXPECT_EQ(child.stats().mem_current_bytes, 128u);
  EXPECT_EQ(parent.stats().mem_current_bytes, 128u);
  child.Release(128);
  EXPECT_EQ(child.stats().mem_current_bytes, 0u);
  EXPECT_EQ(parent.stats().mem_current_bytes, 0u);
}

TEST(TryChargeTest, StoppedGovernorRefusesImmediately) {
  ResourceGovernor gov;
  gov.Cancel("test");
  EXPECT_FALSE(gov.TryCharge(1));
  EXPECT_EQ(gov.stats().mem_current_bytes, 0u);
}

// --- AnswerCache ------------------------------------------------------------

AnswerCache::Key TestKey(std::size_t cls, std::uint64_t version) {
  AnswerCache::Key key;
  key.cls = cls;
  key.domain_size = 8;
  key.num_vars = 3;
  key.versions = {version};
  return key;
}

TEST(AnswerCacheTest, LookupMissThenHitAfterInsert) {
  AnswerCache cache;
  AssignmentSet out;
  EXPECT_FALSE(cache.Lookup(TestKey(0, 1), &out));

  AssignmentSet value = AssignmentSet::Full(8, 3);
  cache.Insert(TestKey(0, 1), value);
  ASSERT_TRUE(cache.Lookup(TestKey(0, 1), &out));
  EXPECT_TRUE(out == value);

  // Same class, different relation version: a distinct key — no hit.
  EXPECT_FALSE(cache.Lookup(TestKey(0, 2), &out));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(AnswerCacheTest, LruEvictsColdestUnderByteCap) {
  AssignmentSet value = AssignmentSet::Full(8, 3);
  // Find one entry's cost, then cap the cache at two entries.
  std::size_t per_entry = 0;
  {
    AnswerCache probe;
    probe.Insert(TestKey(0, 1), value);
    per_entry = probe.stats().bytes;
  }
  AnswerCacheOptions options;
  options.max_bytes = 2 * per_entry;
  AnswerCache cache(options);

  cache.Insert(TestKey(0, 1), value);
  cache.Insert(TestKey(1, 1), value);
  AssignmentSet out;
  // Touch key 0 so key 1 is the LRU victim.
  ASSERT_TRUE(cache.Lookup(TestKey(0, 1), &out));
  cache.Insert(TestKey(2, 1), value);

  EXPECT_TRUE(cache.Lookup(TestKey(0, 1), &out));
  EXPECT_FALSE(cache.Lookup(TestKey(1, 1), &out));  // evicted
  EXPECT_TRUE(cache.Lookup(TestKey(2, 1), &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_LE(cache.stats().bytes, options.max_bytes);
}

TEST(AnswerCacheTest, GovernorAccountBalancesThroughEvictClearDestroy) {
  // Analogue of ChildBudgetTripKeepsParentAccountBalanced for the cache:
  // every resident byte is charged to the session account and every
  // eviction path — LRU, Clear, destruction — releases exactly what it
  // charged, so the account returns to zero.
  ResourceGovernor session;
  AssignmentSet value = AssignmentSet::Full(8, 3);
  std::size_t per_entry = 0;
  {
    AnswerCache probe;
    probe.Insert(TestKey(0, 1), value);
    per_entry = probe.stats().bytes;
  }
  {
    AnswerCacheOptions options;
    options.max_bytes = 2 * per_entry;
    options.governor = &session;
    AnswerCache cache(options);
    for (std::size_t i = 0; i < 5; ++i) {
      cache.Insert(TestKey(i, 1), value);
      EXPECT_EQ(session.stats().mem_current_bytes, cache.stats().bytes);
    }
    EXPECT_EQ(cache.stats().evictions, 3u);

    cache.Clear();
    EXPECT_EQ(session.stats().mem_current_bytes, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    // Monotone counters survive Clear.
    EXPECT_EQ(cache.stats().insertions, 5u);

    cache.Insert(TestKey(7, 1), value);
    EXPECT_EQ(session.stats().mem_current_bytes, cache.stats().bytes);
  }  // destructor releases the last resident entry
  EXPECT_EQ(session.stats().mem_current_bytes, 0u);
}

TEST(AnswerCacheTest, GovernorRefusalShedsLruInsteadOfTripping) {
  AssignmentSet value = AssignmentSet::Full(8, 3);
  std::size_t per_entry = 0;
  {
    AnswerCache probe;
    probe.Insert(TestKey(0, 1), value);
    per_entry = probe.stats().bytes;
  }
  ResourceGovernor::Limits limits;
  limits.mem_budget_bytes = per_entry + per_entry / 2;  // one entry fits
  ResourceGovernor session(limits);
  AnswerCacheOptions options;
  options.governor = &session;
  AnswerCache cache(options);

  cache.Insert(TestKey(0, 1), value);
  cache.Insert(TestKey(1, 1), value);  // evicts key 0 to make room
  AssignmentSet out;
  EXPECT_FALSE(cache.Lookup(TestKey(0, 1), &out));
  EXPECT_TRUE(cache.Lookup(TestKey(1, 1), &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The cache never trips the session token.
  EXPECT_FALSE(session.stopped());
  EXPECT_TRUE(session.Check().ok());
}

// --- Evaluator integration --------------------------------------------------

TEST(CrossQueryCacheTest, WarmHitIsByteIdenticalToCacheOff) {
  Database db = PathDbWithLastP(8);
  auto f = MustParse(kReach);

  BoundedEvalOptions off;
  off.cross_query_cache = false;
  const AssignmentSet reference = MustEval(db, 3, f, off);

  AnswerCache cache;
  BoundedEvalOptions on;
  on.answer_cache = &cache;

  EvalStats cold_stats;
  const AssignmentSet cold = MustEval(db, 3, f, on, &cold_stats);
  EXPECT_TRUE(cold == reference);
  EXPECT_EQ(cold_stats.cache_hits, 0u);
  EXPECT_GT(cold_stats.cache_misses, 0u);

  EvalStats warm_stats;
  const AssignmentSet warm = MustEval(db, 3, f, on, &warm_stats);
  EXPECT_TRUE(warm == reference);
  EXPECT_GT(warm_stats.cache_hits, 0u);
  EXPECT_GT(warm_stats.cache_bytes, 0u);
}

TEST(CrossQueryCacheTest, SharedSubformulaHitsAcrossDifferentQueries) {
  Database db = PathDbWithLastP(8);
  AnswerCache cache;
  BoundedEvalOptions on;
  on.answer_cache = &cache;

  // Two different queries sharing the reachability fixpoint verbatim.
  auto a = MustParse(std::string(kReach));
  auto b = MustParse("P(x1) & " + std::string(kReach));
  MustEval(db, 3, a, on);
  EvalStats stats;
  const AssignmentSet got = MustEval(db, 3, b, on, &stats);
  EXPECT_GT(stats.cache_hits, 0u);

  BoundedEvalOptions off;
  off.cross_query_cache = false;
  EXPECT_TRUE(got == MustEval(db, 3, b, off));
}

TEST(CrossQueryCacheTest, MutationInvalidatesByVersion) {
  Database db = PathDbWithLastP(8);
  auto f = MustParse(kReach);
  AnswerCache cache;
  BoundedEvalOptions on;
  on.answer_cache = &cache;

  const AssignmentSet before = MustEval(db, 3, f, on);

  // Mutate E mid-session: drop all edges. Stale E-dependent entries stay
  // resident but their keys can never match the new version — those probes
  // miss and the fixpoint is recomputed. Invalidation is per-key, not a
  // flush: the P(x1) subtree's key still matches (P was not touched), so
  // it survives the mutation warm.
  ASSERT_TRUE(db.AddRelation("E", RelationBuilder(2).Build()).ok());
  EvalStats stats;
  const AssignmentSet after = MustEval(db, 3, f, on, &stats);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hits, 0u);  // the untouched-P subtree

  BoundedEvalOptions off;
  off.cross_query_cache = false;
  EXPECT_TRUE(after == MustEval(db, 3, f, off));
  EXPECT_FALSE(after == before);  // P-reachability collapsed to P itself

  // And the fresh result is itself cached: an immediate re-run hits.
  EvalStats warm;
  EXPECT_TRUE(MustEval(db, 3, f, on, &warm) == after);
  EXPECT_GT(warm.cache_hits, 0u);
}

TEST(CrossQueryCacheTest, KillSwitchSkipsCacheEntirely) {
  Database db = PathDbWithLastP(8);
  auto f = MustParse(kReach);
  AnswerCache cache;

  BoundedEvalOptions off;
  off.answer_cache = &cache;
  off.cross_query_cache = false;
  EvalStats stats;
  MustEval(db, 3, f, off, &stats);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);  // nothing probed, nothing exported
}

TEST(CrossQueryCacheTest, CacheNeedsMemoLayer) {
  Database db = PathDbWithLastP(8);
  auto f = MustParse(kReach);
  AnswerCache cache;

  // The cache piggybacks on the memo layer; with memo off it is inert.
  BoundedEvalOptions no_memo;
  no_memo.answer_cache = &cache;
  no_memo.memo = false;
  EvalStats stats;
  const AssignmentSet got = MustEval(db, 3, f, no_memo, &stats);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);

  BoundedEvalOptions off;
  off.cross_query_cache = false;
  EXPECT_TRUE(got == MustEval(db, 3, f, off));
}

TEST(CrossQueryCacheTest, EnvironmentDependentSubtreesStayPerQuery) {
  Database db = PathDbWithLastP(8);
  AnswerCache cache;
  BoundedEvalOptions on;
  on.answer_cache = &cache;

  // T is fixpoint-bound inside the body: the body's memo entries carry
  // nonzero version signatures and must never be exported. Only the
  // db-resolved subtrees (and the closed root) are cacheable.
  auto f = MustParse(kReach);
  MustEval(db, 3, f, on);
  const auto exported = cache.stats().entries;
  EXPECT_GT(exported, 0u);

  // Re-running yields hits only for those db-resolved entries, and the
  // answer stays byte-identical.
  EvalStats stats;
  const AssignmentSet warm = MustEval(db, 3, f, on, &stats);
  EXPECT_GT(stats.cache_hits, 0u);
  BoundedEvalOptions off;
  off.cross_query_cache = false;
  EXPECT_TRUE(warm == MustEval(db, 3, f, off));
}

// --- Reclamation on database writes ----------------------------------------

// Touches P and no relation at all: the subtrees a write to E must spare.
const char kPOnly[] = "P(x1) & x1 = x2";

TEST(CacheReclaimTest, ReplacingEFreesEveryEDependentEntryAndKeepsTheRest) {
  Database db = PathDbWithLastP(8);
  AnswerCache cache;
  BoundedEvalOptions on;
  on.answer_cache = &cache;

  // The P-only and relation-free entries first, so their residency is
  // known; kReach then adds its E-dependent ones (and hits P(x1)).
  MustEval(db, 3, MustParse(kPOnly), on);
  const AnswerCacheStats survivors = cache.stats();
  EXPECT_EQ(survivors.entries, 3u);  // the conjunction, P(x1), x1 = x2
  MustEval(db, 3, MustParse(kReach), on);
  EXPECT_GT(cache.stats().entries, survivors.entries);

  ASSERT_TRUE(db.AddRelation("E", CycleGraph(8)).ok());
  EXPECT_EQ(cache.ResolveAgainst(db), 0u);  // nothing pending
  EXPECT_EQ(cache.stats().entries, survivors.entries);
  EXPECT_EQ(cache.stats().bytes, survivors.bytes);
  EXPECT_EQ(cache.stats().evictions, 0u);  // reclaimed, not capacity-evicted

  // Every survivor still answers: the P-only query is all hits.
  EvalStats warm;
  MustEval(db, 3, MustParse(kPOnly), on, &warm);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  // And the E-dependent answers are recomputed on the new E.
  EvalStats recomputed;
  const AssignmentSet got = MustEval(db, 3, MustParse(kReach), on,
                                     &recomputed);
  EXPECT_GT(recomputed.cache_misses, 0u);
  BoundedEvalOptions off;
  off.cross_query_cache = false;
  EXPECT_TRUE(got == MustEval(db, 3, MustParse(kReach), off));
}

TEST(CacheReclaimTest, GovernorAccountBalancesThroughReclaimClearDestroy) {
  ResourceGovernor session;
  Database db = PathDbWithLastP(8);
  {
    AnswerCacheOptions options;
    options.governor = &session;
    AnswerCache cache(options);
    BoundedEvalOptions on;
    on.answer_cache = &cache;
    MustEval(db, 3, MustParse(kReach), on);
    MustEval(db, 3, MustParse(kPOnly), on);
    EXPECT_EQ(session.stats().mem_current_bytes, cache.stats().bytes);

    ASSERT_TRUE(db.AddRelation("E", CycleGraph(8)).ok());
    cache.ResolveAgainst(db);
    EXPECT_GT(cache.stats().bytes, 0u);
    EXPECT_EQ(session.stats().mem_current_bytes, cache.stats().bytes);

    ASSERT_TRUE(db.AddRelation("P", RelationBuilder(1).Build()).ok());
    cache.ResolveAgainst(db);
    EXPECT_EQ(cache.stats().entries, 1u);  // x1 = x2 alone is left
    EXPECT_EQ(session.stats().mem_current_bytes, cache.stats().bytes);

    cache.Clear();
    EXPECT_EQ(session.stats().mem_current_bytes, 0u);

    MustEval(db, 3, MustParse(kReach), on);
    EXPECT_EQ(session.stats().mem_current_bytes, cache.stats().bytes);
  }  // destructor releases what the last eval left resident
  EXPECT_EQ(session.stats().mem_current_bytes, 0u);
}

TEST(CacheReclaimTest, PendingEntriesSurviveTheSweepAndResolveLater) {
  Database db = PathDbWithLastP(8);
  AnswerCache warm;
  BoundedEvalOptions warm_on;
  warm_on.answer_cache = &warm;
  MustEval(db, 3, MustParse(kReach), warm_on);
  std::vector<AnswerCache::PortableEntry> exported = warm.ExportResolved(db);
  ASSERT_FALSE(exported.empty());

  // A restarted session over other contents: the snapshot stays pending
  // while live entries come and go with the writes.
  Database other(8);
  ASSERT_TRUE(other.AddRelation("E", CycleGraph(8)).ok());
  ASSERT_TRUE(other.AddRelation("P", RelationBuilder(1).Build()).ok());
  AnswerCache cache;
  const std::size_t kept = cache.Restore(std::move(exported));
  ASSERT_GT(kept, 0u);
  const std::size_t pending_bytes = cache.stats().bytes;
  EXPECT_EQ(cache.ResolveAgainst(other), 0u);
  BoundedEvalOptions on;
  on.answer_cache = &cache;
  MustEval(other, 3, MustParse(kReach), on);
  EXPECT_GT(cache.stats().entries, 0u);

  // Rewriting E, even with the same contents, gives it a new version.
  ASSERT_TRUE(other.AddRelation("E", CycleGraph(8)).ok());
  EXPECT_EQ(cache.ResolveAgainst(other), 0u);
  EXPECT_EQ(cache.stats().pending, kept);
  EXPECT_EQ(cache.stats().entries, 1u);  // only the untouched P(x1)

  // The snapshot's own contents come back (a reparse: new versions, same
  // fingerprints): the other database's entries are freed, every pending
  // entry goes live, and the next evaluation is served from them.
  auto reparsed = ParseDatabase(db.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(cache.ResolveAgainst(*reparsed), kept);
  EXPECT_EQ(cache.stats().pending, 0u);
  EXPECT_EQ(cache.stats().entries, kept);
  EXPECT_EQ(cache.stats().bytes, pending_bytes);
  EvalStats stats;
  const AssignmentSet got =
      MustEval(*reparsed, 3, MustParse(kReach), on, &stats);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  BoundedEvalOptions off;
  off.cross_query_cache = false;
  EXPECT_TRUE(got == MustEval(db, 3, MustParse(kReach), off));
}

TEST(CacheReclaimTest, DomainChangeFreesEveryEntryOfTheOldSize) {
  Database db = PathDbWithLastP(8);
  ResourceGovernor session;
  AnswerCacheOptions options;
  options.governor = &session;
  AnswerCache cache(options);
  BoundedEvalOptions on;
  on.answer_cache = &cache;
  MustEval(db, 3, MustParse(kReach), on);
  MustEval(db, 3, MustParse(kPOnly), on);
  ASSERT_GT(cache.stats().entries, 0u);

  // A fresh database of the same size keeps the relation-free x1 = x2: its
  // answer depends on the domain alone.
  cache.ResolveAgainst(Database(8));
  EXPECT_EQ(cache.stats().entries, 1u);

  cache.ResolveAgainst(Database(9));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(session.stats().mem_current_bytes, 0u);
}

// --- Per-query state in a long session --------------------------------------

// The i-th of 2^11 distinct walk guards on x1 over E and P, in the shape of
// the servebench cold stream's.
std::string WalkGuard(std::size_t i) {
  std::string guard = "P(x1)";
  for (int step = 0; step < 11; ++step) {
    const char* atom = (i >> step & 1) != 0 ? "E(x1,x3)" : "E(x3,x1)";
    guard = std::string("exists x3 . (") + atom +
            " & exists x1 . (x1 = x3 & " + guard + "))";
  }
  return guard;
}

void ExpectSameCounters(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.fixpoint_iterations, b.fixpoint_iterations);
  EXPECT_EQ(a.node_evals, b.node_evals);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  EXPECT_EQ(a.parallel_loops, b.parallel_loops);
  EXPECT_EQ(a.parallel_chunks, b.parallel_chunks);
  EXPECT_EQ(a.chunks_stolen, b.chunks_stolen);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.memo_misses, b.memo_misses);
  EXPECT_EQ(a.invariant_hoists, b.invariant_hoists);
  EXPECT_EQ(a.iterate_copies_avoided, b.iterate_copies_avoided);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.cache_bytes, b.cache_bytes);
}

TEST(CrossQueryCacheTest, PerQueryStateIsSizedByTheQueryNotTheSession) {
  Database db = PathDbWithLastP(8);
  const FormulaPtr f = MustParse(kReach);
  struct Run {
    AssignmentSet answer;
    EvalStats stats;
    std::size_t predicted = 0;
  };
  const auto run = [&](AnswerCache* cache) {
    ResourceGovernor governor;
    BoundedEvalOptions on;
    on.num_threads = 1;
    on.answer_cache = cache;
    on.governor = &governor;
    BoundedEvaluator eval(db, 3, on);
    auto r = eval.Evaluate(f);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return Run{*r, eval.stats(), governor.stats().mem_predicted_bytes};
  };

  AnswerCache fresh;
  const Run want = run(&fresh);

  AnswerCache session;
  for (std::size_t i = 0; i < 2000; ++i) {
    FormulaIndex walk(MustParse(WalkGuard(i)), session.interner());
  }
  ASSERT_GE(session.interner()->num_classes(), 2000u);
  FormulaInterner own;
  const FormulaIndex alone(f, &own);
  const FormulaIndex index(f, session.interner());
  EXPECT_EQ(index.num_slots(), own.num_classes());
  EXPECT_EQ(index.num_preds(), own.num_preds());

  const Run got = run(&session);
  EXPECT_EQ(got.predicted, want.predicted);
  EXPECT_TRUE(got.answer == want.answer);
  ExpectSameCounters(got.stats, want.stats);
}

// --- Relation fingerprints (DESIGN.md §13) ----------------------------------

TEST(RelationFingerprintTest, OrderIndependentAndIncrementallyMaintained) {
  const Value rows[3][2] = {{0, 1}, {1, 2}, {2, 3}};

  RelationBuilder fwd(2), rev(2);
  for (int i = 0; i < 3; ++i) fwd.Add(rows[i]);
  for (int i = 2; i >= 0; --i) rev.Add(rows[i]);
  const Relation a = fwd.Build();
  const Relation b = rev.Build();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Insert-built and bulk-built relations with the same tuple set agree —
  // the fingerprint is maintained incrementally, not recomputed.
  Relation c(2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(c.Insert({rows[i][0], rows[i][1]}));
  }
  EXPECT_EQ(c.fingerprint(), a.fingerprint());
  // A duplicate insert is a no-op for content, so also for the fingerprint.
  EXPECT_FALSE(c.Insert({rows[0][0], rows[0][1]}));
  EXPECT_EQ(c.fingerprint(), a.fingerprint());
}

TEST(RelationFingerprintTest, SensitiveToContentArityAndSize) {
  RelationBuilder base(2);
  const Value t0[] = {0, 1};
  base.Add(t0);
  const Relation r0 = base.Build();

  RelationBuilder other(2);
  const Value t1[] = {1, 0};
  other.Add(t1);
  EXPECT_NE(r0.fingerprint(), other.Build().fingerprint());

  // Same flat bytes, different arity.
  RelationBuilder unary(1);
  const Value u0[] = {0};
  const Value u1[] = {1};
  unary.Add(u0);
  unary.Add(u1);
  EXPECT_NE(r0.fingerprint(), unary.Build().fingerprint());

  // Empty relations of different arity are still distinguishable, and
  // a proposition differs from an empty nullary relation.
  EXPECT_NE(RelationBuilder(1).Build().fingerprint(),
            RelationBuilder(2).Build().fingerprint());
  EXPECT_NE(Relation::Proposition(true).fingerprint(),
            Relation::Proposition(false).fingerprint());
}

TEST(RelationFingerprintTest, StableAcrossReparseWhileVersionsAreNot) {
  Database db = PathDbWithLastP(6);
  auto reparsed = ParseDatabase(db.ToString());
  ASSERT_TRUE(reparsed.ok());
  // Same contents: same fingerprints — this is the identity persistence
  // keys on. The version nonces, by design, do not survive.
  EXPECT_EQ(reparsed->relation_fingerprint("E"), db.relation_fingerprint("E"));
  EXPECT_EQ(reparsed->relation_fingerprint("P"), db.relation_fingerprint("P"));
  EXPECT_NE(reparsed->relation_version("E"), db.relation_version("E"));
  // Missing relation: 0, never a fingerprint.
  EXPECT_EQ(db.relation_fingerprint("nope"), 0u);
  EXPECT_NE(db.relation_fingerprint("E"), 0u);
}

// --- Canonical class forms ---------------------------------------------------

TEST(CanonicalFormTest, RoundTripsAcrossIndependentInterners) {
  auto f = MustParse(kReach);
  FormulaInterner a;
  FormulaIndex ia(f, &a);
  const std::size_t cls_a = ia.Facts(f.get()).cls;
  const std::string canon = a.CanonicalFormOf(cls_a);
  ASSERT_FALSE(canon.empty());

  // A second interner with different id numbering (skewed by interning an
  // unrelated formula first) decodes the canon onto the *same* class a
  // local index build of the same formula lands on.
  FormulaInterner b;
  auto skew = MustParse("exists x1 . Q(x1,x1)");
  FormulaIndex ib_skew(skew, &b);
  std::size_t decoded = 0;
  ASSERT_TRUE(b.InternCanonical(canon, &decoded));
  FormulaIndex ib(f, &b);
  EXPECT_EQ(ib.Facts(f.get()).cls, decoded);
  // And the canon re-encodes identically from the new interner.
  EXPECT_EQ(b.CanonicalFormOf(decoded), canon);

  // Free predicate names (T is fixpoint-bound, E and P are free).
  std::vector<std::string> free_names = b.FreePredNames(decoded);
  std::sort(free_names.begin(), free_names.end());
  EXPECT_EQ(free_names, (std::vector<std::string>{"E", "P"}));
}

TEST(CanonicalFormTest, RejectsMalformedBytes) {
  auto f = MustParse(kReach);
  FormulaInterner a;
  FormulaIndex ia(f, &a);
  const std::string canon = a.CanonicalFormOf(ia.Facts(f.get()).cls);

  FormulaInterner b;
  std::size_t cls = 0;
  EXPECT_FALSE(b.InternCanonical("", &cls));
  // Every strict prefix is rejected, never crashes, never half-interns.
  for (std::size_t len = 0; len < canon.size(); ++len) {
    EXPECT_FALSE(b.InternCanonical(canon.substr(0, len), &cls))
        << "prefix length " << len;
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(b.InternCanonical(canon + "\xff", &cls));
  // An invalid kind tag up front.
  EXPECT_FALSE(b.InternCanonical(std::string(8, '\xff'), &cls));
  // The interner is still usable afterwards.
  ASSERT_TRUE(b.InternCanonical(canon, &cls));
  EXPECT_EQ(b.CanonicalFormOf(cls), canon);
}

// --- Portable export / restore / resolve ------------------------------------

TEST(PortableCacheTest, ExportRestoreResolveServesHitsOnReparsedDatabase) {
  Database db = PathDbWithLastP(8);
  auto f = MustParse(kReach);

  BoundedEvalOptions off;
  off.cross_query_cache = false;
  const AssignmentSet reference = MustEval(db, 3, f, off);

  AnswerCache warm;
  BoundedEvalOptions on;
  on.answer_cache = &warm;
  MustEval(db, 3, f, on);
  std::vector<AnswerCache::PortableEntry> exported = warm.ExportResolved(db);
  ASSERT_FALSE(exported.empty());

  // A fresh process: new cache, new interner, a reparse of the same data
  // (so every version nonce differs but every fingerprint matches).
  auto reparsed = ParseDatabase(db.ToString());
  ASSERT_TRUE(reparsed.ok());
  AnswerCache cold;
  const std::size_t kept = cold.Restore(std::move(exported));
  EXPECT_GT(kept, 0u);
  EXPECT_EQ(cold.stats().pending, kept);
  const std::size_t live = cold.ResolveAgainst(*reparsed);
  EXPECT_EQ(live, kept);
  EXPECT_EQ(cold.stats().pending, 0u);
  EXPECT_EQ(cold.stats().restored, live);

  // First evaluation after the "restart": hits, and bytes identical to the
  // cache-off reference.
  auto f2 = MustParse(kReach);
  BoundedEvalOptions prewarmed;
  prewarmed.answer_cache = &cold;
  EvalStats stats;
  const AssignmentSet got = MustEval(*reparsed, 3, f2, prewarmed, &stats);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_TRUE(got == reference);
}

TEST(PortableCacheTest, StaleSnapshotStaysPendingAndNeverAnswers) {
  Database db = PathDbWithLastP(8);
  auto f = MustParse(kReach);
  AnswerCache warm;
  BoundedEvalOptions on;
  on.answer_cache = &warm;
  MustEval(db, 3, f, on);
  std::vector<AnswerCache::PortableEntry> exported = warm.ExportResolved(db);
  ASSERT_FALSE(exported.empty());

  // Same schema and domain, different contents for both relations: every
  // fingerprint mismatches, so nothing resolves and nothing is served from
  // the snapshot. Entries wait pending (the right data may still be
  // loaded). (If a relation *were* unchanged — same fingerprint — its
  // entries would resolve, and correctly so: the fingerprint is the
  // content identity.)
  Database changed(8);
  ASSERT_TRUE(changed.AddRelation("E", CycleGraph(8)).ok());
  RelationBuilder p(1);
  const Value first = 0;
  p.Add(&first);
  ASSERT_TRUE(changed.AddRelation("P", p.Build()).ok());

  AnswerCache cold;
  const std::size_t kept = cold.Restore(std::move(exported));
  ASSERT_GT(kept, 0u);
  EXPECT_EQ(cold.ResolveAgainst(changed), 0u);
  EXPECT_EQ(cold.stats().pending, kept);
  EXPECT_EQ(cold.stats().entries, 0u);

  auto f2 = MustParse(kReach);
  BoundedEvalOptions prewarmed;
  prewarmed.answer_cache = &cold;
  EvalStats stats;
  const AssignmentSet got = MustEval(changed, 3, f2, prewarmed, &stats);
  EXPECT_EQ(stats.cache_hits, 0u);  // never a wrong answer from stale data
  BoundedEvalOptions off;
  off.cross_query_cache = false;
  EXPECT_TRUE(got == MustEval(changed, 3, f2, off));
}

TEST(PortableCacheTest, RestoreUnderPressureShedsViaTryCharge) {
  Database db = PathDbWithLastP(8);
  auto f = MustParse(kReach);
  AnswerCache warm;
  BoundedEvalOptions on;
  on.answer_cache = &warm;
  MustEval(db, 3, f, on);
  std::vector<AnswerCache::PortableEntry> exported = warm.ExportResolved(db);
  ASSERT_FALSE(exported.empty());

  // A governor with no memory headroom at all: every TryCharge is refused,
  // every restored entry is shed — and the session token is *not* tripped.
  ResourceGovernor::Limits limits;
  limits.mem_budget_bytes = 1;
  ResourceGovernor session(limits);
  AnswerCacheOptions options;
  options.governor = &session;
  AnswerCache cold(options);
  EXPECT_EQ(cold.Restore(std::move(exported)), 0u);
  EXPECT_EQ(cold.stats().pending, 0u);
  EXPECT_FALSE(session.stopped());
  EXPECT_TRUE(session.Check().ok());
  EXPECT_EQ(session.stats().mem_current_bytes, 0u);
}

// --- Snapshot codec ----------------------------------------------------------

std::vector<AnswerCache::PortableEntry> ExportedReachEntries(std::size_t n) {
  Database db = PathDbWithLastP(n);
  auto f = MustParse(kReach);
  AnswerCache cache;
  BoundedEvalOptions on;
  on.answer_cache = &cache;
  MustEval(db, 3, f, on);
  return cache.ExportResolved(db);
}

TEST(CacheSnapshotTest, EncodeDecodeRoundTrip) {
  const auto entries = ExportedReachEntries(8);
  ASSERT_FALSE(entries.empty());
  const std::string encoded = EncodeCacheSnapshot(entries);
  auto decoded = DecodeCacheSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*decoded)[i].key.canon, entries[i].key.canon);
    EXPECT_EQ((*decoded)[i].key.domain_size, entries[i].key.domain_size);
    EXPECT_EQ((*decoded)[i].key.num_vars, entries[i].key.num_vars);
    EXPECT_EQ((*decoded)[i].key.rels, entries[i].key.rels);
    EXPECT_TRUE((*decoded)[i].value == entries[i].value);
  }

  // The empty snapshot is valid too (a session that cached nothing).
  auto empty = DecodeCacheSnapshot(EncodeCacheSnapshot({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(CacheSnapshotTest, EveryTruncationIsRejectedNotCrashed) {
  const std::string encoded = EncodeCacheSnapshot(ExportedReachEntries(6));
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    auto r = DecodeCacheSnapshot(encoded.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

TEST(CacheSnapshotTest, EveryFlippedByteIsRejected) {
  const std::string encoded = EncodeCacheSnapshot(ExportedReachEntries(6));
  // Flipping any single byte breaks the magic, the version, the count, the
  // checksum, or the payload the checksum covers — all rejections. (No
  // stride: corrupt snapshots must *never* decode to plausible entries.)
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string bad = encoded;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    auto r = DecodeCacheSnapshot(bad);
    EXPECT_FALSE(r.ok()) << "flipped byte " << i;
  }
  // Trailing garbage changes the payload under the recorded checksum.
  EXPECT_FALSE(DecodeCacheSnapshot(encoded + "x").ok());
}

TEST(CacheSnapshotTest, SaveLoadFileRoundTripAndMissingFile) {
  const auto entries = ExportedReachEntries(8);
  const std::string path =
      ::testing::TempDir() + "/bvq_cache_snapshot_test.bvqcache";
  ASSERT_TRUE(SaveCacheSnapshotFile(path, entries).ok());
  auto loaded = LoadCacheSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), entries.size());
  std::remove(path.c_str());

  auto missing = LoadCacheSnapshotFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace bvq
