// Cross-query answer cache bench (DESIGN.md §11, §13): a batch of fixpoint
// queries that a client replays against an unchanged database, the
// repeated-dashboard shape the session cache exists for, in five passes:
//
//   off        no cache attached: the seed evaluation path and the reference
//   cold       a fresh cache, populated by the pass
//   warm       the same cache replayed: each query's root is one probe
//   codec      a restart's one-time cost: ExportResolved → encode → decode →
//              Restore → ResolveAgainst, into a new cache over a reparse of
//              the database (every version nonce differs, every content
//              fingerprint matches)
//   prewarmed  the batch on that restarted cache, with a new interner
//
//   bench_cache_warm [--n=40] [--reps=3] [--threads=1]
//                    [--out=BENCH_cache.json]
//
// Writes BENCH_cache.json. Gates: every pass answers every query
// byte-identically to the off pass, every query of the warm and prewarmed
// passes hits the cache, and the restore resolves entries.

#include <map>
#include <memory>

#include "bench_common.h"
#include "eval/answer_cache.h"
#include "eval/cache_snapshot.h"

namespace {

using namespace bvq;

// A cache whose residency is charged to its own governor account, the
// TryCharge path a serve::Session takes.
struct SessionCache {
  ResourceGovernor governor;
  AnswerCache cache{AnswerCacheOptions{.governor = &governor}};
};

struct Pass {
  std::vector<AssignmentSet> answers;
  std::uint64_t cache_hits = 0;
  std::size_t queries_missed = 0;  // queries with no cache hit at all
  std::size_t cache_bytes = 0;
};

// Evaluates the batch once, sharing `cache` across the queries as a
// serve::Session does (null = the cache-off path).
Pass RunBatch(const Database& db, const std::vector<FormulaPtr>& batch,
              SessionCache* cache, std::size_t threads) {
  BoundedEvalOptions opts;
  opts.num_threads = threads;
  opts.answer_cache = cache == nullptr ? nullptr : &cache->cache;
  opts.cross_query_cache = cache != nullptr;
  Pass out;
  for (const FormulaPtr& f : batch) {
    BoundedEvaluator eval(db, 3, opts);
    out.answers.push_back(bvq_bench::Must(eval.Evaluate(f), "eval"));
    out.cache_hits += eval.stats().cache_hits;
    out.queries_missed += eval.stats().cache_hits == 0;
    out.cache_bytes = eval.stats().cache_bytes;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bvq_bench::Record rec("cache_warm", 40, "BENCH_cache.json");
  const std::size_t& threads = rec.flags.Threads();
  rec.Parse(argc, argv);
  const std::size_t reps = rec.reps();

  const Database db = bvq_bench::LongPathDb(rec.n());
  const Database reparsed =
      bvq_bench::Must(ParseDatabase(db.ToString()), "reparse");
  const auto workloads = bvq_bench::InvariantGuardWorkloads();
  std::vector<FormulaPtr> batch;
  for (const bvq_bench::Workload& w : workloads) {
    batch.push_back(bvq_bench::Must(ParseFormula(w.formula), w.name));
  }
  rec.config.Set("k", 3).Set("queries", batch.size());

  // Every rep of every pass, kept for the identity gates.
  std::map<std::string, std::vector<Pass>> runs;
  std::unique_ptr<SessionCache> live, restarted;
  const auto run = [&](const std::string& pass, const Database& d,
                       SessionCache* cache) {
    runs[pass].push_back(RunBatch(d, batch, cache, threads));
  };
  std::size_t snapshot_bytes = 0, restored_entries = 0;
  const auto restart = [&] {
    restarted = std::make_unique<SessionCache>();
    const std::string snapshot =
        EncodeCacheSnapshot(live->cache.ExportResolved(db));
    restarted->cache.Restore(
        bvq_bench::Must(DecodeCacheSnapshot(snapshot), "decode"));
    restored_entries = restarted->cache.ResolveAgainst(reparsed);
    snapshot_bytes = snapshot.size();
  };

  const bvq_bench::Spread off =
      bvq_bench::Time(reps, [&] { run("off", db, nullptr); });
  const bvq_bench::Spread cold = bvq_bench::Time(
      reps, [&] { live = std::make_unique<SessionCache>(); },
      [&] { run("cold", db, live.get()); });
  const bvq_bench::Spread warm =
      bvq_bench::Time(reps, [&] { run("warm", db, live.get()); });
  const bvq_bench::Spread codec =
      bvq_bench::Time(reps, [&] { restarted.reset(); }, restart);
  const bvq_bench::Spread prewarmed = bvq_bench::Time(
      reps, restart, [&] { run("prewarmed", reparsed, restarted.get()); });
  rec.Gate(restored_entries > 0, "the restore resolved no entries");

  const std::vector<AssignmentSet>& reference = runs["off"].front().answers;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    bool identical = true;
    for (const auto& [pass, passes] : runs) {
      for (const Pass& p : passes) {
        identical = identical && p.answers[q] == reference[q];
      }
    }
    rec.Gate(identical, workloads[q].name + ": a cached pass differs from off");
    rec.Row("workloads", bvq_bench::Json()
                             .Set("name", workloads[q].name)
                             .Set("identical", identical));
  }
  // Every query hits: a prewarmed batch whose restore resolved nothing
  // still hits on entries its own first query inserted.
  for (const char* pass : {"warm", "prewarmed"}) {
    for (const Pass& p : runs[pass]) {
      rec.Gate(p.queries_missed == 0,
               std::string(pass) + " pass: a query never hit the cache");
    }
  }
  rec.results.Set("off_ms", off)
      .Set("cold_ms", cold)
      .Set("warm_ms", warm)
      .Set("prewarmed_ms", prewarmed)
      .Set("codec_ms", codec)
      .Set("warm_speedup", cold.median / warm.median)
      .Set("prewarmed_speedup", cold.median / prewarmed.median)
      .Set("warm_cache_hits", runs["warm"].back().cache_hits)
      .Set("prewarmed_cache_hits", runs["prewarmed"].back().cache_hits)
      .Set("cache_resident_bytes", runs["warm"].back().cache_bytes)
      .Set("restored_entries", restored_entries)
      .Set("snapshot_bytes", snapshot_bytes);
  return rec.Finish();
}
