// Cross-query cache warm-up bench: the session-level AnswerCache
// (DESIGN.md §11) cold vs. warm on a batch of fixpoint queries that a
// client replays against an unchanged database — the repeated-dashboard
// shape the cache exists for. The cold pass runs every query against a
// fresh cache (populating it); the warm pass replays the identical batch,
// where each query's root subtree is a single version-keyed probe instead
// of a fixpoint computation.
//
// Custom main (not google/benchmark) so it can emit the BENCH_cache.json
// record the perf trajectory is tracked with:
//
//   bench_cache_warm [--n=40] [--reps=3] [--threads=1]
//                    [--out=BENCH_cache.json]
//
// Each pass reports the median, min and max over its reps (the speedup is
// median over median), and the record names the host's cores. Before any
// number is written, every cold and warm answer is asserted byte-identical
// to a cache-off reference run (cross_query_cache = false, i.e. the seed
// evaluation path); a mismatch aborts with exit code 1. The warm pass must
// also actually hit: a warm replay with zero cache hits is reported as a
// failure, not a slow run.

#include <cassert>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/resource.h"
#include "common/strings.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/answer_cache.h"
#include "eval/bounded_eval.h"
#include "logic/parser.h"

namespace {

using namespace bvq;

// Same loop-invariant guard as bench_memo_ablation: each conjunct is
// expensive enough that recomputing a query from scratch costs dozens of
// kernel sweeps, which is exactly what a warm cache hit avoids.
const char kInvariantGuard[] =
    "(forall x2 . exists x3 . (E(x2,x3) | x2 = x3)) & "
    "(forall x3 . exists x2 . (E(x2,x3) | x2 = x3)) & "
    "(exists x2 . exists x3 . E(x2,x3)) & "
    "(forall x2 . forall x3 . (E(x2,x3) -> !(x2 = x3)))";

struct Workload {
  std::string name;
  std::string formula;
};

std::vector<Workload> Workloads() {
  const std::string inv = kInvariantGuard;
  return {
      {"lfp_invariant_guard",
       "[lfp T(x1) . P(x1) | ((exists x2 . (E(x1,x2) & T(x2))) & (" + inv +
           "))](x1)"},
      {"nested_lfp_gfp",
       "[gfp G(x1) . (exists x2 . (E(x1,x2) & G(x2))) & "
       "[lfp T(x2) . P(x2) | exists x3 . (E(x2,x3) & T(x3))](x1) & (" +
           inv + ")](x1)"},
      {"ifp_invariant_guard",
       "[ifp I(x1) . P(x1) | ((exists x2 . (E(x1,x2) & I(x2))) & (" + inv +
           "))](x1)"},
      {"pfp_invariant_guard",
       "[pfp F(x1) . P(x1) | ((exists x2 . (E(x1,x2) & F(x2))) & (" + inv +
           "))](x1)"},
  };
}

Database LongPathDb(std::size_t n) {
  Database db(n);
  Status s = db.AddRelation("E", PathGraph(n));
  assert(s.ok());
  RelationBuilder p(1);
  Value last = static_cast<Value>(n - 1);
  p.Add(&last);
  s = db.AddRelation("P", p.Build());
  assert(s.ok());
  (void)s;
  return db;
}

struct PassResult {
  double ms = 0;  // whole-batch wall time
  std::vector<AssignmentSet> answers;
  EvalStats stats;  // summed over the batch
};

// Runs the whole query batch once, sharing `cache` across queries exactly
// the way a serve::Session does (null cache = the cache-off seed path).
PassResult RunBatch(const Database& db, const std::vector<FormulaPtr>& batch,
                    AnswerCache* cache, std::size_t threads) {
  BoundedEvalOptions opts;
  opts.num_threads = threads;
  opts.answer_cache = cache;
  opts.cross_query_cache = cache != nullptr;
  PassResult out;
  const auto start = std::chrono::steady_clock::now();
  for (const FormulaPtr& f : batch) {
    BoundedEvaluator eval(db, 3, opts);
    auto result = eval.Evaluate(f);
    if (!result.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    out.answers.push_back(*result);
    out.stats.memo_hits += eval.stats().memo_hits;
    out.stats.memo_misses += eval.stats().memo_misses;
    out.stats.cache_hits += eval.stats().cache_hits;
    out.stats.cache_misses += eval.stats().cache_misses;
    out.stats.cache_evictions += eval.stats().cache_evictions;
    out.stats.cache_bytes = eval.stats().cache_bytes;
  }
  const auto stop = std::chrono::steady_clock::now();
  out.ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 40;
  std::size_t reps = 3;
  std::size_t threads = 1;
  std::string out_path = "BENCH_cache.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* name) {
      return arg.substr(std::string(name).size());
    };
    bool ok = true;
    if (arg.rfind("--n=", 0) == 0) {
      ok = ParseSizeT(value_of("--n="), &n);
    } else if (arg.rfind("--reps=", 0) == 0) {
      ok = ParseSizeT(value_of("--reps="), &reps);
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = ParseSizeT(value_of("--threads="), &threads);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value_of("--out=");
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: bench_cache_warm [--n=N] [--reps=R] "
                   "[--threads=T] [--out=PATH]\n");
      return 1;
    }
  }
  if (reps == 0) reps = 1;

  Database db = LongPathDb(n);
  std::vector<FormulaPtr> batch;
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) {
    auto f = ParseFormula(w.formula);
    if (!f.ok()) {
      std::fprintf(stderr, "parse failed (%s): %s\n", w.name.c_str(),
                   f.status().ToString().c_str());
      return 1;
    }
    batch.push_back(*f);
    names.push_back(w.name);
  }

  // The seed path the cache must reproduce byte for byte, timed once per
  // rep like the cached passes.
  const PassResult reference = RunBatch(db, batch, nullptr, threads);
  std::vector<double> off_times = {reference.ms};
  for (std::size_t r = 1; r < reps; ++r) {
    off_times.push_back(RunBatch(db, batch, nullptr, threads).ms);
  }

  // Residency is charged to a session-style governor account, so the bench
  // exercises the same TryCharge path a serve::Session does.
  std::vector<double> cold_times, warm_times;
  PassResult warm_last;
  std::uint64_t warm_hits = 0;
  bool all_identical = true;
  for (std::size_t r = 0; r < reps; ++r) {
    ResourceGovernor governor;
    AnswerCacheOptions cache_options;
    cache_options.governor = &governor;
    AnswerCache cache(cache_options);
    const PassResult cold = RunBatch(db, batch, &cache, threads);
    const PassResult warm = RunBatch(db, batch, &cache, threads);
    cold_times.push_back(cold.ms);
    warm_times.push_back(warm.ms);
    warm_hits = warm.stats.cache_hits;
    for (std::size_t q = 0; q < batch.size(); ++q) {
      all_identical =
          all_identical && cold.answers[q] == reference.answers[q] &&
          warm.answers[q] == reference.answers[q];
    }
    warm_last = warm;
  }
  const bvq_bench::Spread cold = bvq_bench::SpreadOf(cold_times);
  const bvq_bench::Spread warm = bvq_bench::SpreadOf(warm_times);
  const bvq_bench::Spread off = bvq_bench::SpreadOf(off_times);
  const double speedup = warm.median > 0 ? cold.median / warm.median : 0;
  const bool warm_hit = warm_hits > 0;

  std::printf(
      "batch of %zu queries on n=%zu (median [min, max]): cold %8.3f ms "
      "[%.3f, %.3f]   warm %8.3f ms [%.3f, %.3f]   off %8.3f ms "
      "[%.3f, %.3f]   warm-over-cold %5.2fx   warm cache hits %llu   %s\n",
      batch.size(), n, cold.median, cold.min, cold.max, warm.median,
      warm.min, warm.max, off.median, off.min, off.max, speedup,
      static_cast<unsigned long long>(warm_hits),
      all_identical ? "identical" : "MISMATCH");
  for (std::size_t q = 0; q < batch.size(); ++q) {
    std::printf("  %-22s %s\n", names[q].c_str(),
                warm_last.answers[q] == reference.answers[q] ? "identical"
                                                             : "MISMATCH");
  }

  std::string json = "{\n  \"bench\": \"cache_warm\",\n";
  json += "  \"config\": {\n";
  json += "    \"domain_size\": " + std::to_string(n) + ",\n";
  json += "    \"k\": 3,\n";
  json += "    \"threads\": " + std::to_string(threads) + ",\n";
  json += "    \"reps\": " + std::to_string(reps) + ",\n";
  json += "    \"queries\": " + std::to_string(batch.size()) + ",\n";
  json += "    \"memo\": true,\n    \"cross_query_cache\": true,\n";
  json += "    \"host_cores\": " + std::to_string(bvq_bench::HostCores()) +
          "\n  },\n";
  json += "  \"cold_ms\": " + bvq_bench::SpreadJson(cold) + ",\n";
  json += "  \"warm_ms\": " + bvq_bench::SpreadJson(warm) + ",\n";
  json += "  \"off_ms\": " + bvq_bench::SpreadJson(off) + ",\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"speedup\": %.3f,\n  \"warm_cache_hits\": %llu,\n"
      "  \"cache_resident_bytes\": %zu,\n  \"identical\": %s,\n",
      speedup, static_cast<unsigned long long>(warm_hits),
      warm_last.stats.cache_bytes, all_identical ? "true" : "false");
  json += buf;
  json += "  \"workloads\": [\n";
  for (std::size_t q = 0; q < batch.size(); ++q) {
    json += "    {\"name\": \"" + names[q] + "\", \"identical\": " +
            (warm_last.answers[q] == reference.answers[q] ? "true" : "false") +
            std::string(q + 1 < batch.size() ? "}," : "}") + "\n";
  }
  json += "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  if (!warm_hit) {
    std::fprintf(stderr, "warm pass never hit the cache\n");
    return 1;
  }
  return all_identical ? 0 : 1;
}
