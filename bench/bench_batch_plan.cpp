// Batch query planner bench (DESIGN.md §14): a session submitting N
// overlapping queries as one batch (shared-subformula DAG, shared nodes
// materialized once) vs. the same N queries submitted serially, one
// EvalSync at a time against the same warm-capable session. The queries
// share an expensive fixpoint-with-invariant-guard subtree and differ in a
// cheap disjunct, which is the dashboard shape batching exists for.
//
//   bench_batch_plan [--n=28] [--reps=3] [--out=BENCH_batch.json]
//
// Writes BENCH_batch.json, one row per batch size N in {1, 4, 16}. Gates:
// every serial and batched answer is byte-identical to a cache-off serial
// run (the seed evaluation path), and every plan of N > 1 of these
// overlapping queries dedups (ratio > 1).

#include <map>
#include <memory>
#include <mutex>

#include "bench_common.h"
#include "plan/batch_planner.h"

namespace {

using namespace bvq;

std::vector<std::string> MakeQueries(std::size_t count) {
  // Every query contains this exact lfp-with-guard formula, so the planner
  // finds one DAG node for it and the executor computes it once per batch.
  const std::string shared =
      bvq_bench::InvariantGuardWorkloads().front().formula;
  // A pool of cheap per-query twists; with more queries than twists the
  // batch also contains exact repeats — both kinds of overlap occur.
  const std::vector<std::string> twists = {
      "E(x1,x1)",
      "exists x2 . E(x1,x2)",
      "exists x2 . E(x2,x1)",
      "x1 = x1",
  };
  std::vector<std::string> queries;
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(
        StrCat("(x1) ", shared, " | (", twists[i % twists.size()], ")"));
  }
  return queries;
}

// A fresh server with one session "s" over `db`.
std::unique_ptr<serve::Server> OpenServer(const Database& db, bool cache) {
  serve::SessionOptions so;
  so.num_vars = 3;
  so.eval.num_threads = 1;  // measure sharing, not evaluator parallelism
  so.cross_query_cache = cache;
  auto server = std::make_unique<serve::Server>();
  bvq_bench::Must(server->Open("s", so, db), "open");
  return server;
}

// The queries one blocking EvalSync at a time: the exact traffic a client
// produces without the batch protocol.
std::vector<std::string> RunSerial(serve::Server& server,
                                   const std::vector<std::string>& queries) {
  std::vector<std::string> payloads;
  for (const std::string& query : queries) {
    const serve::EvalOutcome out = server.EvalSync("s", query);
    bvq_bench::Must(out.status, "serial eval");
    payloads.push_back(out.payload);
  }
  return payloads;
}

// The same queries collected into one batch and planned as a
// shared-subformula DAG before execution.
std::vector<std::string> RunBatched(serve::Server& server,
                                    const std::vector<std::string>& queries,
                                    plan::BatchStats* stats) {
  std::mutex mutex;
  std::map<std::uint64_t, std::string> payloads;
  Status error;
  bvq_bench::Must(server.BatchBegin("s"), "batch begin");
  for (std::size_t i = 0; i < queries.size(); ++i) {
    bvq_bench::Must(server.BatchAddWithId(i + 1, "s", queries[i]), "batch add");
  }
  *stats = bvq_bench::Must(
      server.BatchEnd("s",
                      [&](const serve::EvalOutcome& out) {
                        std::lock_guard<std::mutex> lock(mutex);
                        payloads[out.id] = out.payload;
                        if (!out.status.ok()) error = out.status;
                      }),
      "batch end");
  server.Drain();  // every callback has returned
  bvq_bench::Must(error, "batched eval");
  std::vector<std::string> ordered;
  for (const auto& [id, payload] : payloads) ordered.push_back(payload);
  return ordered;
}

}  // namespace

int main(int argc, char** argv) {
  bvq_bench::Record rec("batch_plan", 28, "BENCH_batch.json");
  rec.Parse(argc, argv);
  rec.config.Set("k", 3).Set("eval_threads", 1);

  const Database db = bvq_bench::LongPathDb(rec.n());
  for (const std::size_t count : {1, 4, 16}) {
    const std::vector<std::string> queries = MakeQueries(count);
    std::unique_ptr<serve::Server> server;
    std::vector<std::vector<std::string>> answers;  // every rep, off first
    const auto serial = [&] { answers.push_back(RunSerial(*server, queries)); };
    const bvq_bench::Spread off = bvq_bench::Time(
        rec.reps(), [&] { server = OpenServer(db, false); }, serial);
    const bvq_bench::Spread warm = bvq_bench::Time(
        rec.reps(), [&] { server = OpenServer(db, true); }, serial);
    plan::BatchStats stats;
    const bvq_bench::Spread batched = bvq_bench::Time(
        rec.reps(), [&] { server = OpenServer(db, true); },
        [&] { answers.push_back(RunBatched(*server, queries, &stats)); });

    bool identical = true;
    for (const auto& a : answers) identical = identical && a == answers[0];
    rec.Gate(identical, StrCat("N=", count, ": answers differ from cache-off"));
    rec.Gate(count == 1 || stats.dedup_ratio > 1.0,
             StrCat("N=", count, ": the plan shared nothing"));
    rec.Row("batches", bvq_bench::Json()
                           .Set("queries", count)
                           .Set("serial_off_ms", off)
                           .Set("serial_ms", warm)
                           .Set("batched_ms", batched)
                           .Set("speedup", warm.median / batched.median)
                           .Set("nodes", stats.nodes)
                           .Set("shared_nodes", stats.shared_nodes)
                           .Set("materialized", stats.materialized)
                           .Set("stages", stats.stages)
                           .Set("dedup_ratio", stats.dedup_ratio)
                           .Set("identical", identical));
  }
  return rec.Finish();
}
