// The serving layer: FIFO admission control (budget, cap, queue, cancel),
// session lifecycle and governor pooling, and the Server end-to-end — the
// load-bearing properties being that a served answer is byte-identical to a
// direct evaluator run, that an over-budget admission is rejected while
// running queries finish unaffected, and that a remote cancel lands
// mid-fixpoint as a sticky Cancelled with partial resource stats.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/resource.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "db/assignment_set.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "logic/parser.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/shard.h"

#include <unistd.h>

namespace bvq::serve {
namespace {

using std::chrono::milliseconds;

constexpr char kTcQuery[] =
    "(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & "
    "exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)";

// PFP binary counter over a strict order: the orbit has length 2^n, so with
// n = 18 the fixpoint runs for ~260k stages — plenty of time to cancel it.
constexpr char kCounterQuery[] =
    "(x1) [pfp X(x1) . !(X(x1) <-> forall x2 . (Lt(x2,x1) -> X(x2)))](x1)";

Database CycleDb(std::size_t n) {
  Database db(n);
  EXPECT_TRUE(db.AddRelation("E", CycleGraph(n)).ok());
  return db;
}

Database CounterDb(std::size_t n) {
  Database db(n);
  RelationBuilder lt(2);
  for (Value i = 0; i < static_cast<Value>(n); ++i) {
    for (Value j = i + 1; j < static_cast<Value>(n); ++j) lt.Add(Tuple{i, j});
  }
  EXPECT_TRUE(db.AddRelation("Lt", lt.Build()).ok());
  return db;
}

// Spins until `pred` holds or ~5 s pass; returns whether it held.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return pred();
}

// --- AdmissionController ---------------------------------------------------------

TEST(AdmissionTest, UnlimitedControllerOnlyCounts) {
  AdmissionController ctl;
  auto t1 = ctl.Admit(1 << 20);
  auto t2 = ctl.Admit(1 << 20);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  const AdmissionStats s = ctl.stats();
  EXPECT_EQ(s.active_queries, 2u);
  EXPECT_EQ(s.reserved_bytes, std::size_t{2} << 20);
  EXPECT_EQ(s.admitted_total, 2u);
  EXPECT_EQ(s.rejected_total, 0u);
  t1->Release();
  t2->Release();
  EXPECT_EQ(ctl.stats().reserved_bytes, 0u);
  EXPECT_EQ(ctl.stats().active_queries, 0u);
}

TEST(AdmissionTest, SpentAggregateBudgetRejectsWhenQueueingIsOff) {
  AdmissionOptions opts;
  opts.aggregate_mem_budget_bytes = 100;
  AdmissionController ctl(opts);

  auto held = ctl.Admit(60);
  ASSERT_TRUE(held.ok());
  auto rejected = ctl.Admit(60);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // The running admission is unaffected by the rejection.
  EXPECT_TRUE(held->valid());
  EXPECT_EQ(ctl.stats().active_queries, 1u);
  EXPECT_EQ(ctl.stats().reserved_bytes, 60u);
  EXPECT_EQ(ctl.stats().rejected_total, 1u);

  held->Release();
  auto now_fits = ctl.Admit(60);
  EXPECT_TRUE(now_fits.ok());
}

TEST(AdmissionTest, OversizeRequestRejectedImmediatelyDespiteQueue) {
  AdmissionOptions opts;
  opts.aggregate_mem_budget_bytes = 100;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);
  const auto start = std::chrono::steady_clock::now();
  auto rejected = ctl.Admit(200);  // can never fit: larger than the whole pot
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(elapsed, milliseconds(1000));  // no pointless queue wait
  EXPECT_EQ(ctl.stats().queued_total, 0u);
}

TEST(AdmissionTest, QueuedRequestAdmittedWhenBudgetIsReleased) {
  AdmissionOptions opts;
  opts.aggregate_mem_budget_bytes = 100;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);

  auto held = ctl.Admit(80);
  ASSERT_TRUE(held.ok());
  auto waiting = std::async(std::launch::async, [&] { return ctl.Admit(80); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));

  held->Release();
  auto admitted = waiting.get();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_GT(admitted->queue_wait_ms(), 0.0);
  EXPECT_EQ(ctl.stats().queued_total, 1u);
  EXPECT_EQ(ctl.stats().reserved_bytes, 80u);
}

TEST(AdmissionTest, ConcurrencyCapQueuesThenAdmits) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);

  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());
  auto waiting = std::async(std::launch::async, [&] { return ctl.Admit(0); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));
  held->Release();
  EXPECT_TRUE(waiting.get().ok());
}

TEST(AdmissionTest, QueueTimeoutRejects) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 50;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());
  auto timed_out = ctl.Admit(0);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, QueueLengthCapRejectsExtraWaiters) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 10'000;
  opts.max_queue_length = 1;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());
  auto waiting = std::async(std::launch::async, [&] { return ctl.Admit(0); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));
  auto overflow = ctl.Admit(0);  // queue is full
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  held->Release();
  EXPECT_TRUE(waiting.get().ok());
}

TEST(AdmissionTest, CancelFlagAbandonsQueuedWait) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());

  std::atomic<bool> cancel{false};
  auto waiting = std::async(std::launch::async,
                            [&] { return ctl.Admit(0, &cancel); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));
  cancel.store(true);
  auto cancelled = waiting.get();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctl.stats().cancelled_total, 1u);
  // The holder is untouched and the queue is empty again.
  EXPECT_TRUE(held->valid());
  EXPECT_EQ(ctl.stats().queue_length, 0u);
}

// --- Session / SessionManager ----------------------------------------------------

TEST(SessionManagerTest, OpenGetCloseLifecycle) {
  SessionManager mgr;
  auto opened = mgr.Open("a", Database(4), SessionOptions{});
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(mgr.size(), 1u);

  auto dup = mgr.Open("a", Database(4), SessionOptions{});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(mgr.Get("a").ok());
  EXPECT_EQ(mgr.Get("b").status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(mgr.Close("a").ok());
  EXPECT_EQ(mgr.Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.Close("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.size(), 0u);
}

TEST(SessionTest, GovernorPoolReusesTokensAndLinksParent) {
  Session session("s", Database(4), SessionOptions{});
  auto g1 = session.AcquireGovernor();
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g1->parent(), &session.governor());
  session.ReleaseGovernor(std::move(g1));

  auto g2 = session.AcquireGovernor();
  const Session::PoolStats stats = session.pool_stats();
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.free, 0u);
  // Reuse re-arms the token: a trip from a previous query must not leak in.
  g2->Cancel("old query");
  session.ReleaseGovernor(std::move(g2));
  auto g3 = session.AcquireGovernor();
  EXPECT_TRUE(g3->Check().ok());
}

TEST(SessionTest, AdmissionReserveDerivation) {
  SessionOptions so;
  EXPECT_EQ(Session("a", Database(0), so).admission_reserve_bytes(),
            kDefaultAdmissionReserveBytes);

  so.session_limits.mem_budget_bytes = std::size_t{1} << 20;
  EXPECT_EQ(Session("b", Database(0), so).admission_reserve_bytes(),
            std::size_t{1} << 20);

  so.query_limits.mem_budget_bytes = std::size_t{2} << 20;
  EXPECT_EQ(Session("c", Database(0), so).admission_reserve_bytes(),
            std::size_t{2} << 20);

  so.admission_reserve_bytes = 12345;
  EXPECT_EQ(Session("d", Database(0), so).admission_reserve_bytes(), 12345u);
}

// --- Server end-to-end -----------------------------------------------------------

TEST(ServeTest, ServedResultIsByteIdenticalToDirectEvaluatorRun) {
  Database db = CycleDb(12);
  auto query = ParseQuery(kTcQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  BoundedEvaluator direct(db, 3);
  auto expected = direct.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::string want = FormatRelation(*expected, 20);

  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(12)).ok());
  const EvalOutcome out = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.payload, want);
  EXPECT_GT(out.eval_ms, 0.0);
}

// The served payload is read off the projected answer; it must be the
// bytes of the direct printout of the whole relation, for every answer list
// (repeats, permutations, dropped variables, no variables), empty answers
// and every kind of limit.
TEST(ServeTest, FormatAnswerMatchesFormatRelation) {
  Rng rng(37);
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::size_t n : {1, 3, 6}) {
      for (double density : {0.0, 0.05, 0.6}) {
        AssignmentSet cube(n, k);
        for (std::size_t r = 0; r < cube.indexer().NumTuples(); ++r) {
          if (rng.Bernoulli(density)) cube.Set(r);
        }
        for (std::size_t len = 0; len <= k + 1; ++len) {
          for (int trial = 0; trial < 6; ++trial) {
            std::vector<std::size_t> vars(len);
            for (std::size_t& v : vars) v = rng.Below(k);
            const ProjectedAnswer answer = cube.Project(vars);
            const Relation rel = cube.ToRelation(vars);
            for (std::size_t limit : {std::size_t{0}, std::size_t{1},
                                      std::size_t{20}, rel.size() + 1}) {
              EXPECT_EQ(FormatAnswer(answer, limit),
                        FormatRelation(rel, limit))
                  << "k=" << k << " n=" << n << " len=" << len
                  << " limit=" << limit;
            }
          }
        }
      }
    }
  }
}

TEST(ServeTest, EmptyDomainSessionEvaluatesToEmptyAnswer) {
  // An empty domain is legal: every query answer over it is the empty
  // relation (there is nothing to bind), never an error.
  Server server;
  ASSERT_TRUE(server.Open("empty", SessionOptions{}, Database(0)).ok());
  const EvalOutcome out = server.EvalSync("empty", "(x1) x1 = x1");
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_NE(out.payload.find("0 tuple(s)"), std::string::npos);
}

TEST(ServeTest, UnknownSessionFailsWithNotFound) {
  Server server;
  const EvalOutcome out = server.EvalSync("ghost", "(x1) x1 = x1");
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kNotFound);
}

TEST(ServeTest, OverBudgetAdmissionRejectedWhileRunningQueryCompletes) {
  ServeOptions so;
  so.admission.aggregate_mem_budget_bytes = std::size_t{64} << 20;
  Server server(so);

  SessionOptions big;
  big.admission_reserve_bytes = std::size_t{48} << 20;
  ASSERT_TRUE(server.Open("big", big, CycleDb(8)).ok());
  SessionOptions small;
  small.admission_reserve_bytes = std::size_t{48} << 20;
  ASSERT_TRUE(server.Open("small", small, CycleDb(4)).ok());

  // Pin the big session's query between admission (reserve held) and
  // evaluation by holding its db lock exclusively: the rejection below is
  // then guaranteed to land while the query is admitted and running.
  auto session = server.sessions().Get("big");
  ASSERT_TRUE(session.ok());
  std::promise<EvalOutcome> done;
  auto done_future = done.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("big", kTcQuery, [&](const EvalOutcome& o) {
      done.set_value(o);
    });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(WaitFor(
        [&] { return server.admission().stats().active_queries >= 1; }));

    const EvalOutcome rejected = server.EvalSync("small", kTcQuery);
    ASSERT_FALSE(rejected.status.ok());
    EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  }

  // With the lock released the admitted query runs to a clean completion,
  // unaffected by the rejection next door.
  const EvalOutcome out = done_future.get();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_FALSE(out.payload.empty());
  server.Drain();
  EXPECT_EQ(server.admission().stats().reserved_bytes, 0u);
  EXPECT_EQ(server.admission().stats().rejected_total, 1u);
}

TEST(ServeTest, RemoteCancelMidFixpointReturnsCancelledWithPartialStats) {
  Server server;
  SessionOptions so;
  so.num_vars = 2;
  ASSERT_TRUE(server.Open("long", so, CounterDb(18)).ok());

  std::promise<EvalOutcome> done;
  auto done_future = done.get_future();
  auto id = server.EvalAsync("long", kCounterQuery, [&](const EvalOutcome& o) {
    done.set_value(o);
  });
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Let the fixpoint actually start churning before pulling the plug.
  ASSERT_TRUE(WaitFor(
      [&] { return server.admission().stats().active_queries >= 1; }));
  std::this_thread::sleep_for(milliseconds(100));
  ASSERT_TRUE(server.Cancel(*id, "test disconnect").ok());

  const EvalOutcome out = done_future.get();
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
  // Partial stats: the evaluation did run and was stopped mid-flight, and
  // the composite token unwound cleanly.
  EXPECT_TRUE(out.resource.stopped);
  EXPECT_GT(out.resource.checks, 0u);
  EXPECT_EQ(out.resource.mem_current_bytes, 0u);

  // Once complete the id is gone: a second cancel is NotFound.
  server.Drain();
  EXPECT_EQ(server.Cancel(*id).code(), StatusCode::kNotFound);
  // The session-level account drained too.
  auto session = server.sessions().Get("long");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->governor().stats().mem_current_bytes, 0u);
  EXPECT_EQ((*session)->queries_failed.load(), 1u);
}

TEST(ServeTest, SessionDeadlineSurvivesZeroQueryOverlay) {
  // Serving-layer regression for composite tokens: per-query limits of all
  // zeros must not erase the session deadline (see ResourceGovernor).
  Server server;
  SessionOptions so;
  so.num_vars = 2;
  so.session_limits.deadline_ms = 1;
  so.query_limits = ResourceGovernor::Limits{};  // explicit 0-overlay
  ASSERT_TRUE(server.Open("dl", so, CounterDb(18)).ok());
  std::this_thread::sleep_for(milliseconds(10));

  const EvalOutcome out = server.EvalSync("dl", kCounterQuery);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ServeTest, CloseCancelsInFlightQueriesOnDetachedSession) {
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(8)).ok());
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());

  std::promise<EvalOutcome> done;
  auto done_future = done.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("s", kTcQuery, [&](const EvalOutcome& o) {
      done.set_value(o);
    });
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(WaitFor(
        [&] { return server.admission().stats().active_queries >= 1; }));
    // Close while the query is pinned: the name goes away immediately, the
    // query finishes as Cancelled on the detached session object.
    ASSERT_TRUE(server.Close("s").ok());
    EXPECT_EQ(server.sessions().Get("s").status().code(),
              StatusCode::kNotFound);
  }
  const EvalOutcome out = done_future.get();
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
  server.Drain();
  EXPECT_EQ(server.admission().stats().reserved_bytes, 0u);
}

TEST(ServeTest, GovernorPoolRecyclesAcrossSequentialQueries) {
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());
  for (int i = 0; i < 3; ++i) {
    const EvalOutcome out = server.EvalSync("s", "(x1,x2) E(x1,x2)");
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  }
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  const Session::PoolStats stats = (*session)->pool_stats();
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.reused, 2u);
  EXPECT_EQ((*session)->queries_ok.load(), 3u);
}

TEST(ServeTest, PerQueryBudgetTripLeavesSessionAccountClean) {
  // Regression: a per-query budget trip used to skip the forward of the
  // tripping charge into the session governor while the unwind still
  // released it there, underflowing the session's live-byte account to
  // ~2^64 and permanently failing every later query of that session.
  Server server;
  SessionOptions so;
  so.session_limits.mem_budget_bytes = std::size_t{256} << 20;
  so.query_limits.mem_budget_bytes = 16;  // far below one n^3 cube
  ASSERT_TRUE(server.Open("tight", so, CycleDb(12)).ok());

  const EvalOutcome out = server.EvalSync("tight", kTcQuery);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);

  auto session = server.sessions().Get("tight");
  ASSERT_TRUE(session.ok());
  // Exactly zero — not wrapped — and the session token itself never tripped.
  EXPECT_EQ((*session)->governor().stats().mem_current_bytes, 0u);
  EXPECT_FALSE((*session)->governor().stopped());
  EXPECT_TRUE((*session)->governor().Check().ok());
}

TEST(ServeTest, StaleCancelHandleCannotCancelReusedPooledToken) {
  // Regression: completion used to pool the per-query governor while the
  // CancelState's weak_ptr still pointed at it, so a CancelHandle held past
  // completion could trip the token after it had been Reset and re-acquired
  // by a later query, cancelling that unrelated query spuriously.
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());

  CancelHandle stale;
  std::promise<EvalOutcome> done1;
  auto first = done1.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("s", "(x1,x2) E(x1,x2)",
                               [&](const EvalOutcome& o) {
                                 done1.set_value(o);
                               });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    // Wait for the query to acquire + bind its governor, then grab the
    // cancellation capability and hold it past completion.
    ASSERT_TRUE(WaitFor(
        [&] { return (*session)->pool_stats().created >= 1; }));
    auto handle = server.Handle(*id);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    stale = *handle;
  }
  ASSERT_TRUE(first.get().status.ok());
  server.Drain();  // the token is back in the pool now

  // Run a second query on the same session: it reuses the pooled token.
  // Fire the stale handle while that query is pinned mid-flight — it must
  // be a valid-but-harmless no-op, not a cancellation of query 2.
  std::promise<EvalOutcome> done2;
  auto second = done2.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("s", "(x1,x2) E(x1,x2)",
                               [&](const EvalOutcome& o) {
                                 done2.set_value(o);
                               });
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(WaitFor(
        [&] { return (*session)->pool_stats().reused >= 1; }));
    EXPECT_TRUE(stale.Cancel("far too late"));
  }
  const EvalOutcome out = second.get();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ((*session)->queries_ok.load(), 2u);
}

// --- protocol surface ------------------------------------------------------------

TEST(ServeProtocolTest, FullSessionConversation) {
  Server server;
  std::mutex mu;
  std::vector<std::string> chunks;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };

  server.HandleLine("# a comment line", emit);
  server.HandleLine("", emit);
  server.HandleLine("open s1 k=3 threads=2", emit);
  server.HandleLine("domain s1 4", emit);
  server.HandleLine("rel s1 E/2 0 1 ; 1 2 ; 2 3 ; 3 0 ;", emit);
  server.HandleLine("eval 7 s1 (x1,x2) E(x1,x2)", emit);
  server.Drain();
  server.HandleLine("stats s1", emit);
  server.HandleLine("close s1", emit);
  server.HandleLine("bogus command", emit);
  server.HandleLine("quit", emit);
  EXPECT_TRUE(server.closed());

  std::string all;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& chunk : chunks) all += chunk;
  }
  EXPECT_NE(all.find("ok open s1\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok domain s1 4\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok rel s1\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok eval 7\n"), std::string::npos) << all;
  EXPECT_NE(all.find("result 7 ok\n"), std::string::npos) << all;
  EXPECT_NE(all.find("4 tuple(s), arity 2"), std::string::npos) << all;
  EXPECT_NE(all.find("end 7\n"), std::string::npos) << all;
  EXPECT_NE(all.find("stats session=s1 queries=1 ok=1 failed=0"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("ok close s1\n"), std::string::npos) << all;
  EXPECT_NE(all.find("err unknown command \"bogus\"; try help"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("ok quit\n"), std::string::npos) << all;

  // After the close, the aggregate stats report no sessions and no bytes.
  std::vector<std::string> after;
  server.HandleLine("stats", [&](const std::string& chunk) {
    after.push_back(chunk);
  });
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].find("stats sessions=0"), std::string::npos) << after[0];
  EXPECT_NE(after[0].find("reserved_bytes=0"), std::string::npos) << after[0];
}

// --- cross-query answer cache through the server ---------------------------

TEST(ServeCacheTest, WarmHitIsByteIdenticalAndCounted) {
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());

  const EvalOutcome cold = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.eval_stats.cache_hits, 0u);
  EXPECT_GT(cold.eval_stats.cache_misses, 0u);

  const EvalOutcome warm = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_GT(warm.eval_stats.cache_hits, 0u);
  EXPECT_EQ(warm.payload, cold.payload);

  // Cache off reproduces the same bytes (the seed evaluation path).
  SessionOptions no_cache;
  no_cache.cross_query_cache = false;
  ASSERT_TRUE(server.Open("ref", no_cache, CycleDb(6)).ok());
  const EvalOutcome ref = server.EvalSync("ref", kTcQuery);
  ASSERT_TRUE(ref.status.ok());
  EXPECT_EQ(ref.eval_stats.cache_hits, 0u);
  EXPECT_EQ(ref.eval_stats.cache_misses, 0u);
  EXPECT_EQ(ref.payload, cold.payload);
}

TEST(ServeCacheTest, LoadInvalidatesByVersionWithoutFlushing) {
  Server server;
  std::vector<std::string> chunks;
  std::mutex mu;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());
  const EvalOutcome before = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(before.status.ok());
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  const auto resident = (*session)->cache()->stats().entries;
  EXPECT_GT(resident, 0u);

  // Reload the database mid-session: a path instead of a cycle. The load
  // frees every entry keyed on a dead E version, but it is no flush: the
  // relation-free subtrees' entries survive.
  Database path(6);
  ASSERT_TRUE(path.AddRelation("E", PathGraph(6)).ok());
  const std::string file = ::testing::TempDir() + "/bvq_cache_load.db";
  {
    std::ofstream out(file);
    ASSERT_TRUE(out.good());
    out << path.ToString();
  }
  server.HandleLine("load s " + file, emit);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], "ok load s\n") << chunks[0];
  }
  const auto kept = (*session)->cache()->stats().entries;
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, resident);

  // Stale E-dependent keys never match the reloaded relation's version, so
  // the fixpoint recomputes (misses); only relation-free subtrees (the
  // x1 = x3 equality) may still hit — their answers depend on the domain
  // alone, which the load preserved.
  const EvalOutcome after = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(after.status.ok());
  EXPECT_GT(after.eval_stats.cache_misses, 0u);
  EXPECT_NE(after.payload, before.payload);

  // The served answer matches a direct evaluator run on the new database.
  auto query = ParseQuery(kTcQuery);
  ASSERT_TRUE(query.ok());
  BoundedEvaluator direct(path, 3);
  auto expected = direct.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after.payload, FormatRelation(*expected, 20));
}

TEST(ServeCacheTest, WritesFreeTheEntriesTheyInvalidate) {
  // Each `rel` replaces E, so the previous eval's E-dependent entries can
  // never hit again. The write frees them, and residency stays where one
  // eval left it instead of growing with the write count until the LRU
  // cap evicts.
  Server server;
  auto emit = [](const std::string& chunk) {
    EXPECT_EQ(chunk.rfind("ok rel s", 0), 0u) << chunk;
  };
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  std::size_t first_bytes = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    // A 6-cycle plus one chord that moves with i, so answers differ too.
    server.HandleLine(StrCat("rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ; ",
                             i % 6, " ", (i + 2) % 6, " ;"),
                      emit);
    const EvalOutcome out = server.EvalSync("s", kTcQuery);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    const std::size_t bytes = (*session)->cache()->stats().bytes;
    if (i == 0) first_bytes = bytes;
    ASSERT_LE(bytes, first_bytes) << "after write " << i + 1;
  }
  EXPECT_GT(first_bytes, 0u);
}

TEST(ServeCacheTest, ProtocolCacheCommandAndStatsCounters) {
  Server server;
  std::vector<std::string> chunks;
  std::mutex mu;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };
  server.HandleLine("open s k=3 cache=1 cache-mb=8", emit);
  server.HandleLine("domain s 6", emit);
  server.HandleLine("rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;", emit);
  server.HandleLine("eval 1 s " + std::string(kTcQuery), emit);
  server.HandleLine("drain", emit);
  server.HandleLine("eval 2 s " + std::string(kTcQuery), emit);
  server.HandleLine("drain", emit);
  server.HandleLine("stats s", emit);
  server.HandleLine("cache s off", emit);
  server.HandleLine("cache s clear", emit);
  server.HandleLine("cache s on", emit);
  server.HandleLine("cache s sideways", emit);
  server.HandleLine("cache nowhere on", emit);
  server.HandleLine("cache", emit);

  std::string all;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& chunk : chunks) all += chunk;
  }
  EXPECT_NE(all.find("ok open s\n"), std::string::npos) << all;
  EXPECT_NE(all.find("result 1 ok\n"), std::string::npos) << all;
  EXPECT_NE(all.find("result 2 ok\n"), std::string::npos) << all;
  // The per-session stats line reports the evaluator and cache counters:
  // the replayed query was served from the cross-query cache.
  EXPECT_NE(all.find(" memo_hits="), std::string::npos) << all;
  EXPECT_NE(all.find(" memo_misses="), std::string::npos) << all;
  EXPECT_NE(all.find(" cache=1 "), std::string::npos) << all;
  EXPECT_EQ(all.find(" cache_hits=0 "), std::string::npos) << all;
  EXPECT_NE(all.find(" cache_entries="), std::string::npos) << all;
  EXPECT_NE(all.find("ok cache s off\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok cache s clear\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok cache s on\n"), std::string::npos) << all;
  EXPECT_NE(all.find("err cache s: expected on|off|clear"), std::string::npos)
      << all;
  EXPECT_NE(all.find("err cache nowhere:"), std::string::npos) << all;
  EXPECT_NE(all.find("err cache: expected <session> on|off|clear"),
            std::string::npos)
      << all;

  // After `cache s clear` + `cache s on`, the cache is empty but live.
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE((*session)->cache_enabled());
  EXPECT_EQ((*session)->cache()->stats().entries, 0u);
}

TEST(ServeCacheTest, CacheOffSessionNeverTouchesCache) {
  Server server;
  SessionOptions options;
  options.cross_query_cache = false;
  ASSERT_TRUE(server.Open("s", options, CycleDb(6)).ok());
  const EvalOutcome a = server.EvalSync("s", kTcQuery);
  const EvalOutcome b = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.payload, b.payload);
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->cache()->stats().entries, 0u);
  EXPECT_EQ((*session)->cache_hits.load(), 0u);
  EXPECT_EQ((*session)->cache_misses.load(), 0u);

  // Flipping the switch mid-session starts populating the same cache.
  (*session)->set_cache_enabled(true);
  const EvalOutcome c = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(c.status.ok());
  EXPECT_EQ(c.payload, a.payload);
  EXPECT_GT((*session)->cache()->stats().entries, 0u);
}

TEST(ServeProtocolTest, StrictNumericParsingRejectsGarbage) {
  Server server;
  std::vector<std::string> chunks;
  auto emit = [&](const std::string& chunk) { chunks.push_back(chunk); };
  server.HandleLine("open s1 k=abc", emit);
  server.HandleLine("open s2 k=", emit);
  server.HandleLine("open s3 bogus", emit);
  server.HandleLine("domain nowhere 4", emit);
  server.HandleLine("eval xyz s1 (x1) x1 = x1", emit);
  server.HandleLine("cancel 1x", emit);
  for (const auto& chunk : chunks) {
    EXPECT_EQ(chunk.rfind("err ", 0), 0u) << chunk;
  }
  EXPECT_EQ(chunks.size(), 6u);
  EXPECT_EQ(server.sessions().size(), 0u);
}

// A MiB count whose byte count overflows size_t is an open error, not a
// wrapped value (2^44 + 1 MiB would wrap to 1 MiB and fit this server's
// 1 MiB aggregate), and so is threads= above the pool cap. The threads=
// case fails before any eval, so this test starts no threads.
TEST(ServeProtocolTest, OpenRejectsWrappingMiBAndThreadsAboveTheCap) {
  ServeOptions so;
  so.admission.aggregate_mem_budget_bytes = std::size_t{1} << 20;
  Server server(so);
  std::vector<std::string> chunks;
  auto emit = [&](const std::string& chunk) { chunks.push_back(chunk); };
  for (const char* key :
       {"reserve-mb", "mem-budget-mb", "session-mem-budget-mb", "cache-mb"}) {
    server.HandleLine(StrCat("open s k=3 ", key, "=17592186044417"), emit);
    EXPECT_EQ(chunks.back(), StrCat("err open s: ", key,
                                    "=17592186044417 overflows a byte count\n"));
  }
  const std::size_t cap = ThreadPool::MaxThreads();
  server.HandleLine(StrCat("open t k=1 threads=", cap + 1), emit);
  EXPECT_EQ(chunks.back(), StrCat("err open t: threads=", cap + 1,
                                  " exceeds the limit of ", cap, "\n"));
  EXPECT_EQ(server.sessions().size(), 0u);
  server.HandleLine(StrCat("open t k=1 threads=", cap), emit);
  EXPECT_EQ(chunks.back(), "ok open t\n");
}

// --- sharded router --------------------------------------------------------------

// Builds a "rel <session> E/2 .." request line for an n-cycle.
std::string CycleRelLine(const std::string& session, std::size_t n) {
  std::string line = StrCat("rel ", session, " E/2");
  for (std::size_t i = 0; i < n; ++i) {
    line += StrCat(" ", i, " ", (i + 1) % n, " ;");
  }
  return line;
}

// Builds a "rel <session> Lt/2 .." strict-order line (the counter workload).
std::string OrderRelLine(const std::string& session, std::size_t n) {
  std::string line = StrCat("rel ", session, " Lt/2");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) line += StrCat(" ", i, " ", j, " ;");
  }
  return line;
}

// Returns a session name hashing onto `shard` under `num_shards`.
std::string NameOnShard(std::size_t shard, std::size_t num_shards) {
  for (int i = 0; i < 1024; ++i) {
    std::string name = StrCat("s", i);
    if (ShardForSession(name, num_shards) == shard) return name;
  }
  ADD_FAILURE() << "no session name found for shard " << shard;
  return "s0";
}

// A front-end client collecting everything the router emits to it.
struct TestClient {
  explicit TestClient(ShardRouter& router)
      : client(router.NewClient([this](const std::string& chunk) {
          std::lock_guard<std::mutex> lock(mutex);
          chunks.push_back(chunk);
        })) {}

  std::string All() {
    std::lock_guard<std::mutex> lock(mutex);
    std::string all;
    for (const auto& chunk : chunks) all += chunk;
    return all;
  }
  bool Contains(const std::string& needle) {
    return All().find(needle) != std::string::npos;
  }
  // The result/end block for query id `id` ("" until it arrives); blocks are
  // emitted as one chunk, so this is exact.
  std::string Block(std::size_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    const std::string prefix = StrCat("result ", id, " ");
    for (const auto& chunk : chunks) {
      if (chunk.rfind(prefix, 0) == 0) return chunk;
    }
    return "";
  }

  std::mutex mutex;
  std::vector<std::string> chunks;
  std::shared_ptr<ShardRouter::Client> client;
};

// N in-process workers — a real Server each, served by ServeWorker over
// pipes — attached to a router. Exactly the process topology of
// `bvqserve --shards=N` minus fork/exec (which the bvqserve_shard_demo
// ctest and the check.sh shard smoke cover).
class RouterHarness {
 public:
  explicit RouterHarness(std::size_t n) {
    ShardRouter::Options options;
    options.num_shards = n;
    router_ = std::make_unique<ShardRouter>(std::move(options));
    for (std::size_t i = 0; i < n; ++i) {
      servers_.push_back(std::make_unique<Server>());
      int req[2], can[2], resp[2];
      EXPECT_EQ(::pipe(req), 0);
      EXPECT_EQ(::pipe(can), 0);
      EXPECT_EQ(::pipe(resp), 0);
      Server* server = servers_.back().get();
      worker_threads_.emplace_back(
          [server, in = req[0], cancel = can[0], out = resp[1]] {
            ServeWorker(*server, in, cancel, out);
          });
      EXPECT_TRUE(router_->AttachWorker(i, req[1], can[1], resp[0]).ok());
    }
  }

  ~RouterHarness() {
    router_->Shutdown();
    for (auto& t : worker_threads_) {
      if (t.joinable()) t.join();
    }
  }

  ShardRouter& router() { return *router_; }

 private:
  std::unique_ptr<ShardRouter> router_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::thread> worker_threads_;
};

TEST(ShardRouterTest, SessionHashingIsStableAndInRange) {
  for (int i = 0; i < 256; ++i) {
    const std::string name = StrCat("session-", i);
    const std::size_t shard = ShardForSession(name, 4);
    EXPECT_LT(shard, 4u);
    // Same name, same placement — on every lookup (the property a restarted
    // router relies on; the hash has no per-process state to vary).
    EXPECT_EQ(ShardForSession(name, 4), shard);
    EXPECT_EQ(ShardForSession(name, 1), 0u);
  }
  // The FNV placement actually spreads: 256 distinct names cannot all pile
  // onto one of 4 shards.
  std::set<std::size_t> used;
  for (int i = 0; i < 256; ++i) {
    used.insert(ShardForSession(StrCat("session-", i), 4));
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardRouterTest, ShardShareSplitsBudgetsWithoutCreatingUnlimited) {
  // 0 means "unlimited" in AdmissionOptions and must stay 0.
  EXPECT_EQ(ShardShare(0, 0, 4), 0u);
  EXPECT_EQ(ShardShare(0, 3, 4), 0u);
  // A finite total splits exactly when it divides the fleet.
  std::size_t sum = 0;
  for (std::size_t s = 0; s < 4; ++s) sum += ShardShare(256, s, 4);
  EXPECT_EQ(sum, 256u);
  // Remainders go to the low shards, one unit each.
  EXPECT_EQ(ShardShare(10, 0, 4), 3u);
  EXPECT_EQ(ShardShare(10, 1, 4), 3u);
  EXPECT_EQ(ShardShare(10, 2, 4), 2u);
  EXPECT_EQ(ShardShare(10, 3, 4), 2u);
  // A finite budget smaller than the fleet must not round any shard down
  // to 0 (= unlimited); the clamp hands out 1 instead.
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(ShardShare(1, s, 4), 1u);
}

TEST(ShardRouterTest, AggregateStatsParseAndMerge) {
  ShardStatsSnapshot a, b;
  ASSERT_TRUE(ParseAggregateStats(
      "stats sessions=2 active=1 queue=3 reserved_bytes=1024 "
      "peak_reserved_bytes=4096 admitted=10 rejected=2 queued=5 cancelled=1",
      &a));
  EXPECT_EQ(a.sessions, 2u);
  EXPECT_EQ(a.queue, 3u);
  EXPECT_EQ(a.cancelled, 1u);
  ASSERT_TRUE(ParseAggregateStats(
      "stats sessions=1 active=0 queue=0 reserved_bytes=512 "
      "peak_reserved_bytes=512 admitted=3 rejected=0 queued=0 cancelled=2",
      &b));
  EXPECT_EQ(
      MergeAggregateStats({a, b}, 3),
      "stats sessions=3 active=1 queue=3 reserved_bytes=1536 "
      "peak_reserved_bytes=4608 admitted=13 rejected=2 queued=5 cancelled=3 "
      "shards=3 up=2");
  // Missing counters (e.g. an error line from a dead shard) parse to false.
  ShardStatsSnapshot c;
  EXPECT_FALSE(ParseAggregateStats("err shard 1 down", &c));
  EXPECT_FALSE(ParseAggregateStats("stats sessions=1 active=0", &c));
}

TEST(ShardRouterTest, RoutedEvalIsByteIdenticalToDirectServer) {
  const std::string session = NameOnShard(1, 2);
  const std::vector<std::string> script = {
      StrCat("open ", session, " k=3"),
      StrCat("domain ", session, " 12"),
      CycleRelLine(session, 12),
      StrCat("eval 9 ", session, " ", kTcQuery),
      "drain",
  };

  // Direct single-process run.
  Server direct;
  std::mutex direct_mutex;
  std::vector<std::string> direct_chunks;
  for (const auto& line : script) {
    direct.HandleLine(line, [&](const std::string& chunk) {
      std::lock_guard<std::mutex> lock(direct_mutex);
      direct_chunks.push_back(chunk);
    });
  }

  // Same conversation through a 2-shard router.
  RouterHarness harness(2);
  TestClient client(harness.router());
  for (const auto& line : script) {
    harness.router().HandleLine(client.client, line);
  }

  // Every control response matches, and the result block — the served
  // payload — is byte-identical, including the client's original id.
  std::string direct_block;
  {
    std::lock_guard<std::mutex> lock(direct_mutex);
    for (const auto& chunk : direct_chunks) {
      if (chunk.rfind("result 9 ", 0) == 0) direct_block = chunk;
      EXPECT_NE(client.All().find(chunk), std::string::npos) << chunk;
    }
  }
  ASSERT_FALSE(direct_block.empty());
  EXPECT_NE(direct_block.find("144 tuple(s)"), std::string::npos)
      << direct_block;
  EXPECT_EQ(client.Block(9), direct_block);
}

TEST(ShardRouterTest, ConsolidatedStatsSumAcrossShards) {
  RouterHarness harness(2);
  TestClient client(harness.router());
  const std::string on0 = NameOnShard(0, 2);
  const std::string on1 = NameOnShard(1, 2);
  for (const std::string& name : {on0, on1}) {
    harness.router().HandleLine(client.client, StrCat("open ", name, " k=3"));
    harness.router().HandleLine(client.client, StrCat("domain ", name, " 6"));
    harness.router().HandleLine(client.client, CycleRelLine(name, 6));
    EXPECT_TRUE(client.Contains(StrCat("ok open ", name, "\n")));
  }
  harness.router().HandleLine(client.client, StrCat("eval 1 ", on0, " ", kTcQuery));
  harness.router().HandleLine(client.client, StrCat("eval 2 ", on1, " ", kTcQuery));
  harness.router().HandleLine(client.client, "drain");
  EXPECT_TRUE(client.Contains("result 1 ok\n")) << client.All();
  EXPECT_TRUE(client.Contains("result 2 ok\n")) << client.All();

  // Each worker only admitted its own query; the consolidated line sums
  // the fleet's counters into the single-process field order.
  harness.router().HandleLine(client.client, "stats");
  EXPECT_TRUE(client.Contains("stats sessions=2 active=0 queue=0 "
                              "reserved_bytes=0 "))
      << client.All();
  EXPECT_TRUE(client.Contains(" admitted=2 rejected=0 queued=0 cancelled=0 "
                              "shards=2 up=2\n"))
      << client.All();

  // Per-session stats still route to the owning shard untouched.
  harness.router().HandleLine(client.client, StrCat("stats ", on1));
  EXPECT_TRUE(client.Contains(StrCat("stats session=", on1, " ")))
      << client.All();

  harness.router().HandleLine(client.client, StrCat("close ", on0));
  harness.router().HandleLine(client.client, StrCat("close ", on1));
  harness.router().HandleLine(client.client, "stats");
  EXPECT_TRUE(client.Contains("stats sessions=0 active=0 queue=0 "
                              "reserved_bytes=0 "))
      << client.All();
}

TEST(ShardRouterTest, DuplicateInflightIdRejectedFleetWide) {
  RouterHarness harness(2);
  TestClient client(harness.router());
  const std::string slow = NameOnShard(0, 2);
  const std::string fast = NameOnShard(1, 2);
  harness.router().HandleLine(client.client, StrCat("open ", slow, " k=2"));
  harness.router().HandleLine(client.client, StrCat("domain ", slow, " 18"));
  harness.router().HandleLine(client.client, OrderRelLine(slow, 18));
  harness.router().HandleLine(client.client, StrCat("open ", fast, " k=3"));
  harness.router().HandleLine(client.client, StrCat("domain ", fast, " 6"));
  harness.router().HandleLine(client.client, CycleRelLine(fast, 6));

  harness.router().HandleLine(client.client,
                              StrCat("eval 7 ", slow, " ", kCounterQuery));
  EXPECT_TRUE(client.Contains("ok eval 7\n")) << client.All();

  // Same id on the *other* shard: the router must reject it with the
  // single-process error text — per-worker uniqueness is not enough.
  harness.router().HandleLine(client.client,
                              StrCat("eval 7 ", fast, " ", kTcQuery));
  EXPECT_TRUE(client.Contains(
      "err eval 7: InvalidArgument: query id 7 is already in flight\n"))
      << client.All();

  harness.router().HandleLine(client.client, "cancel 7");
  EXPECT_TRUE(client.Contains("ok cancel 7\n")) << client.All();
  ASSERT_TRUE(WaitFor([&] { return !client.Block(7).empty(); }));
  EXPECT_EQ(client.Block(7).rfind("result 7 error Cancelled\n", 0), 0u)
      << client.Block(7);

  // Once the block is back the id is free again, on any shard.
  harness.router().HandleLine(client.client,
                              StrCat("eval 7 ", fast, " ", kTcQuery));
  harness.router().HandleLine(client.client, "drain");
  const std::string all = client.All();
  EXPECT_NE(all.rfind("ok eval 7\n"), all.find("ok eval 7\n")) << all;
  EXPECT_TRUE(client.Contains("result 7 ok\n")) << all;
}

TEST(ShardRouterTest, CancelErrorTextMatchesDirectServer) {
  Server direct;
  std::string direct_response;
  direct.HandleLine("cancel 424242", [&](const std::string& chunk) {
    direct_response = chunk;
  });

  RouterHarness harness(2);
  TestClient client(harness.router());
  harness.router().HandleLine(client.client, "cancel 424242");
  ASSERT_EQ(client.chunks.size(), 1u);
  EXPECT_EQ(client.chunks[0], direct_response);
}

TEST(ShardRouterTest, CancelBypassesBlockedDrain) {
  RouterHarness harness(2);
  TestClient client(harness.router());
  const std::string slow = NameOnShard(0, 2);
  harness.router().HandleLine(client.client, StrCat("open ", slow, " k=2"));
  harness.router().HandleLine(client.client, StrCat("domain ", slow, " 18"));
  harness.router().HandleLine(client.client, OrderRelLine(slow, 18));
  harness.router().HandleLine(client.client,
                              StrCat("eval 3 ", slow, " ", kCounterQuery));
  EXPECT_TRUE(client.Contains("ok eval 3\n")) << client.All();

  // Park a drain on the request path — it blocks until the counter query
  // finishes, which ungoverned takes ~2^18 stages.
  std::thread drainer([&] { harness.router().HandleLine(client.client, "drain"); });
  std::this_thread::sleep_for(milliseconds(50));

  // The cancel must overtake it via the out-of-band channel; if it queued
  // behind the drain this would deadlock (cancel waits for drain, drain
  // waits for the query, the query waits for cancel).
  harness.router().HandleLine(client.client, "cancel 3");
  drainer.join();
  EXPECT_TRUE(client.Contains("ok cancel 3\n")) << client.All();
  EXPECT_TRUE(client.Contains("ok drain\n")) << client.All();
  ASSERT_TRUE(WaitFor([&] { return !client.Block(3).empty(); }));
  EXPECT_EQ(client.Block(3).rfind("result 3 error Cancelled\n", 0), 0u)
      << client.Block(3);
}

TEST(ShardRouterTest, WorkerCrashFailsInFlightAndReportsShardDown) {
  // A scripted fake worker stands in for a crashing process: it acks an
  // open and an eval, then slams all three fds shut mid-query.
  ShardRouter::Options options;
  options.num_shards = 1;
  ShardRouter router(std::move(options));
  int req[2], can[2], resp[2];
  ASSERT_EQ(::pipe(req), 0);
  ASSERT_EQ(::pipe(can), 0);
  ASSERT_EQ(::pipe(resp), 0);
  ASSERT_TRUE(router.AttachWorker(0, req[1], can[1], resp[0]).ok());

  std::thread fake([in = req[0], cancel = can[0], out = resp[1]] {
    auto read_line = [in] {
      std::string line;
      char c = 0;
      while (::read(in, &c, 1) == 1 && c != '\n') line += c;
      return line;
    };
    std::istringstream open_line(read_line());  // "open s .."
    std::string cmd, name;
    open_line >> cmd >> name;
    std::string ack = StrCat("ok open ", name, "\n");
    ASSERT_EQ(::write(out, ack.data(), ack.size()),
              static_cast<ssize_t>(ack.size()));
    std::istringstream eval_line(read_line());  // "eval <iid> s .."
    std::string id_tok;
    eval_line >> cmd >> id_tok;
    ack = StrCat("ok eval ", id_tok, "\n");
    ASSERT_EQ(::write(out, ack.data(), ack.size()),
              static_cast<ssize_t>(ack.size()));
    ::close(out);  // crash: EOF with a query in flight
    ::close(in);
    ::close(cancel);
  });

  TestClient client(router);
  router.HandleLine(client.client, "open s k=2");
  EXPECT_TRUE(client.Contains("ok open s\n")) << client.All();
  router.HandleLine(client.client, StrCat("eval 5 s ", kCounterQuery));
  EXPECT_TRUE(client.Contains("ok eval 5\n")) << client.All();

  // The reader sees EOF: shard marked down, the acknowledged eval completed
  // as an Unavailable error block (never a hang), no respawn without a
  // worker command.
  ASSERT_TRUE(WaitFor([&] { return !router.shard_up(0); }));
  ASSERT_TRUE(WaitFor([&] { return !client.Block(5).empty(); }));
  EXPECT_EQ(client.Block(5),
            "result 5 error Unavailable\n  Unavailable: shard 0 down\n"
            "end 5\n");
  EXPECT_EQ(router.restarts(), 0u);

  // The dead worker's sessions are gone; new work on the shard is refused
  // with the down error, and a fleet stats still answers (up=0).
  router.HandleLine(client.client, "open t k=2");
  EXPECT_TRUE(client.Contains("err shard 0 down\n")) << client.All();
  router.HandleLine(client.client, "stats");
  EXPECT_TRUE(client.Contains(" shards=1 up=0\n")) << client.All();

  fake.join();
  router.Shutdown();
}

TEST(ShardRouterTest, RestartedWorkerCountsInUpOnlyAfterReack) {
  // A scripted worker whose first incarnation answers exactly one line and
  // exits, and whose second incarnation stays wedged (answering nothing)
  // until a go-file appears. Between the respawn and the first line back,
  // a sessionless stats must neither hang on the silent process nor count
  // it as up.
  char tmpl[] = "/tmp/bvq_reack_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string marker = dir + "/incarnation1";
  const std::string go = dir + "/go";
  const std::string stats_line =
      "stats sessions=0 active=0 queue=0 reserved_bytes=0 "
      "peak_reserved_bytes=0 admitted=0 rejected=0 queued=0 cancelled=0";
  const std::string script = StrCat(
      "if [ ! -e ", marker, " ]; then : > ", marker, "; read line; echo \"",
      stats_line, "\"; exit 0; fi; while [ ! -e ", go,
      " ]; do sleep 0.05; done; while read line; do echo \"", stats_line,
      "\"; done");

  ShardRouter::Options options;
  options.num_shards = 1;
  options.worker_commands = {{"/bin/sh", "-c", script}};
  ShardRouter router(std::move(options));
  ASSERT_TRUE(router.Start().ok());
  TestClient client(router);

  router.HandleLine(client.client, "stats");
  EXPECT_TRUE(client.Contains(" shards=1 up=1\n")) << client.All();
  // Answering that stats was incarnation 1's last act; wait for the
  // respawn (observing the restart also observes the shard unacked).
  ASSERT_TRUE(WaitFor([&] { return router.restarts() == 1; }));

  // Respawned but silent: skipped, promptly, with up=0.
  router.HandleLine(client.client, "stats");
  const std::string all = client.All();
  EXPECT_NE(all.rfind(" shards=1 up=0\n"), std::string::npos) << all;

  // Unwedge incarnation 2. The router's own probe re-acks the shard — no
  // client traffic is needed for up= to recover, but poll via stats.
  { std::ofstream unwedge(go); }
  ASSERT_TRUE(WaitFor([&] {
    TestClient probe(router);
    router.HandleLine(probe.client, "stats");
    return probe.Contains(" shards=1 up=1\n");
  }));
  router.Shutdown();
}

TEST(ServeCacheTest, CacheDirPrewarmsARestartedServer) {
  // Two Server instances sharing a cache dir stand in for a process
  // restart: the second serves its first query with cache hits and a
  // byte-identical result block.
  char tmpl[] = "/tmp/bvq_cachedir_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  ServeOptions options;
  options.cache_dir = tmpl;

  const std::vector<std::string> setup = {
      "open s k=3",
      "domain s 6",
      "rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;",
      StrCat("eval 1 s ", kTcQuery),
      "drain",
  };
  auto run = [&](std::vector<std::string>* chunks_out) {
    Server server(options);
    std::mutex mu;
    auto emit = [&](const std::string& chunk) {
      std::lock_guard<std::mutex> lock(mu);
      chunks_out->push_back(chunk);
    };
    for (const std::string& line : setup) server.HandleLine(line, emit);
    server.HandleLine("stats s", emit);
    server.HandleLine("quit", emit);  // snapshots every session
  };

  std::vector<std::string> first, second;
  run(&first);
  ASSERT_TRUE(std::ifstream(StrCat(tmpl, "/s.bvqcache")).good());
  run(&second);

  auto block = [](const std::vector<std::string>& chunks) {
    for (const std::string& c : chunks) {
      if (c.rfind("result 1 ", 0) == 0) return c;
    }
    return std::string();
  };
  auto stats = [](const std::vector<std::string>& chunks) {
    for (const std::string& c : chunks) {
      if (c.rfind("stats session=s ", 0) == 0) return c;
    }
    return std::string();
  };
  ASSERT_FALSE(block(first).empty());
  EXPECT_EQ(block(second), block(first));  // byte-identical across restart
  // The restart's very first batch was served warm from the snapshot.
  EXPECT_EQ(stats(second).find(" cache_hits=0 "), std::string::npos)
      << stats(second);
  EXPECT_EQ(stats(second).find(" cache_restored=0 "), std::string::npos)
      << stats(second);
  EXPECT_NE(stats(first).find(" cache_restored=0 "), std::string::npos)
      << stats(first);

  // A corrupted snapshot degrades the next restart to a cold start: same
  // bytes out, no hits, no protocol error.
  {
    std::fstream f(StrCat(tmpl, "/s.bvqcache"),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(30);
    char b = 0;
    f.seekg(30);
    f.get(b);
    f.seekp(30);
    f.put(static_cast<char>(b ^ 0x40));
  }
  std::vector<std::string> third;
  run(&third);
  EXPECT_EQ(block(third), block(first));
  EXPECT_NE(stats(third).find(" cache_hits=0 "), std::string::npos)
      << stats(third);
}

TEST(ServeCacheTest, ProtocolCacheSaveRestoreCommands) {
  const std::string file = ::testing::TempDir() + "/bvq_proto_cache.bvqcache";
  std::remove(file.c_str());

  std::vector<std::string> chunks;
  std::mutex mu;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };
  auto all = [&] {
    std::lock_guard<std::mutex> lock(mu);
    std::string joined;
    for (const auto& c : chunks) joined += c;
    return joined;
  };

  std::string first_block;
  {
    Server a;  // no cache_dir: only the explicit commands move snapshots
    a.HandleLine("open s k=3", emit);
    a.HandleLine("domain s 6", emit);
    a.HandleLine("rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;", emit);
    a.HandleLine(StrCat("eval 1 s ", kTcQuery), emit);
    a.HandleLine("drain", emit);
    a.HandleLine(StrCat("cache s save ", file), emit);
    EXPECT_NE(all().find("ok cache s save\n"), std::string::npos) << all();
    a.HandleLine("cache s save", emit);  // missing path
    EXPECT_NE(all().find("err cache s: save needs a file"), std::string::npos)
        << all();
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& c : chunks) {
      if (c.rfind("result 1 ", 0) == 0) first_block = c;
    }
    ASSERT_FALSE(first_block.empty());
    chunks.clear();
  }

  Server b;
  b.HandleLine("open s k=3", emit);
  b.HandleLine("domain s 6", emit);
  b.HandleLine("rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;", emit);
  b.HandleLine(StrCat("cache s restore ", file), emit);
  EXPECT_NE(all().find("ok cache s restore\n"), std::string::npos) << all();
  b.HandleLine(StrCat("eval 1 s ", kTcQuery), emit);
  b.HandleLine("drain", emit);
  b.HandleLine("stats s", emit);
  const std::string joined = all();
  EXPECT_NE(joined.find(first_block), std::string::npos) << joined;
  EXPECT_EQ(joined.find(" cache_hits=0 "), std::string::npos) << joined;

  // Restoring garbage is an err line, never a crash, and the session keeps
  // serving correct answers.
  const std::string garbage = ::testing::TempDir() + "/bvq_garbage.bvqcache";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a snapshot";
  }
  b.HandleLine(StrCat("cache s restore ", garbage), emit);
  EXPECT_NE(all().find("err cache s restore:"), std::string::npos) << all();
  b.HandleLine(StrCat("eval 2 s ", kTcQuery), emit);
  b.HandleLine("drain", emit);
  // Same payload bytes under the new id: swap the frame lines of block 1.
  std::string expected_block2 =
      "result 2 " + first_block.substr(std::string("result 1 ").size());
  const std::string old_tail = "end 1\n";
  ASSERT_GE(expected_block2.size(), old_tail.size());
  expected_block2.replace(expected_block2.size() - old_tail.size(),
                          old_tail.size(), "end 2\n");
  EXPECT_NE(all().find(expected_block2), std::string::npos) << all();
  std::remove(file.c_str());
  std::remove(garbage.c_str());
}

// --- batched queries (DESIGN.md §14) ---------------------------------------

// Collects protocol chunks and retrieves result blocks by id.
struct ChunkSink {
  std::mutex mutex;
  std::vector<std::string> chunks;
  Server::Emit Emit() {
    return [this](const std::string& chunk) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.push_back(chunk);
    };
  }
  std::string All() {
    std::lock_guard<std::mutex> lock(mutex);
    std::string all;
    for (const auto& chunk : chunks) all += chunk;
    return all;
  }
  std::string Block(std::size_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    const std::string prefix = StrCat("result ", id, " ");
    for (const auto& chunk : chunks) {
      if (chunk.rfind(prefix, 0) == 0) return chunk;
    }
    return "";
  }
};

constexpr char kPathQuery[] = "(x1,x2) exists x3 . (E(x1,x3) & E(x3,x2))";
constexpr char kPathOrEdgeQuery[] =
    "(x1,x2) exists x3 . (E(x1,x3) & E(x3,x2)) | E(x1,x2)";

TEST(ServeBatchTest, BatchedResultsAreByteIdenticalToSerialRuns) {
  // Serial reference: the same queries one by one, cache off (the seed
  // evaluation path — no sharing, no warmth).
  Server serial;
  ChunkSink serial_sink;
  const auto semit = serial_sink.Emit();
  serial.HandleLine("open ref k=3 cache=0", semit);
  serial.HandleLine("domain ref 8", semit);
  serial.HandleLine(CycleRelLine("ref", 8), semit);
  serial.HandleLine(StrCat("eval 1 ref ", kPathQuery), semit);
  serial.HandleLine(StrCat("eval 2 ref ", kPathOrEdgeQuery), semit);
  serial.HandleLine(StrCat("eval 3 ref ", kTcQuery), semit);
  serial.HandleLine("drain", semit);

  // The batch: same ids, same queries, planned together.
  Server server;
  ChunkSink sink;
  const auto emit = sink.Emit();
  server.HandleLine("open s k=3", emit);
  server.HandleLine("domain s 8", emit);
  server.HandleLine(CycleRelLine("s", 8), emit);
  server.HandleLine("batch s begin", emit);
  server.HandleLine(StrCat("batch s eval 1 ", kPathQuery), emit);
  server.HandleLine(StrCat("batch s eval 2 ", kPathOrEdgeQuery), emit);
  server.HandleLine(StrCat("batch s eval 3 ", kTcQuery), emit);
  server.HandleLine("batch s end", emit);
  server.HandleLine("drain", emit);

  EXPECT_NE(sink.All().find("ok batch s begin\n"), std::string::npos)
      << sink.All();
  EXPECT_NE(sink.All().find("ok batch s eval 1\n"), std::string::npos)
      << sink.All();
  // The end ack carries the plan stats; queries 1 and 2 share the
  // two-step-path subtree, so something deduplicated.
  EXPECT_NE(sink.All().find("ok batch s end queries=3 "), std::string::npos)
      << sink.All();
  EXPECT_EQ(sink.All().find("dedup=1.00"), std::string::npos) << sink.All();

  for (const std::size_t id : {1u, 2u, 3u}) {
    ASSERT_NE(serial_sink.Block(id), "") << id;
    EXPECT_EQ(sink.Block(id), serial_sink.Block(id)) << id;
  }

  // The per-session stats line carries the batch counters.
  server.HandleLine("stats s", emit);
  EXPECT_NE(sink.All().find(" batch=1 batches=1 batch_queries=3 "),
            std::string::npos)
      << sink.All();
}

TEST(ServeBatchTest, KillSwitchDegradesToSerialWithIdenticalBytes) {
  Server server;
  ChunkSink sink;
  const auto emit = sink.Emit();
  server.HandleLine("open s k=3 batch=0", emit);
  server.HandleLine("domain s 8", emit);
  server.HandleLine(CycleRelLine("s", 8), emit);
  server.HandleLine("batch s begin", emit);
  server.HandleLine(StrCat("batch s eval 1 ", kPathQuery), emit);
  server.HandleLine(StrCat("batch s eval 2 ", kPathOrEdgeQuery), emit);
  server.HandleLine("batch s end", emit);
  server.HandleLine("drain", emit);

  // Planning skipped: zero nodes, dedup 1.00 — but the queries still ran.
  EXPECT_NE(sink.All().find("ok batch s end queries=2 nodes=0 shared=0 "
                            "materialized=0 stages=0 dedup=1.00\n"),
            std::string::npos)
      << sink.All();

  Server ref;
  ChunkSink ref_sink;
  const auto remit = ref_sink.Emit();
  ref.HandleLine("open s k=3", remit);
  ref.HandleLine("domain s 8", remit);
  ref.HandleLine(CycleRelLine("s", 8), remit);
  ref.HandleLine(StrCat("eval 1 s ", kPathQuery), remit);
  ref.HandleLine(StrCat("eval 2 s ", kPathOrEdgeQuery), remit);
  ref.HandleLine("drain", remit);
  for (const std::size_t id : {1u, 2u}) {
    ASSERT_NE(ref_sink.Block(id), "") << id;
    EXPECT_EQ(sink.Block(id), ref_sink.Block(id)) << id;
  }
}

TEST(ServeBatchTest, BatchProtocolErrorPaths) {
  Server server;
  ChunkSink sink;
  const auto emit = sink.Emit();
  server.HandleLine("open s k=3", emit);
  server.HandleLine("batch s end", emit);
  EXPECT_NE(sink.All().find("err batch s end: InvalidArgument: no batch in "
                            "progress for session s\n"),
            std::string::npos)
      << sink.All();
  server.HandleLine("batch nosuch begin", emit);
  EXPECT_NE(sink.All().find("err batch nosuch begin:"), std::string::npos)
      << sink.All();
  server.HandleLine("batch s begin", emit);
  server.HandleLine("batch s begin", emit);
  EXPECT_NE(sink.All().find("err batch s begin: InvalidArgument: a batch is "
                            "already in progress for session s\n"),
            std::string::npos)
      << sink.All();
  server.HandleLine("batch s eval 1 (x1) E(x1,x1)", emit);
  server.HandleLine("batch s eval 1 (x1) E(x1,x1)", emit);
  EXPECT_NE(sink.All().find("err batch s eval 1: InvalidArgument: query id 1 "
                            "is already in flight\n"),
            std::string::npos)
      << sink.All();
  server.HandleLine("batch s frobnicate", emit);
  EXPECT_NE(sink.All().find("err batch s: expected begin|eval|end"),
            std::string::npos)
      << sink.All();
  // An unparseable query is still accepted into the batch (planning skips
  // it) and reproduces the serial parse error as its result block.
  server.HandleLine("batch s eval 2 (((", emit);
  server.HandleLine("batch s end", emit);
  server.HandleLine("drain", emit);
  EXPECT_NE(sink.Block(2).find("result 2 error"), std::string::npos)
      << sink.All();
}

TEST(ServeBatchTest, CancellingOneBatchMemberLeavesTheOthersIntact) {
  Server server;
  SessionOptions so;
  so.num_vars = 3;
  ASSERT_TRUE(server.Open("s", so, CycleDb(8)).ok());

  struct Outcomes {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::uint64_t, EvalOutcome> by_id;
  } outcomes;
  auto done = [&outcomes](const EvalOutcome& o) {
    {
      std::lock_guard<std::mutex> lock(outcomes.mutex);
      outcomes.by_id[o.id] = o;
    }
    outcomes.cv.notify_all();
  };

  ASSERT_TRUE(server.BatchBegin("s").ok());
  ASSERT_TRUE(server.BatchAddWithId(1, "s", kPathQuery).ok());
  ASSERT_TRUE(server.BatchAddWithId(2, "s", kPathQuery).ok());
  ASSERT_TRUE(server.BatchAddWithId(3, "s", kPathOrEdgeQuery).ok());
  // Batch ids are cancellable from the moment they are collected.
  ASSERT_TRUE(server.Cancel(2, "changed my mind").ok());
  auto stats = server.BatchEnd("s", done);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->queries, 3u);
  {
    std::unique_lock<std::mutex> lock(outcomes.mutex);
    outcomes.cv.wait(lock, [&] { return outcomes.by_id.size() == 3u; });
  }
  server.Drain();

  // The cancelled member failed alone; its shared subtree still served the
  // survivors, whose results match an untouched serial run.
  EXPECT_EQ(outcomes.by_id[2].status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(outcomes.by_id[1].status.ok())
      << outcomes.by_id[1].status.ToString();
  ASSERT_TRUE(outcomes.by_id[3].status.ok())
      << outcomes.by_id[3].status.ToString();
  SessionOptions ref;
  ref.num_vars = 3;
  ref.cross_query_cache = false;
  ASSERT_TRUE(server.Open("ref", ref, CycleDb(8)).ok());
  EXPECT_EQ(outcomes.by_id[1].payload,
            server.EvalSync("ref", kPathQuery).payload);
  EXPECT_EQ(outcomes.by_id[3].payload,
            server.EvalSync("ref", kPathOrEdgeQuery).payload);
}

TEST(ServeBatchTest, CloseDropsAPendingBatchAndItsIds) {
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(4)).ok());
  ASSERT_TRUE(server.BatchBegin("s").ok());
  ASSERT_TRUE(server.BatchAddWithId(5, "s", kPathQuery).ok());
  ASSERT_TRUE(server.Close("s").ok());
  // The collected id is gone with the batch: cancelling it is NotFound,
  // and reopening the session finds no stale batch in progress.
  EXPECT_EQ(server.Cancel(5).code(), StatusCode::kNotFound);
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(4)).ok());
  EXPECT_EQ(server.BatchEnd("s", [](const EvalOutcome&) {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeBatchTest, HelpListsEveryProtocolCommand) {
  Server server;
  ChunkSink sink;
  server.HandleLine("help", sink.Emit());
  const std::string all = sink.All();
  EXPECT_EQ(all.rfind("ok help\n", 0), 0u) << all;
  for (const char* cmd :
       {"open ", "domain ", "rel ", "load ", "eval ", "batch ", "cancel ",
        "close ", "cache ", "stats ", "drain", "help", "quit"}) {
    EXPECT_NE(all.find(StrCat("\n  ", cmd)), std::string::npos) << cmd;
  }
  // Unknown commands point at it and echo the offending token.
  server.HandleLine("frobnicate now", sink.Emit());
  EXPECT_NE(sink.All().find("err unknown command \"frobnicate\"; try help\n"),
            std::string::npos)
      << sink.All();
}

TEST(ShardRouterTest, RoutedBatchIsByteIdenticalToDirectServer) {
  const std::string session = NameOnShard(1, 2);
  const std::vector<std::string> script = {
      StrCat("open ", session, " k=3"),
      StrCat("domain ", session, " 8"),
      CycleRelLine(session, 8),
      StrCat("batch ", session, " begin"),
      StrCat("batch ", session, " eval 7 ", kPathQuery),
      StrCat("batch ", session, " eval 8 ", kPathOrEdgeQuery),
      StrCat("batch ", session, " end"),
      "drain",
  };

  Server direct;
  ChunkSink direct_sink;
  for (const auto& line : script) direct.HandleLine(line, direct_sink.Emit());

  RouterHarness harness(2);
  TestClient client(harness.router());
  for (const auto& line : script) {
    harness.router().HandleLine(client.client, line);
  }

  // Control responses — including the stats-bearing end ack — and the
  // result blocks match byte for byte, with the client's original ids.
  {
    std::lock_guard<std::mutex> lock(direct_sink.mutex);
    for (const auto& chunk : direct_sink.chunks) {
      EXPECT_NE(client.All().find(chunk), std::string::npos) << chunk;
    }
  }
  for (const std::size_t id : {7u, 8u}) {
    ASSERT_NE(direct_sink.Block(id), "") << id;
    EXPECT_EQ(client.Block(id), direct_sink.Block(id)) << id;
  }
  EXPECT_TRUE(client.Contains(StrCat("ok batch ", session, " end queries=2 ")))
      << client.All();

  // `help` is answered by the router itself, byte-identical to a worker's.
  harness.router().HandleLine(client.client, "help");
  EXPECT_TRUE(client.Contains("ok help\n")) << client.All();
  EXPECT_TRUE(client.Contains("batch <s> end")) << client.All();

  // A duplicate batch-eval id is rejected fleet-wide with the worker's
  // exact bytes, before any worker sees the line.
  harness.router().HandleLine(
      client.client, StrCat("batch ", session, " begin"));
  harness.router().HandleLine(
      client.client, StrCat("batch ", session, " eval 9 ", kPathQuery));
  harness.router().HandleLine(
      client.client, StrCat("batch ", session, " eval 9 ", kPathQuery));
  EXPECT_TRUE(client.Contains(
      StrCat("err batch ", session,
             " eval 9: InvalidArgument: query id 9 is already in flight\n")))
      << client.All();
  // Shut down while `client` is alive: the never-ended batch's id 9 is
  // completed as Unavailable when its worker exits, and that block is
  // emitted to `client`.
  harness.router().Shutdown();
}

TEST(ShardRouterTest, CloseMidBatchRetiresTheBatchIds) {
  // Closing a session abandons the batch it was collecting: the worker
  // drops those ids, so the router must free them too. Otherwise id 5 stays
  // "in flight" forever, and at shutdown gets an Unavailable block for a
  // query that never ran.
  const std::vector<std::string> script = {
      "open s k=3",       "domain s 4",          "batch s begin",
      "batch s eval 5 (x1) x1 = x1",             "close s",
      "open t k=3",       "domain t 4",          "eval 5 t (x1) x1 = x1",
      "drain",
  };
  auto control_lines = [](const std::vector<std::string>& chunks) {
    std::vector<std::string> lines;
    for (const auto& chunk : chunks) {
      if (chunk.rfind("result ", 0) != 0) lines.push_back(chunk);
    }
    return lines;
  };

  Server direct;
  ChunkSink direct_sink;
  for (const auto& line : script) direct.HandleLine(line, direct_sink.Emit());

  RouterHarness harness(2);
  TestClient client(harness.router());
  for (const auto& line : script) {
    harness.router().HandleLine(client.client, line);
  }
  ASSERT_NE(direct_sink.Block(5), "");
  EXPECT_EQ(client.Block(5), direct_sink.Block(5));
  harness.router().Shutdown();
  {
    std::lock_guard<std::mutex> direct_lock(direct_sink.mutex);
    std::lock_guard<std::mutex> lock(client.mutex);
    EXPECT_EQ(control_lines(client.chunks), control_lines(direct_sink.chunks));
  }
  EXPECT_FALSE(client.Contains("Unavailable")) << client.All();
}

// --- cache clear racing a running eval -------------------------------------

TEST(ServeCacheTest, ClearRacingARunningEvalIsSafeAndByteIdentical) {
  // `cache <s> clear` drops resident entries while queries are mid-flight;
  // the contract is memory reclamation with zero semantic effect. Hammer
  // clear against a stream of cache-warmed evals and hold the results to
  // the cache-off bytes. (The interesting failure modes — a clear between
  // a probe and an insert, a clear between two subtree probes of one
  // evaluation — are what TSan watches here.)
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(10)).ok());
  SessionOptions no_cache;
  no_cache.cross_query_cache = false;
  ASSERT_TRUE(server.Open("ref", no_cache, CycleDb(10)).ok());
  const std::string want = server.EvalSync("ref", kTcQuery).payload;
  ASSERT_FALSE(want.empty());

  std::atomic<bool> stop{false};
  ChunkSink sink;
  std::thread clearer([&] {
    const auto emit = sink.Emit();
    while (!stop.load(std::memory_order_acquire)) {
      server.HandleLine("cache s clear", emit);
    }
  });
  for (int i = 0; i < 20; ++i) {
    const EvalOutcome out = server.EvalSync("s", kTcQuery);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.payload, want) << i;
  }
  stop.store(true, std::memory_order_release);
  clearer.join();
  EXPECT_NE(sink.All().find("ok cache s clear\n"), std::string::npos);
}

}  // namespace
}  // namespace bvq::serve
