// The resource-governor layer: deadline/budget/cancel semantics of
// ResourceGovernor itself, exception containment and cooperative
// cancellation in ThreadPool, and — the property the whole design hangs on —
// that a cancelled evaluation never leaks a partial answer: the call errors,
// and a governor-free re-run on the same evaluator is byte-identical to a
// run that was never governed at all.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/resource.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/eso_eval.h"
#include "eval/naive_eval.h"
#include "logic/parser.h"
#include "sat/solver.h"

namespace bvq {
namespace {

// --- ResourceGovernor units ------------------------------------------------------

TEST(ResourceGovernorTest, ChargeReleasePeakAccounting) {
  ResourceGovernor gov;  // no limits: accounting only
  EXPECT_TRUE(gov.Charge(100).ok());
  EXPECT_TRUE(gov.Charge(50).ok());
  gov.Release(100);
  EXPECT_TRUE(gov.NoteTransient(500).ok());

  const ResourceStats stats = gov.stats();
  EXPECT_EQ(stats.mem_current_bytes, 50u);
  EXPECT_EQ(stats.mem_peak_bytes, 550u);  // 50 live + 500 transient
  EXPECT_FALSE(stats.stopped);
  EXPECT_GE(stats.charges, 3u);
  EXPECT_TRUE(gov.Check().ok());
}

TEST(ResourceGovernorTest, BudgetTripIsSticky) {
  ResourceGovernor::Limits limits;
  limits.mem_budget_bytes = 1024;
  ResourceGovernor gov(limits);
  EXPECT_TRUE(gov.Charge(512).ok());
  const Status trip = gov.Charge(1024);
  ASSERT_FALSE(trip.ok());
  EXPECT_EQ(trip.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(gov.stopped());
  // Sticky: every subsequent observation reports the same trip, even after
  // the account drains back under budget.
  gov.Release(1536);
  EXPECT_EQ(gov.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.Charge(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.stats().stop_code, StatusCode::kResourceExhausted);

  gov.Reset(ResourceGovernor::Limits{});
  EXPECT_FALSE(gov.stopped());
  EXPECT_TRUE(gov.Check().ok());
  EXPECT_EQ(gov.stats().mem_current_bytes, 0u);
}

TEST(ResourceGovernorTest, DeadlineTrips) {
  ResourceGovernor::Limits limits;
  limits.deadline_ms = 1;
  ResourceGovernor gov(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Status s = gov.Check();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(gov.stopped());
  EXPECT_EQ(gov.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(gov.stop_flag()->load());
}

TEST(ResourceGovernorTest, CancelTripsWithReason) {
  ResourceGovernor gov;
  gov.Cancel("client went away");
  const Status s = gov.Check();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("client went away"), std::string::npos);
  // First trip wins: a later deadline/budget cause cannot overwrite it.
  gov.Cancel("second reason");
  EXPECT_NE(gov.status().message().find("client went away"),
            std::string::npos);
}

// --- composite tokens: child governor layered over a session parent --------------

TEST(CompositeGovernorTest, ParentDeadlineSurvivesZeroChildOverlay) {
  // Regression for the serving layer's token composition: a per-query
  // overlay of `deadline_ms = 0` means "no additional limit" — it must NOT
  // erase the session-level deadline carried by the parent.
  ResourceGovernor::Limits session_limits;
  session_limits.deadline_ms = 1;
  ResourceGovernor session(session_limits);

  ResourceGovernor query;                    // per-query: no limits of its own
  query.Reset(ResourceGovernor::Limits{});   // explicit 0-overlay
  query.set_parent(&session);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Status s = query.Check();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(query.stopped());
  EXPECT_TRUE(session.stopped());

  // Reset with fresh limits keeps the parent link (pool reuse path).
  query.Reset(ResourceGovernor::Limits{});
  EXPECT_EQ(query.parent(), &session);
  EXPECT_FALSE(query.Check().ok());  // parent is still tripped
}

TEST(CompositeGovernorTest, ParentCancelPropagatesToChild) {
  ResourceGovernor session;
  ResourceGovernor query;
  query.set_parent(&session);
  EXPECT_TRUE(query.Check().ok());

  session.Cancel("session closed");
  const Status s = query.Check();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("session closed"), std::string::npos);
}

TEST(CompositeGovernorTest, ChargesForwardIntoParentAccount) {
  ResourceGovernor session;
  ResourceGovernor query;
  query.set_parent(&session);

  EXPECT_TRUE(query.Charge(1000).ok());
  EXPECT_EQ(query.stats().mem_current_bytes, 1000u);
  EXPECT_EQ(session.stats().mem_current_bytes, 1000u);
  EXPECT_TRUE(query.NoteTransient(500).ok());
  EXPECT_GE(session.stats().mem_peak_bytes, 1500u);
  query.Release(1000);
  EXPECT_EQ(query.stats().mem_current_bytes, 0u);
  EXPECT_EQ(session.stats().mem_current_bytes, 0u);

  // The parent's budget bounds the composite: a child with no budget of its
  // own still trips when the aggregate account exceeds the session's.
  ResourceGovernor::Limits tight;
  tight.mem_budget_bytes = 512;
  ResourceGovernor tight_session(tight);
  ResourceGovernor child;
  child.set_parent(&tight_session);
  const Status over = child.Charge(1024);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
}

TEST(CompositeGovernorTest, ChildBudgetTripKeepsParentAccountBalanced) {
  // Regression: Charge() used to return early when the *child's* own budget
  // tripped, skipping the parent charge — while Release() always forwarded.
  // The caller's scoped unwind then released bytes the session governor was
  // never charged, wrapping its live-byte account to ~2^64 and poisoning
  // every later query of that session with ResourceExhausted.
  ResourceGovernor::Limits session_limits;
  session_limits.mem_budget_bytes = std::size_t{1} << 20;
  ResourceGovernor session(session_limits);

  ResourceGovernor::Limits query_limits;
  query_limits.mem_budget_bytes = 512;
  ResourceGovernor query(query_limits);
  query.set_parent(&session);

  // Trip the child budget; the charge must stick in BOTH accounts.
  const Status over = query.Charge(1024);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(query.stats().mem_current_bytes, 1024u);
  EXPECT_EQ(session.stats().mem_current_bytes, 1024u);
  EXPECT_FALSE(session.stopped());  // only the per-query budget blew

  // The unwind drains both accounts to exactly zero — no underflow.
  query.Release(1024);
  EXPECT_EQ(query.stats().mem_current_bytes, 0u);
  EXPECT_EQ(session.stats().mem_current_bytes, 0u);

  // The session is not poisoned: the next pooled query charges and
  // releases cleanly under the session budget.
  query.Reset(query_limits);
  EXPECT_TRUE(query.Charge(256).ok());
  EXPECT_TRUE(session.Check().ok());
  query.Release(256);
  EXPECT_EQ(session.stats().mem_current_bytes, 0u);
}

TEST(ResourceGovernorTest, ScopedChargeReleasesOnDestruction) {
  ResourceGovernor gov;
  {
    ScopedCharge charge;
    EXPECT_TRUE(charge.Add(&gov, 300).ok());
    EXPECT_TRUE(charge.Add(&gov, 200).ok());
    EXPECT_EQ(gov.stats().mem_current_bytes, 500u);
    EXPECT_EQ(charge.bytes(), 500u);
  }
  EXPECT_EQ(gov.stats().mem_current_bytes, 0u);
  EXPECT_EQ(gov.stats().mem_peak_bytes, 500u);

  // Null governor: a no-op at every call site.
  ScopedCharge noop;
  EXPECT_TRUE(noop.Add(nullptr, 12345).ok());
}

// --- ThreadPool: exception containment + cancellation ----------------------------

TEST(ThreadPoolTest, KernelExceptionRethrownOnCallerAndPoolSurvives) {
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(1000, 10,
                         [](std::size_t chunk, std::size_t, std::size_t) {
                           if (chunk == 3) {
                             throw std::runtime_error("kernel bug");
                           }
                         }),
        std::runtime_error)
        << threads << " threads";

    // The pool must stay fully usable: a subsequent sweep covers every
    // index exactly once and no worker deadlocked on the failed task.
    const std::size_t total = 5000;
    std::vector<std::atomic<int>> hits(total);
    pool.ParallelFor(total, 64, [&](std::size_t, std::size_t begin,
                                    std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPoolTest, FirstExceptionWinsAcrossChunks) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(400, 1, [](std::size_t, std::size_t, std::size_t) {
      throw std::runtime_error("boom");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ThreadPoolTest, CancelTokenSkipsRemainingChunks) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::atomic<bool> cancel{false};
    pool.set_cancel_token(&cancel);
    std::atomic<std::size_t> executed{0};
    // Serial grain with an early trip: later chunks must be skipped, so the
    // executed count stays well short of the total.
    pool.ParallelFor(100'000, 1,
                     [&](std::size_t chunk, std::size_t, std::size_t) {
                       executed.fetch_add(1);
                       if (chunk == 0) cancel.store(true);
                     });
    EXPECT_LT(executed.load(), 100'000u) << threads << " threads";
    pool.set_cancel_token(nullptr);

    // With the token cleared the pool runs everything again.
    std::atomic<std::size_t> full{0};
    pool.ParallelFor(1000, 10, [&](std::size_t, std::size_t begin,
                                   std::size_t end) {
      full.fetch_add(end - begin);
    });
    EXPECT_EQ(full.load(), 1000u);
  }
}

TEST(ThreadPoolTest, DefaultThreadsClampsAbsurdEnvValues) {
  const char* saved = std::getenv("BVQ_THREADS");
  const std::string saved_copy = saved ? saved : "";

  ::setenv("BVQ_THREADS", "1000000", 1);
  const std::size_t clamped = ThreadPool::DefaultThreads();
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  EXPECT_LE(clamped, hw * ThreadPool::kMaxOversubscription);
  EXPECT_GE(clamped, 1u);

  // Sane values pass through untouched.
  ::setenv("BVQ_THREADS", "2", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 2u);

  if (saved) {
    ::setenv("BVQ_THREADS", saved_copy.c_str(), 1);
  } else {
    ::unsetenv("BVQ_THREADS");
  }
}

// --- governed evaluation: trips surface, reruns stay deterministic ---------------

constexpr char kTcQuery[] =
    "(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & "
    "exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)";

Database CycleDb(std::size_t n) {
  Database db(n);
  Status s = db.AddRelation("E", CycleGraph(n));
  EXPECT_TRUE(s.ok());
  return db;
}

TEST(GovernedEvalTest, CancelledRunErrorsThenRerunMatchesUngoverned) {
  Database db = CycleDb(12);
  auto query = ParseQuery(kTcQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  BoundedEvalOptions opts;
  opts.num_threads = 4;
  BoundedEvaluator ungoverned(db, 3, opts);
  auto expected = ungoverned.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ResourceGovernor gov;
  gov.Cancel("test cancellation");
  BoundedEvaluator eval(db, 3, opts);
  eval.set_governor(&gov);
  auto cancelled = eval.EvaluateQuery(*query);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  // Nothing stays charged once the public call unwinds.
  EXPECT_EQ(gov.stats().mem_current_bytes, 0u);

  // The same evaluator, governor removed, must produce the byte-identical
  // answer: no partial state from the cancelled sweep may survive.
  eval.set_governor(nullptr);
  auto rerun = eval.EvaluateQuery(*query);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(*rerun, *expected);
}

TEST(GovernedEvalTest, TinyBudgetTripsWithResourceExhausted) {
  Database db = CycleDb(12);
  auto query = ParseQuery(kTcQuery);
  ASSERT_TRUE(query.ok());

  ResourceGovernor::Limits limits;
  limits.mem_budget_bytes = 16;  // far below one n^3 cube
  ResourceGovernor gov(limits);
  BoundedEvalOptions opts;
  opts.governor = &gov;
  BoundedEvaluator eval(db, 3, opts);
  auto result = eval.EvaluateQuery(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(gov.stopped());
  EXPECT_EQ(gov.stats().mem_current_bytes, 0u);
}

TEST(GovernedEvalTest, GenerousBudgetIsByteIdenticalAndReportsPeak) {
  Database db = CycleDb(12);
  auto query = ParseQuery(kTcQuery);
  ASSERT_TRUE(query.ok());

  BoundedEvaluator ungoverned(db, 3);
  auto expected = ungoverned.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok());

  ResourceGovernor::Limits limits;
  limits.mem_budget_bytes = std::size_t{256} << 20;
  limits.deadline_ms = 60'000;
  ResourceGovernor gov(limits);
  BoundedEvalOptions opts;
  opts.governor = &gov;
  BoundedEvaluator eval(db, 3, opts);
  auto got = eval.EvaluateQuery(*query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);

  const ResourceStats stats = gov.stats();
  EXPECT_FALSE(stats.stopped);
  EXPECT_GT(stats.mem_peak_bytes, 0u);
  EXPECT_GT(stats.mem_predicted_bytes, 0u);
  EXPECT_GT(stats.checks, 0u);
  EXPECT_EQ(stats.mem_current_bytes, 0u);  // scoped release on return
  // The prediction is an upper-bound model: the observed peak stays under
  // it on this workload (no hash history, modest memo population).
  EXPECT_LE(stats.mem_peak_bytes, stats.mem_predicted_bytes);
}

TEST(GovernedEvalTest, PfpFloydHonoursCancellationAndRerunsClean) {
  // PFP binary counter over a strict order: 2^n-cycle orbit, Floyd mode.
  Database db(8);
  RelationBuilder lt(2);
  for (Value i = 0; i < 8; ++i) {
    for (Value j = i + 1; j < 8; ++j) lt.Add(Tuple{i, j});
  }
  ASSERT_TRUE(db.AddRelation("Lt", lt.Build()).ok());
  auto query = ParseQuery(
      "(x1) [pfp X(x1) . !(X(x1) <-> forall x2 . (Lt(x2,x1) -> "
      "X(x2)))](x1)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  BoundedEvalOptions opts;
  opts.pfp_cycle_detection = PfpCycleDetection::kFloyd;
  opts.num_threads = 2;
  BoundedEvaluator ungoverned(db, 2, opts);
  auto expected = ungoverned.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  ResourceGovernor gov;
  gov.Cancel("test cancellation");
  BoundedEvaluator eval(db, 2, opts);
  eval.set_governor(&gov);
  auto cancelled = eval.EvaluateQuery(*query);
  ASSERT_FALSE(cancelled.ok());

  eval.set_governor(nullptr);
  auto rerun = eval.EvaluateQuery(*query);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(*rerun, *expected);
}

TEST(GovernedEvalTest, NaiveEvaluatorHonoursGovernor) {
  Database db = CycleDb(6);
  auto query = ParseQuery(
      "(x1,x2) exists x3 . (E(x1,x3) & E(x3,x2))");
  ASSERT_TRUE(query.ok());

  NaiveEvaluator ungoverned(db);
  auto expected = ungoverned.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok());

  ResourceGovernor gov;
  gov.Cancel("test cancellation");
  NaiveEvaluator eval(db);
  eval.set_governor(&gov);
  auto cancelled = eval.EvaluateQuery(*query);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  eval.set_governor(nullptr);
  auto rerun = eval.EvaluateQuery(*query);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(*rerun, *expected);
}

// --- governed ESO + SAT ----------------------------------------------------------

constexpr char kEsoFormula[] =
    "exists2 S/1 . (S(x1) & S(x2) & "
    "(forall x1 . forall x2 . (E(x1,x2) -> !(S(x1) & S(x2)))))";

TEST(GovernedEsoTest, IncrementalSweepHonoursCancellationAndRerunsClean) {
  Database db = CycleDb(6);
  auto f = ParseFormula(kEsoFormula);
  ASSERT_TRUE(f.ok()) << f.status().ToString();

  for (bool incremental : {true, false}) {
    EsoEvalOptions opts;
    opts.incremental = incremental;
    EsoEvaluator ungoverned(db, 2, opts);
    auto expected = ungoverned.Evaluate(*f);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    ResourceGovernor gov;
    gov.Cancel("test cancellation");
    EsoEvaluator eval(db, 2, opts);
    eval.set_governor(&gov);
    auto cancelled = eval.Evaluate(*f);
    ASSERT_FALSE(cancelled.ok()) << (incremental ? "incremental" : "scratch");
    EXPECT_EQ(gov.stats().mem_current_bytes, 0u);

    eval.set_governor(nullptr);
    auto rerun = eval.Evaluate(*f);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(*rerun, *expected)
        << (incremental ? "incremental" : "scratch");
  }
}

TEST(GovernedEsoTest, GenerousLimitsAreByteIdenticalWithPeak) {
  Database db = CycleDb(6);
  auto f = ParseFormula(kEsoFormula);
  ASSERT_TRUE(f.ok());

  EsoEvaluator ungoverned(db, 2);
  auto expected = ungoverned.Evaluate(*f);
  ASSERT_TRUE(expected.ok());

  ResourceGovernor::Limits limits;
  limits.mem_budget_bytes = std::size_t{256} << 20;
  ResourceGovernor gov(limits);
  EsoEvalOptions opts;
  opts.governor = &gov;
  EsoEvaluator eval(db, 2, opts);
  auto got = eval.Evaluate(*f);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
  EXPECT_GT(gov.stats().mem_peak_bytes, 0u);
  EXPECT_FALSE(gov.stats().stopped);
}

TEST(GovernedSatTest, SolverReturnsInterruptedOnTrippedGovernor) {
  sat::Cnf cnf;
  const int a = cnf.NewVar();
  const int b = cnf.NewVar();
  cnf.AddBinary(sat::Lit(a, false), sat::Lit(b, false));
  cnf.AddBinary(sat::Lit(a, true), sat::Lit(b, false));

  ResourceGovernor gov;
  gov.Cancel("test cancellation");
  sat::SolverOptions opts;
  opts.governor = &gov;
  sat::Solver solver(opts);
  const sat::SolveResult result = solver.Solve(cnf);
  EXPECT_EQ(result.status, sat::SolveStatus::kInterrupted);

  // Without a trip the same instance solves normally, and the clause bytes
  // it charged are released when the solver dies.
  ResourceGovernor fresh;
  sat::SolverOptions ok_opts;
  ok_opts.governor = &fresh;
  {
    sat::Solver ok_solver(ok_opts);
    EXPECT_EQ(ok_solver.Solve(cnf).status, sat::SolveStatus::kSat);
    EXPECT_GT(fresh.stats().mem_current_bytes, 0u);
  }
  EXPECT_EQ(fresh.stats().mem_current_bytes, 0u);
}

}  // namespace
}  // namespace bvq
