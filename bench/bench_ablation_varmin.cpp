// Ablation A: "variable minimization as a query optimization methodology"
// (the paper's conclusion) and the introduction's intermediate-size
// argument, measured head-to-head on conjunctive queries:
//
//   - chain queries: naive left-to-right joins vs. Yannakakis vs. the
//     variable-minimized FO^3 rewriting run on the bounded evaluator;
//   - the EMP/MGR/SCY/SAL salary query from the introduction, naive vs.
//     minimized, over growing companies;
//   - planning cost: exact minimum-width search vs. the min-degree
//     heuristic.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "optimizer/acyclic.h"
#include "optimizer/conjunctive_query.h"
#include "optimizer/variable_min.h"

namespace {

using namespace bvq;
using namespace bvq::optimizer;

Database ChainDb(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  Database db(n);
  Status s = db.AddRelation(
      "R", RandomGraph(n, 2.5 / static_cast<double>(n), rng));
  assert(s.ok());
  (void)s;
  return db;
}

void BM_Chain_NaiveJoins(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Database db = ChainDb(40, 5);
  ConjunctiveQuery cq = ChainQuery(len, "R");
  CqEvalStats stats;
  for (auto _ : state) {
    stats = CqEvalStats();
    auto r = EvaluateCqNaive(cq, db, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["max_tuples"] =
      static_cast<double>(stats.max_intermediate_tuples);
  state.counters["max_arity"] =
      static_cast<double>(stats.max_intermediate_arity);
}
BENCHMARK(BM_Chain_NaiveJoins)->DenseRange(2, 6, 2)->Unit(
    benchmark::kMicrosecond);

void BM_Chain_Yannakakis(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Database db = ChainDb(40, 5);
  ConjunctiveQuery cq = ChainQuery(len, "R");
  YannakakisStats stats;
  for (auto _ : state) {
    stats = YannakakisStats();
    auto r = EvaluateYannakakis(cq, db, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["max_tuples"] =
      static_cast<double>(stats.max_intermediate_tuples);
  state.counters["semijoins"] = static_cast<double>(stats.semijoins);
}
BENCHMARK(BM_Chain_Yannakakis)->DenseRange(2, 6, 2)->Unit(
    benchmark::kMicrosecond);

void BM_Chain_VariableMinimized(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Database db = ChainDb(40, 5);
  ConjunctiveQuery cq = ChainQuery(len, "R");
  auto plan = ExactMinWidthOrder(cq);
  if (!plan.ok()) {
    state.SkipWithError("planning failed");
    return;
  }
  auto rewrite = RewriteWithFewVariables(cq, plan->order);
  if (!rewrite.ok()) {
    state.SkipWithError("rewrite failed");
    return;
  }
  for (auto _ : state) {
    BoundedEvaluator eval(db, rewrite->num_vars, bvq_bench::EvalOptions());
    auto r = eval.EvaluateQuery(rewrite->query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["k"] = static_cast<double>(rewrite->num_vars);
}
BENCHMARK(BM_Chain_VariableMinimized)
    ->DenseRange(2, 6, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_Chain_EliminationJoins(benchmark::State& state) {
  // The same minimum-width plan executed with sparse relational operators
  // (bucket elimination): bounded-arity intermediates whose size scales
  // with the data rather than with n^k.
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  Database db = ChainDb(40, 5);
  ConjunctiveQuery cq = ChainQuery(len, "R");
  auto plan = ExactMinWidthOrder(cq);
  if (!plan.ok()) {
    state.SkipWithError("planning failed");
    return;
  }
  CqEvalStats stats;
  for (auto _ : state) {
    stats = CqEvalStats();
    auto r = EvaluateByElimination(cq, plan->order, db, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["max_tuples"] =
      static_cast<double>(stats.max_intermediate_tuples);
  state.counters["max_arity"] =
      static_cast<double>(stats.max_intermediate_arity);
}
BENCHMARK(BM_Chain_EliminationJoins)
    ->DenseRange(2, 6, 2)
    ->Unit(benchmark::kMicrosecond);

// --- the introduction's example -------------------------------------------------

const char* kSalaryQuery =
    "Q(E) :- EMP(E,D), MGR(D,M), SCY(M,C), SAL(E,S1), SAL(C,S2), LT(S1,S2).";

void BM_Intro_NaiveJoins(benchmark::State& state) {
  const std::size_t employees = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  Database db = EmployeeDatabase(employees, employees / 8 + 1, 24, rng);
  auto cq = ParseCq(kSalaryQuery);
  if (!cq.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  // A deliberately bad atom order (joins the secretary's salary before
  // connecting the secretary), standing in for the "cross product first"
  // strategy of the paper's introduction.
  std::swap(cq->atoms[1], cq->atoms[4]);
  CqEvalStats stats;
  for (auto _ : state) {
    stats = CqEvalStats();
    auto r = EvaluateCqNaive(*cq, db, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["max_tuples"] =
      static_cast<double>(stats.max_intermediate_tuples);
  state.counters["max_arity"] =
      static_cast<double>(stats.max_intermediate_arity);
}
BENCHMARK(BM_Intro_NaiveJoins)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->Unit(benchmark::kMicrosecond);

void BM_Intro_VariableMinimized(benchmark::State& state) {
  const std::size_t employees = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  Database db = EmployeeDatabase(employees, employees / 8 + 1, 24, rng);
  auto cq = ParseCq(kSalaryQuery);
  auto plan = ExactMinWidthOrder(*cq);
  if (!plan.ok()) {
    state.SkipWithError("planning failed");
    return;
  }
  auto rewrite = RewriteWithFewVariables(*cq, plan->order);
  if (!rewrite.ok()) {
    state.SkipWithError("rewrite failed");
    return;
  }
  for (auto _ : state) {
    BoundedEvaluator eval(db, rewrite->num_vars, bvq_bench::EvalOptions());
    auto r = eval.EvaluateQuery(rewrite->query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["k"] = static_cast<double>(rewrite->num_vars);
}
BENCHMARK(BM_Intro_VariableMinimized)
    ->RangeMultiplier(2)
    ->Range(32, 128)
    ->Unit(benchmark::kMicrosecond);

void BM_Intro_EliminationJoins(benchmark::State& state) {
  const std::size_t employees = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  Database db = EmployeeDatabase(employees, employees / 8 + 1, 24, rng);
  auto cq = ParseCq(kSalaryQuery);
  auto plan = ExactMinWidthOrder(*cq);
  if (!plan.ok()) {
    state.SkipWithError("planning failed");
    return;
  }
  CqEvalStats stats;
  for (auto _ : state) {
    stats = CqEvalStats();
    auto r = EvaluateByElimination(*cq, plan->order, db, &stats);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["max_tuples"] =
      static_cast<double>(stats.max_intermediate_tuples);
  state.counters["max_arity"] =
      static_cast<double>(stats.max_intermediate_arity);
}
BENCHMARK(BM_Intro_EliminationJoins)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->Unit(benchmark::kMicrosecond);

// --- planning cost ----------------------------------------------------------------

void BM_Planning_Exact(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  Rng rng(19);
  ConjunctiveQuery cq = RandomCq(vars, vars + 2, 1, "R", rng);
  for (auto _ : state) {
    auto plan = ExactMinWidthOrder(cq);
    if (!plan.ok()) state.SkipWithError("planning failed");
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_Planning_Exact)->DenseRange(4, 12, 2)->Unit(
    benchmark::kMicrosecond);

void BM_Planning_MinDegree(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  Rng rng(19);
  ConjunctiveQuery cq = RandomCq(vars, vars + 2, 1, "R", rng);
  std::size_t width = 0;
  for (auto _ : state) {
    EliminationPlan plan = MinDegreeOrder(cq);
    width = plan.width;
    benchmark::DoNotOptimize(plan);
  }
  state.counters["width"] = static_cast<double>(width);
}
BENCHMARK(BM_Planning_MinDegree)
    ->DenseRange(4, 12, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BVQ_BENCHMARK_MAIN();
