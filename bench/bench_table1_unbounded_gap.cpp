// Table 1 of the paper (complexity of unrestricted query evaluation),
// reproduced as scaling behaviour.
//
// The table's content: for full FO/FP, expression and combined complexity
// (PSPACE / EXPTIME) are exponentially above data complexity (AC^0 /
// PTIME). The mechanism is intermediate-result blow-up: a query with v
// distinct variables can force arity-v intermediates of size n^v.
//
// Series reproduced here:
//   - DataComplexity_*: FIXED query, database size n sweeps -> polynomial
//     growth (the easy row of the table).
//   - ExpressionComplexity_NaiveChain: FIXED database, chain queries with
//     v fresh variables evaluated naively -> time and intermediate size
//     grow exponentially in v (the hard row).
//   - ExpressionComplexity_BoundedChain: the same queries rewritten into
//     FO^3 (Section 2.2's variable reuse) -> linear in v. The gap between
//     these two series IS the gap the paper explains.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/naive_eval.h"
#include "logic/builder.h"
#include "logic/parser.h"

namespace {

using namespace bvq;

Database RandomGraphDb(std::size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  Database db(n);
  Status s = db.AddRelation("E", RandomGraph(n, p, rng));
  assert(s.ok());
  (void)s;
  return db;
}

// Chain with fresh variables x1 -> x_{v} via v-1 hops (v variables total).
FormulaPtr FreshChain(std::size_t num_vars) {
  std::vector<FormulaPtr> hops;
  for (std::size_t i = 0; i + 1 < num_vars; ++i) {
    hops.push_back(Atom("E", {i, i + 1}));
  }
  FormulaPtr body = AndAll(std::move(hops));
  for (std::size_t i = num_vars - 1; i >= 1; --i) {
    body = Exists(i, body);
  }
  return body;
}

// Same query in FO^3.
FormulaPtr ReuseChain(std::size_t hops) {
  FormulaPtr phi = Atom("E", {0, 1});
  for (std::size_t i = 1; i < hops; ++i) {
    phi = Exists(2, And(Atom("E", {0, 2}), Exists(0, And(Eq(0, 2), phi))));
  }
  return Exists(1, phi);
}

// --- data complexity: fixed query, growing database ---------------------------

void BM_DataComplexity_FO3(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Database db = RandomGraphDb(n, 8.0 / static_cast<double>(n), 42);
  FormulaPtr query = *ParseFormula(
      "exists x3 . E(x1,x3) & exists x2 . (E(x3,x2) & !(E(x1,x2)))");
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DataComplexity_FO3)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oNCubed)
    ->Unit(benchmark::kMicrosecond);

void BM_DataComplexity_FP3_TransitiveClosure(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Database db = RandomGraphDb(n, 4.0 / static_cast<double>(n), 43);
  FormulaPtr query = *ParseFormula(
      "[lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . "
      "(x1 = x3 & T(x1,x2)))](x1,x2)");
  std::size_t iterations = 0;
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    iterations = eval.stats().fixpoint_iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["fixpoint_iters"] = static_cast<double>(iterations);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DataComplexity_FP3_TransitiveClosure)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

// --- expression complexity: fixed database, growing query ---------------------

void BM_ExpressionComplexity_NaiveChain(benchmark::State& state) {
  // Fixed database with 5 nodes and a dense-ish graph: the naive
  // evaluator materializes arity-v intermediates of up to 5^v tuples.
  const std::size_t num_vars = static_cast<std::size_t>(state.range(0));
  Database db = RandomGraphDb(5, 0.6, 44);
  FormulaPtr query = FreshChain(num_vars);
  std::size_t max_tuples = 0;
  for (auto _ : state) {
    NaiveEvaluator eval(db);
    auto r = eval.Evaluate(query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    max_tuples = eval.stats().max_intermediate_tuples;
    benchmark::DoNotOptimize(r);
  }
  state.counters["query_vars"] = static_cast<double>(num_vars);
  state.counters["max_intermediate_tuples"] =
      static_cast<double>(max_tuples);
}
BENCHMARK(BM_ExpressionComplexity_NaiveChain)
    ->DenseRange(3, 9, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_ExpressionComplexity_BoundedChain(benchmark::State& state) {
  const std::size_t num_vars = static_cast<std::size_t>(state.range(0));
  Database db = RandomGraphDb(5, 0.6, 44);
  FormulaPtr query = ReuseChain(num_vars - 1);  // same hops as FreshChain
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["query_vars"] = 3;
  state.counters["formula_size"] = static_cast<double>(query->Size());
}
BENCHMARK(BM_ExpressionComplexity_BoundedChain)
    ->DenseRange(3, 9, 1)
    ->Unit(benchmark::kMicrosecond);

// Equivalence spot check at startup (shapes mean nothing if the two
// series compute different answers).
struct SelfCheck {
  SelfCheck() {
    Database db = RandomGraphDb(5, 0.6, 44);
    for (std::size_t v = 3; v <= 6; ++v) {
      NaiveEvaluator naive(db);
      BoundedEvaluator bounded(db, 3);
      auto a = naive.Evaluate(FreshChain(v));
      auto b = bounded.Evaluate(ReuseChain(v - 1));
      if (!a.ok() || !b.ok() || a->rel != b->ToRelation({0})) {
        std::fprintf(stderr, "table1 self-check FAILED at v=%zu\n", v);
        std::abort();
      }
    }
  }
} self_check;

}  // namespace

BVQ_BENCHMARK_MAIN();
