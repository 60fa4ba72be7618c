// Table 3 of the paper (expression complexity of bounded-variable
// queries): the database is FIXED and only the expression grows.
//
//   FO^k  : drops from PTIME-complete (combined) to ALOGTIME — over a
//           fixed database an FO^k query is an expression over a finite
//           algebra (Lemma 4.2). Series: per-node evaluation cost of the
//           precomputed word-algebra evaluator stays constant and tiny as
//           |e| grows, next to the general evaluator whose per-node cost
//           carries n^k-sized bitset work; the Boolean formula value
//           problem (the ALOGTIME-hardness witness of Theorem 4.4) is
//           evaluated through its FO^1 reduction.
//   ESO^k : stays NP-hard even over a one-element database (Theorem 4.5):
//           random 3-CNF near the phase transition, reduced to ESO and
//           solved by grounding + CDCL; time grows superpolynomially with
//           the variable count.
//   PFP^k : stays PSPACE-hard over the fixed B0 (Theorem 4.6): QBF
//           expression sweep, exponential in the prefix length.

#include <benchmark/benchmark.h>

#include "algebra/boolean_value.h"
#include "bench_common.h"
#include "algebra/word_algebra.h"
#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/eso_eval.h"
#include "logic/random_formula.h"
#include "reductions/qbf.h"
#include "reductions/sat_to_eso.h"
#include "sat/cnf.h"

namespace {

using namespace bvq;

Database FixedDb() {
  // The fixed database for the FO^k rows: 2 elements, one binary and one
  // unary relation (n^k = 4 for k = 2).
  Database db(2);
  Status s =
      db.AddRelation("E", Relation::FromTuples(2, {{0, 1}, {1, 0}, {1, 1}}));
  assert(s.ok());
  s = db.AddRelation("P", Relation::FromTuples(1, {{1}}));
  assert(s.ok());
  (void)s;
  return db;
}

FormulaPtr RandomFoFormula(std::size_t size, uint64_t seed) {
  Rng rng(seed);
  RandomFormulaOptions opts;
  opts.num_vars = 2;
  opts.max_size = size;
  opts.predicates = {{"E", 2}, {"P", 1}};
  return RandomFormula(opts, rng);
}

void BM_FOk_FixedDb_WordAlgebra(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Database db = FixedDb();
  FormulaPtr f = RandomFoFormula(size, size);
  auto algebra = WordAlgebraEvaluator::Create(db, 2);
  if (!algebra.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  for (auto _ : state) {
    auto r = algebra->Evaluate(f);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["formula_size"] = static_cast<double>(f->Size());
  state.SetComplexityN(static_cast<int64_t>(f->Size()));
}
BENCHMARK(BM_FOk_FixedDb_WordAlgebra)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_FOk_FixedDb_GeneralEvaluator(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Database db = FixedDb();
  FormulaPtr f = RandomFoFormula(size, size);
  for (auto _ : state) {
    BoundedEvaluator eval(db, 2, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(f);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["formula_size"] = static_cast<double>(f->Size());
  state.SetComplexityN(static_cast<int64_t>(f->Size()));
}
BENCHMARK(BM_FOk_FixedDb_GeneralEvaluator)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_FOk_BooleanFormulaValue(benchmark::State& state) {
  // Theorem 4.4's hardness witness, run through its own reduction: a
  // constant Boolean formula becomes an FO^1 sentence over the fixed
  // database ({0,1}, P={1}).
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Rng rng(size);
  FormulaPtr f = RandomBooleanFormula(size, rng);
  auto sentence = BooleanFormulaToFoSentence(f);
  if (!sentence.ok()) {
    state.SkipWithError("reduction failed");
    return;
  }
  Database db = BooleanValueDatabase();
  auto algebra = WordAlgebraEvaluator::Create(db, 1);
  bool expected = *EvalBooleanFormula(f);
  for (auto _ : state) {
    auto r = algebra->Evaluate(*sentence);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    if ((*r != 0) != expected) state.SkipWithError("wrong value");
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(f->Size()));
}
BENCHMARK(BM_FOk_BooleanFormulaValue)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMicrosecond);

void BM_ESOk_FixedDb_Sat(benchmark::State& state) {
  // Theorem 4.5: propositional satisfiability embedded in ESO^k
  // expression complexity. Random 3-CNF at clause ratio 4.2 (near the
  // phase transition), over the one-element database.
  const int num_props = static_cast<int>(state.range(0));
  Rng rng(77 + num_props);
  sat::Cnf cnf;
  cnf.num_vars = num_props;
  const int clauses = static_cast<int>(4.2 * num_props);
  for (int c = 0; c < clauses; ++c) {
    sat::Clause clause;
    for (int j = 0; j < 3; ++j) {
      clause.push_back(sat::Lit(static_cast<int>(rng.Below(num_props)),
                                rng.Bernoulli(0.5)));
    }
    cnf.AddClause(clause);
  }
  auto eso = PropositionalToEso(CnfToFormula(cnf));
  if (!eso.ok()) {
    state.SkipWithError("reduction failed");
    return;
  }
  Database db = TrivialDatabase();
  uint64_t conflicts = 0;
  for (auto _ : state) {
    EsoEvaluator eval(db, 1);
    auto r = eval.HoldsSentence(*eso);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    conflicts = eval.stats().solver.conflicts;
    benchmark::DoNotOptimize(r);
  }
  state.counters["props"] = static_cast<double>(num_props);
  state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_ESOk_FixedDb_Sat)
    ->DenseRange(20, 120, 20)
    ->Unit(benchmark::kMillisecond);

void BM_PFPk_FixedDb_Qbf(benchmark::State& state) {
  // Theorem 4.6: expression complexity of PFP^1 over B0 is PSPACE-hard;
  // evaluation time is exponential in the quantifier prefix length.
  const std::size_t l = static_cast<std::size_t>(state.range(0));
  Rng rng(31 + l);
  Qbf qbf = RandomQbf(l, l + 3, rng);
  auto pfp = QbfToPfp(qbf);
  if (!pfp.ok()) {
    state.SkipWithError("reduction failed");
    return;
  }
  Database b0 = QbfFixedDatabase();
  for (auto _ : state) {
    BoundedEvaluator eval(b0, 1, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(*pfp);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["prefix_len"] = static_cast<double>(l);
  state.counters["formula_size"] = static_cast<double>((*pfp)->Size());
}
BENCHMARK(BM_PFPk_FixedDb_Qbf)
    ->DenseRange(2, 14, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BVQ_BENCHMARK_MAIN();
