// Ablation B: the design choices inside the fixpoint engines.
//
//   - Footnote 5 of the paper: with monotone (non-alternating) nesting,
//     warm-starting inner fixpoints (kMonotoneReuse) replaces the naive
//     n^{kl} iteration count by ~l*n^k; measured on a nested-lfp family.
//   - Section 3.4 / Theorem 3.8: PFP limit detection by hash history
//     (fast, stores one hash per stage) vs. Floyd tortoise-and-hare (the
//     polynomial-space regime, ~3x the stage evaluations, O(1) memory).
//   - Section 1's application: mu-calculus model checking by a direct
//     state-set engine vs. through the FP^2 translation and the
//     bounded-variable query engine.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "logic/parser.h"
#include "mucalc/kripke.h"
#include "mucalc/mucalc.h"
#include "reductions/qbf.h"

namespace {

using namespace bvq;

// Monotone nesting: outer reach-to-P whose step is gated by an inner
// reach-to-S fixpoint (same polarity, so warm starts apply).
FormulaPtr MonotoneNested() {
  return *ParseFormula(
      "[lfp S(x1) . P(x1) | (exists x2 . (E(x1,x2) & S(x2))) & "
      "[lfp U(x2) . S(x2) | exists x3 . (E(x2,x3) & U(x3))](x1)](x1)");
}

void BM_Nested_NaiveRecomputation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Database db = bvq_bench::LongPathDb(n);
  FormulaPtr f = MonotoneNested();
  std::size_t iters = 0, hoists = 0;
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(f);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    iters = eval.stats().fixpoint_iterations;
    hoists = eval.stats().invariant_hoists;
    benchmark::DoNotOptimize(r);
  }
  state.counters["body_evals"] = static_cast<double>(iters);
  state.counters["invariant_hoists"] = static_cast<double>(hoists);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Nested_NaiveRecomputation)
    ->RangeMultiplier(2)
    ->Range(8, 32)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

void BM_Nested_MonotoneReuse(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Database db = bvq_bench::LongPathDb(n);
  FormulaPtr f = MonotoneNested();
  BoundedEvalOptions opts = bvq_bench::EvalOptions();
  opts.fixpoint_strategy = FixpointStrategy::kMonotoneReuse;
  std::size_t iters = 0, warm = 0, hoists = 0;
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, opts);
    auto r = eval.Evaluate(f);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    iters = eval.stats().fixpoint_iterations;
    warm = eval.stats().warm_starts;
    hoists = eval.stats().invariant_hoists;
    benchmark::DoNotOptimize(r);
  }
  state.counters["body_evals"] = static_cast<double>(iters);
  state.counters["warm_starts"] = static_cast<double>(warm);
  state.counters["invariant_hoists"] = static_cast<double>(hoists);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Nested_MonotoneReuse)
    ->RangeMultiplier(2)
    ->Range(8, 32)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

// --- PFP cycle detection ----------------------------------------------------------

void RunPfpMode(benchmark::State& state, PfpCycleDetection mode) {
  const std::size_t l = static_cast<std::size_t>(state.range(0));
  Rng rng(41 + l);
  Qbf qbf = RandomQbf(l, l + 2, rng);
  auto pfp = QbfToPfp(qbf);
  if (!pfp.ok()) {
    state.SkipWithError("reduction failed");
    return;
  }
  Database b0 = QbfFixedDatabase();
  BoundedEvalOptions opts = bvq_bench::EvalOptions();
  opts.pfp_cycle_detection = mode;
  std::size_t stages = 0;
  for (auto _ : state) {
    BoundedEvaluator eval(b0, 1, opts);
    auto r = eval.Evaluate(*pfp);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    stages = eval.stats().fixpoint_iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["stage_evals"] = static_cast<double>(stages);
}

void BM_Pfp_HashHistory(benchmark::State& state) {
  RunPfpMode(state, PfpCycleDetection::kHashHistory);
}
BENCHMARK(BM_Pfp_HashHistory)->DenseRange(2, 10, 2)->Unit(
    benchmark::kMicrosecond);

void BM_Pfp_Floyd(benchmark::State& state) {
  RunPfpMode(state, PfpCycleDetection::kFloyd);
}
// Floyd's 3 stage-evaluations per round compound multiplicatively through
// nested pfps (each outer step re-runs every inner pfp), so the sweep is
// kept short; the hash-history series above runs the same instances to
// l = 10 for contrast.
BENCHMARK(BM_Pfp_Floyd)->DenseRange(2, 6, 2)->Unit(
    benchmark::kMicrosecond);

// --- model checking engines ----------------------------------------------------------

mucalc::MuFormulaPtr BuchiProperty() {
  return *mucalc::ParseMuFormula("nu Z . mu W . <> ((p & Z) | W)");
}

void BM_ModelCheck_Direct(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(51);
  mucalc::KripkeStructure k =
      mucalc::RandomKripke(n, 3.0 / static_cast<double>(n), {"p"}, rng);
  mucalc::ModelChecker mc(k);
  auto f = BuchiProperty();
  for (auto _ : state) {
    auto r = mc.CheckDirect(f);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ModelCheck_Direct)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

void BM_ModelCheck_ViaFp2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(51);
  mucalc::KripkeStructure k =
      mucalc::RandomKripke(n, 3.0 / static_cast<double>(n), {"p"}, rng);
  mucalc::ModelChecker mc(k);
  auto f = BuchiProperty();
  for (auto _ : state) {
    auto r = mc.CheckViaFp2(f);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ModelCheck_ViaFp2)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BVQ_BENCHMARK_MAIN();
