// Table 2 of the paper (combined complexity of bounded-variable queries),
// reproduced as scaling behaviour. One series per table row:
//
//   FO^k  : PTIME-complete  -> Path-Systems instances (Proposition 3.2's
//           hard family!) where BOTH the database and the FO^3 formula
//           grow with n; time stays polynomial.
//   FP^k  : NP cap co-NP    -> alternating fixpoint families: the naive
//           nested evaluation performs ~n^{kl} body evaluations, while
//           checking a Theorem 3.5 certificate needs only ~l*n^k; the
//           counters expose both.
//   ESO^k : NP-complete     -> 3-colorability via grounding + CDCL; time
//           grows with n but the grounding stays polynomial (Lemma 3.6's
//           cell-counting at work: so_cells is polynomial in n).
//   PFP^k : PSPACE-complete -> combined hardness via QBF (exponential in
//           the prefix length l over the FIXED database B0) next to
//           polynomial data-side scaling of a fixed PFP query.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/certificate.h"
#include "eval/eso_eval.h"
#include "logic/parser.h"
#include "reductions/path_systems.h"
#include "reductions/qbf.h"

namespace {

using namespace bvq;

// --- FO^k row ------------------------------------------------------------------

void BM_FOk_PathSystems(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7 + n);
  PathSystem ps = RandomPathSystem(n, 1.2, 2, 2, rng);
  Database db = ps.ToDatabase();
  // Combined complexity: the formula is unfolded n times, so input size
  // ~ |B| + |e| both grow with n.
  FormulaPtr sentence = PathSystemSentence(n);
  bool accepted = false;
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(sentence);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    accepted = !r->Empty();
    benchmark::DoNotOptimize(r);
  }
  if (accepted != ps.Accepts()) state.SkipWithError("wrong answer");
  state.counters["formula_size"] = static_cast<double>(sentence->Size());
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FOk_PathSystems)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

// --- FP^k row ------------------------------------------------------------------

// Alternating families over 3 variables with alternation depth l = 1..3.
FormulaPtr AlternatingFamily(std::size_t depth) {
  switch (depth) {
    case 1:
      // reach-to-P
      return *ParseFormula(
          "[lfp T(x1) . P(x1) | exists x2 . (E(x1,x2) & T(x2))](x1)");
    case 2:
      // Buchi: a path visiting P infinitely often
      return *ParseFormula(
          "[gfp S(x1) . [lfp T(x2) . exists x3 . (E(x2,x3) & "
          "(P(x3) & S(x3) | T(x3)))](x1)](x1)");
    default:
      // depth 3: mu-nu-mu
      return *ParseFormula(
          "[lfp U(x1) . Q(x1) | [gfp S(x1) . [lfp T(x2) . exists x3 . "
          "(E(x2,x3) & (P(x3) & S(x3) & U(x3) | T(x3)))](x1)](x1)](x1)");
  }
}

Database AlternationDb(std::size_t n, uint64_t seed) {
  // A long path with P everywhere and Q at the sink makes every level of
  // the alternating family converge slowly: the inner reach fixpoints
  // walk the path (Theta(n) stages) and the outer gfp sheds one node per
  // stage, so naive nesting costs Theta(n^2) body evaluations at depth 2
  // and more at depth 3 — the n^{kl} behaviour Section 3.2 starts from.
  (void)seed;
  Database db(n);
  // Path with a self-loop at the sink (so infinite runs exist and the
  // greatest fixpoints have non-trivial values/witnesses).
  Relation path = PathGraph(n);
  path.Insert({static_cast<Value>(n - 1), static_cast<Value>(n - 1)});
  Status s = db.AddRelation("E", path);
  assert(s.ok());
  // P holds everywhere except the sink, so the outer greatest fixpoints
  // shed one node per stage (slow convergence) instead of accepting
  // immediately.
  RelationBuilder p(1);
  for (std::size_t v = 0; v + 1 < n; ++v) {
    Value val = static_cast<Value>(v);
    p.Add(&val);
  }
  s = db.AddRelation("P", p.Build());
  assert(s.ok());
  RelationBuilder q(1);
  Value sink = static_cast<Value>(n - 1);
  q.Add(&sink);
  s = db.AddRelation("Q", q.Build());
  assert(s.ok());
  (void)s;
  return db;
}

void BM_FPk_NaiveNestedEvaluation(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Database db = AlternationDb(n, 100 + depth);
  FormulaPtr f = AlternatingFamily(depth);
  std::size_t iters = 0;
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(f);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    iters = eval.stats().fixpoint_iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["alternation_depth"] = static_cast<double>(depth);
  state.counters["body_evals"] = static_cast<double>(iters);
}
BENCHMARK(BM_FPk_NaiveNestedEvaluation)
    ->ArgsProduct({{1, 2, 3}, {8, 16, 24}})
    ->Unit(benchmark::kMicrosecond);

void BM_FPk_CertificateVerification(benchmark::State& state) {
  // Theorem 3.5: the verifier's body evaluations are bounded by ~l * n^k,
  // an exponential improvement over n^{kl} naive nesting. Certificate
  // generation (the "guess") happens once, outside the timed region.
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Database db = AlternationDb(n, 100 + depth);
  FormulaPtr f = AlternatingFamily(depth);
  CertificateSystem sys(db, 3);
  auto cert = sys.Generate(f);
  if (!cert.ok()) {
    state.SkipWithError(cert.status().ToString().c_str());
    return;
  }
  std::size_t body_evals = 0;
  for (auto _ : state) {
    sys.ResetStats();
    auto r = sys.Verify(f, *cert);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    body_evals = sys.stats().body_evals;
    benchmark::DoNotOptimize(r);
  }
  state.counters["alternation_depth"] = static_cast<double>(depth);
  state.counters["body_evals"] = static_cast<double>(body_evals);
  state.counters["witness_sets"] =
      static_cast<double>(sys.stats().witness_sets);
}
BENCHMARK(BM_FPk_CertificateVerification)
    ->ArgsProduct({{1, 2, 3}, {8, 16, 24}})
    ->Unit(benchmark::kMicrosecond);

// --- ESO^k row -------------------------------------------------------------------

void BM_ESOk_ThreeColoring(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  Database db(n);
  Status s = db.AddRelation(
      "E", RandomGraph(n, 3.0 / static_cast<double>(n), rng));
  assert(s.ok());
  (void)s;
  FormulaPtr query = *ParseFormula(
      "exists2 R/1 . exists2 G/1 . exists2 B/1 . "
      "(forall x1 . (R(x1) | G(x1) | B(x1))) & "
      "(forall x1 . forall x2 . (E(x1,x2) -> "
      "!(R(x1) & R(x2)) & !(G(x1) & G(x2)) & !(B(x1) & B(x2))))");
  std::size_t cells = 0, clauses = 0;
  for (auto _ : state) {
    EsoEvaluator eval(db, 2);
    auto r = eval.HoldsSentence(query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    cells = eval.stats().so_cells;
    clauses = eval.stats().cnf_clauses;
    benchmark::DoNotOptimize(r);
  }
  state.counters["so_cells"] = static_cast<double>(cells);
  state.counters["cnf_clauses"] = static_cast<double>(clauses);
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ESOk_ThreeColoring)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

// --- PFP^k row -------------------------------------------------------------------

void BM_PFPk_QbfCombinedHardness(benchmark::State& state) {
  // Fixed database B0; PFP^1 formulas from QBFs of growing prefix length.
  // Time is exponential in l: this is the PSPACE-completeness row.
  const std::size_t l = static_cast<std::size_t>(state.range(0));
  // The parity family forces both branches at every level: the canonical
  // exponential case.
  Qbf qbf = ParityQbf(l);
  auto pfp = QbfToPfp(qbf);
  if (!pfp.ok()) {
    state.SkipWithError(pfp.status().ToString().c_str());
    return;
  }
  Database b0 = QbfFixedDatabase();
  std::size_t stages = 0;
  for (auto _ : state) {
    BoundedEvaluator eval(b0, 1, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(*pfp);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    stages = eval.stats().fixpoint_iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["prefix_len"] = static_cast<double>(l);
  state.counters["pfp_stages"] = static_cast<double>(stages);
}
BENCHMARK(BM_PFPk_QbfCombinedHardness)
    ->DenseRange(2, 14, 2)
    ->Unit(benchmark::kMicrosecond);

void BM_PFPk_DataSideIsPolynomial(benchmark::State& state) {
  // The same language with a FIXED query: polynomial in n (the data
  // complexity the combined complexity collapses toward).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  Database db(n);
  Status s = db.AddRelation(
      "E", RandomGraph(n, 4.0 / static_cast<double>(n), rng));
  assert(s.ok());
  (void)s;
  FormulaPtr query = *ParseFormula(
      "[pfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . "
      "(x1 = x3 & T(x1,x2)))](x1,x2)");
  for (auto _ : state) {
    BoundedEvaluator eval(db, 3, bvq_bench::EvalOptions());
    auto r = eval.Evaluate(query);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_PFPk_DataSideIsPolynomial)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BVQ_BENCHMARK_MAIN();
