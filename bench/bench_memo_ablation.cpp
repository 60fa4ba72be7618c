// Memo ablation: the dependency-aware subformula memo on vs. off
// (BoundedEvalOptions::memo), on fixpoint workloads whose bodies carry a
// non-trivial loop-invariant subtree. Without the memo every iteration
// re-evaluates the invariant conjuncts over the full n^k cube; with it they
// are computed once and every later request is a table hit
// (stats().invariant_hoists counts exactly those).
//
//   bench_memo_ablation [--n=40] [--reps=3] [--threads=1]
//                       [--out=BENCH_memo.json]
//
// Writes BENCH_memo.json (the speedup is median over median). Gate: every
// workload's memo-on and memo-off answers are byte-identical.

#include <optional>

#include "bench_common.h"

namespace {

using namespace bvq;

struct RunResult {
  bvq_bench::Spread ms;
  AssignmentSet answer;
  EvalStats stats;
};

RunResult Run(const Database& db, const FormulaPtr& f, bool memo,
              std::size_t threads, std::size_t reps) {
  BoundedEvalOptions opts;
  opts.memo = memo;
  opts.num_threads = threads;
  RunResult out;
  std::optional<BoundedEvaluator> eval;
  out.ms = bvq_bench::Time(
      reps, [&] { eval.emplace(db, 3, opts); },
      [&] { out.answer = bvq_bench::Must(eval->Evaluate(f), "eval"); });
  out.stats = eval->stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bvq_bench::Record rec("memo_ablation", 40, "BENCH_memo.json");
  const std::size_t& threads = rec.flags.Threads();
  rec.Parse(argc, argv);
  rec.config.Set("k", 3);

  const Database db = bvq_bench::LongPathDb(rec.n());
  for (const bvq_bench::Workload& w : bvq_bench::InvariantGuardWorkloads()) {
    const FormulaPtr f = bvq_bench::Must(ParseFormula(w.formula), w.name);
    const RunResult on = Run(db, f, /*memo=*/true, threads, rec.reps());
    const RunResult off = Run(db, f, /*memo=*/false, threads, rec.reps());
    const bool identical = on.answer == off.answer;
    rec.Gate(identical, w.name + ": memo on/off answers differ");
    rec.Row("workloads",
            bvq_bench::Json()
                .Set("name", w.name)
                .Set("memo_on_ms", on.ms)
                .Set("memo_off_ms", off.ms)
                .Set("speedup", off.ms.median / on.ms.median)
                .Set("memo_hits", on.stats.memo_hits)
                .Set("memo_misses", on.stats.memo_misses)
                .Set("invariant_hoists", on.stats.invariant_hoists)
                .Set("iterate_copies_avoided", on.stats.iterate_copies_avoided)
                .Set("identical", identical));
  }
  return rec.Finish();
}
