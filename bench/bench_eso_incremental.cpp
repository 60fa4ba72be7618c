// ESO sweep ablation: incremental Evaluate (ground once, one solver, n^k
// assumption-based re-solves with a persistent learnt-clause database) vs
// the scratch baseline (fresh grounding + fresh solver per candidate
// tuple, EsoEvalOptions::incremental = false). The workloads carry free
// first-order variables so the sweep is a real n^k answer enumeration, and
// their matrices are dominated by closed subformulas — exactly the shape
// where regrounding per tuple repeats almost all of the work.
//
//   bench_eso_incremental [--n=14] [--reps=3] [--out=BENCH_eso.json]
//
// Writes BENCH_eso.json. Gate: every workload's incremental and scratch
// answers are byte-identical.

#include <optional>

#include "bench_common.h"
#include "eval/eso_eval.h"

namespace {

using namespace bvq;

constexpr std::size_t kNumVars = 2;

struct Workload {
  std::string name;
  bool cycle;  // E is the n-cycle, else the n-path
  std::string formula;
};

// The closed coloring / independence constraints are shared verbatim by
// every candidate tuple; only the S(x1)/S(x2) literals vary with the rank.
std::vector<Workload> Workloads() {
  return {
      {"independent_pair", true,
       "exists2 S/1 . (S(x1) & S(x2) & "
       "(forall x1 . forall x2 . (E(x1,x2) -> !(S(x1) & S(x2)))))"},
      {"two_coloring_split", true,
       "exists2 C/1 . (C(x1) & !C(x2) & "
       "(forall x1 . forall x2 . (E(x1,x2) -> "
       "((C(x1) & !C(x2)) | (!C(x1) & C(x2))))))"},
      {"selector_cover", false,
       "exists2 S/2 . (S(x1,x2) & "
       "(forall x1 . exists x2 . (S(x1,x2) & (E(x1,x2) | x1 = x2))) & "
       "(forall x1 . forall x2 . (S(x1,x2) -> (E(x1,x2) | x1 = x2))))"},
  };
}

struct RunResult {
  bvq_bench::Spread ms;
  AssignmentSet answer;
  EsoEvalStats stats;
};

RunResult Run(const Database& db, const FormulaPtr& f, bool incremental,
              std::size_t reps) {
  EsoEvalOptions opts;
  opts.incremental = incremental;
  RunResult out;
  std::optional<EsoEvaluator> eval;
  out.ms = bvq_bench::Time(
      reps, [&] { eval.emplace(db, kNumVars, opts); },
      [&] { out.answer = bvq_bench::Must(eval->Evaluate(f), "eval"); });
  out.stats = eval->stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bvq_bench::Record rec("eso_incremental", 14, "BENCH_eso.json");
  rec.Parse(argc, argv);
  rec.config.Set("k", kNumVars);

  for (const Workload& w : Workloads()) {
    const FormulaPtr f = bvq_bench::Must(ParseFormula(w.formula), w.name);
    Database db(rec.n());
    bvq_bench::Must(db.AddRelation("E", w.cycle ? CycleGraph(rec.n())
                                                : PathGraph(rec.n())),
                    "db");
    const RunResult inc = Run(db, f, /*incremental=*/true, rec.reps());
    const RunResult scratch = Run(db, f, /*incremental=*/false, rec.reps());
    const bool identical = inc.answer == scratch.answer;
    rec.Gate(identical, w.name + ": incremental/scratch answers differ");
    rec.Row("workloads",
            bvq_bench::Json()
                .Set("name", w.name)
                .Set("incremental_ms", inc.ms)
                .Set("scratch_ms", scratch.ms)
                .Set("speedup", scratch.ms.median / inc.ms.median)
                .Set("sat_calls", inc.stats.sat_calls)
                .Set("incremental_groundings", inc.stats.groundings)
                .Set("scratch_groundings", scratch.stats.groundings)
                .Set("incremental_conflicts", inc.stats.solver.conflicts)
                .Set("scratch_conflicts", scratch.stats.solver.conflicts)
                .Set("incremental_learned", inc.stats.solver.learned_clauses)
                .Set("deleted_clauses", inc.stats.solver.deleted_clauses)
                .Set("cnf_vars", inc.stats.cnf_vars)
                .Set("cnf_clauses", inc.stats.cnf_clauses)
                .Set("identical", identical));
  }
  return rec.Finish();
}
