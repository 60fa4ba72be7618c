// Memo ablation: the dependency-aware subformula memo on vs. off
// (BoundedEvalOptions::memo), on fixpoint workloads whose bodies carry a
// non-trivial loop-invariant subtree. Without the memo every iteration
// re-evaluates the invariant conjuncts over the full n^k cube; with it they
// are computed once and every later request is a table hit
// (stats().invariant_hoists counts exactly those).
//
// This harness uses a custom main (not google/benchmark) so it can emit the
// BENCH_memo.json record the perf trajectory is tracked with:
//
//   bench_memo_ablation [--n=40] [--reps=3] [--threads=1]
//                       [--out=BENCH_memo.json]
//
// Each configuration reports the median, min and max over its reps (the
// speedup is median over median), and the record names the host's cores.
// Every workload asserts that the memo-on and memo-off answers are
// byte-identical before any number is written; a mismatch aborts with exit
// code 1.

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/strings.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "logic/parser.h"

namespace {

using namespace bvq;

// Loop-invariant guard: every conjunct is independent of the recursion
// variable, and on a path graph each evaluates to the full cube, so the
// enclosing fixpoint computes plain reachability — but a memo-less
// evaluator pays a dozen kernel sweeps over n^k bits per iteration for it.
const char kInvariantGuard[] =
    "(forall x2 . exists x3 . (E(x2,x3) | x2 = x3)) & "
    "(forall x3 . exists x2 . (E(x2,x3) | x2 = x3)) & "
    "(exists x2 . exists x3 . E(x2,x3)) & "
    "(forall x2 . forall x3 . (E(x2,x3) -> !(x2 = x3)))";

struct Workload {
  std::string name;
  std::string formula;
};

std::vector<Workload> Workloads() {
  const std::string inv = kInvariantGuard;
  return {
      {"lfp_invariant_guard",
       "[lfp T(x1) . P(x1) | ((exists x2 . (E(x1,x2) & T(x2))) & (" + inv +
           "))](x1)"},
      {"nested_lfp_gfp",
       "[gfp G(x1) . (exists x2 . (E(x1,x2) & G(x2))) & "
       "[lfp T(x2) . P(x2) | exists x3 . (E(x2,x3) & T(x3))](x1) & (" +
           inv + ")](x1)"},
      {"ifp_invariant_guard",
       "[ifp I(x1) . P(x1) | ((exists x2 . (E(x1,x2) & I(x2))) & (" + inv +
           "))](x1)"},
      {"pfp_invariant_guard",
       "[pfp F(x1) . P(x1) | ((exists x2 . (E(x1,x2) & F(x2))) & (" + inv +
           "))](x1)"},
  };
}

Database LongPathDb(std::size_t n) {
  Database db(n);
  Status s = db.AddRelation("E", PathGraph(n));
  assert(s.ok());
  RelationBuilder p(1);
  Value last = static_cast<Value>(n - 1);
  p.Add(&last);
  s = db.AddRelation("P", p.Build());
  assert(s.ok());
  (void)s;
  return db;
}

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
  std::vector<double> times;
  for (std::size_t r = 0; r < reps; ++r) {
    BoundedEvaluator eval(db, 3, opts);
    const auto start = std::chrono::steady_clock::now();
    auto result = eval.Evaluate(f);
    const auto stop = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    times.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    out.answer = *result;
    out.stats = eval.stats();
  }
  out.ms = bvq_bench::SpreadOf(times);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 40;
  std::size_t reps = 3;
  std::size_t threads = 1;
  std::string out_path = "BENCH_memo.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg.rfind("--n=", 0) == 0) {
      ok = ParseSizeT(arg.substr(4), &n);
    } else if (arg.rfind("--reps=", 0) == 0) {
      ok = ParseSizeT(arg.substr(7), &reps);
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = ParseSizeT(arg.substr(10), &threads);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: bench_memo_ablation [--n=N] [--reps=R] "
                   "[--threads=T] [--out=PATH]\n");
      return 1;
    }
  }
  if (reps == 0) reps = 1;

  Database db = LongPathDb(n);
  std::string json = "{\n  \"bench\": \"memo_ablation\",\n";
  json += "  \"config\": {\n";
  json += "    \"domain_size\": " + std::to_string(n) + ",\n";
  json += "    \"k\": 3,\n";
  json += "    \"threads\": " + std::to_string(threads) + ",\n";
  json += "    \"reps\": " + std::to_string(reps) + ",\n";
  json += "    \"host_cores\": " + std::to_string(bvq_bench::HostCores()) +
          "\n  },\n";
  json += "  \"workloads\": [\n";

  bool all_identical = true;
  const auto workloads = Workloads();
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    auto f = ParseFormula(workloads[w].formula);
    if (!f.ok()) {
      std::fprintf(stderr, "parse failed (%s): %s\n",
                   workloads[w].name.c_str(),
                   f.status().ToString().c_str());
      return 1;
    }
    RunResult on = Run(db, *f, /*memo=*/true, threads, reps);
    RunResult off = Run(db, *f, /*memo=*/false, threads, reps);
    const bool identical = on.answer == off.answer;
    all_identical = all_identical && identical;
    const double speedup =
        on.ms.median > 0 ? off.ms.median / on.ms.median : 0;
    std::printf(
        "%-22s memo-on %8.3f ms [%.3f, %.3f]   memo-off %8.3f ms "
        "[%.3f, %.3f]   speedup %5.2fx   hits %zu  hoists %zu  "
        "copies-avoided %zu  %s\n",
        workloads[w].name.c_str(), on.ms.median, on.ms.min, on.ms.max,
        off.ms.median, off.ms.min, off.ms.max, speedup, on.stats.memo_hits,
        on.stats.invariant_hoists, on.stats.iterate_copies_avoided,
        identical ? "identical" : "MISMATCH");
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ", \"speedup\": %.3f, \"memo_hits\": %zu, \"memo_misses\": %zu, "
        "\"invariant_hoists\": %zu, \"iterate_copies_avoided\": %zu, "
        "\"identical\": %s}%s\n",
        speedup, on.stats.memo_hits, on.stats.memo_misses,
        on.stats.invariant_hoists, on.stats.iterate_copies_avoided,
        identical ? "true" : "false", w + 1 < workloads.size() ? "," : "");
    json += "    {\"name\": \"" + workloads[w].name +
            "\", \"memo_on_ms\": " + bvq_bench::SpreadJson(on.ms) +
            ", \"memo_off_ms\": " + bvq_bench::SpreadJson(off.ms) + buf;
  }
  json += "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
