// The one harness every bench binary shares.
//
// Record benches (custom main, one BENCH_*.json each) declare their flags
// on a Record, time every configuration with Time(), gate every identity or
// hit check with Record::Gate() and end with `return rec.Finish();`:
//
//   bvq_bench::Record rec("memo_ablation", /*n=*/40, "BENCH_memo.json");
//   const std::size_t& threads = rec.flags.Threads();
//   rec.Parse(argc, argv);
//
// Every record bench takes --n, --reps (>= 1) and --out. The record's
// `config` holds every flag's value and the host's core count, every timing
// is {median, min, max} in milliseconds over --reps, and a record with a
// failed gate (or a non-finite number) is still written, lists the failed
// gates and exits 1.
//
// The google-benchmark binaries end with BVQ_BENCHMARK_MAIN(): they take
// --threads, --memo, --deadline-ms and --mem-budget-mb through the same
// parser and hand every --benchmark_* flag to the library. Results are
// byte-identical for every --threads / --memo combination (DESIGN.md §6,
// §7); only the timings move. The governor flags arm one ResourceGovernor
// shared by all governed iterations, so a runaway configuration is cut
// with DeadlineExceeded / ResourceExhausted; its polls add to the measured
// path, so leave both at 0 for comparable series.
//
// Flags parse strictly: an unknown flag or a bad value prints the usage and
// exits 1, never falls back to a default.

#ifndef BVQ_BENCH_BENCH_COMMON_H_
#define BVQ_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "logic/parser.h"
#include "serve/server.h"

namespace bvq_bench {

// ---- Timing ----------------------------------------------------------------

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;

  // The same spread in another unit, e.g. ms per batch → ns per item.
  Spread operator*(double k) const { return {median * k, min * k, max * k}; }
};

// The median (mean of the middle two for an even count), min and max of a
// non-empty sample.
inline Spread SpreadOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return {xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2,
          xs.front(), xs.back()};
}

// Calls setup() and then fn() `reps` times and returns the spread of fn's
// wall times in ms. setup() is untimed: it builds what one timed call
// consumes.
template <typename Setup, typename Fn>
Spread Time(std::size_t reps, Setup&& setup, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    setup();
    const auto start = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return SpreadOf(std::move(ms));
}

template <typename Fn>
Spread Time(std::size_t reps, Fn&& fn) {
  return Time(reps, [] {}, fn);
}

// ---- JSON ------------------------------------------------------------------

// One JSON object under construction. Values render as they are set; a
// non-finite number renders as null and is remembered by its key path.
class Json {
 public:
  Json& Set(const std::string& key, double v) {
    if (!std::isfinite(v)) nonfinite_.push_back(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return Raw(key, std::isfinite(v) ? buf : "null");
  }
  template <std::integral T>
  Json& Set(const std::string& key, T v) {
    return Raw(key, std::to_string(v));
  }
  Json& Set(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Set(const std::string& key, const char* v) {
    return Set(key, std::string(v));
  }
  Json& Set(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Set(const std::string& key, const std::vector<std::string>& v) {
    std::vector<std::string> items;
    for (const std::string& item : v) items.push_back(Quote(item));
    return Raw(key, "[" + bvq::StrJoin(items, ", ") + "]");
  }
  Json& Set(const std::string& key, const Spread& s) {
    return Set(key, Json().Set("median", s.median).Set("min", s.min).Set(
                        "max", s.max));
  }
  Json& Set(const std::string& key, const Json& v) {
    for (const std::string& k : v.nonfinite_) {
      nonfinite_.push_back(key + "." + k);
    }
    return Raw(key, v.Render());
  }
  // An array of objects, one per line.
  Json& Set(const std::string& key, const std::vector<Json>& rows) {
    std::vector<std::string> items;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (const std::string& k : rows[i].nonfinite_) {
        nonfinite_.push_back(bvq::StrCat(key, "[", i, "].", k));
      }
      items.push_back(rows[i].Render());
    }
    return Raw(key, "[\n    " + bvq::StrJoin(items, ",\n    ") + "\n  ]");
  }
  // `{"k": v, ...}`; with `top`, one field per line.
  std::string Render(bool top = false) const {
    return top ? "{\n  " + bvq::StrJoin(fields_, ",\n  ") + "\n}\n"
               : "{" + bvq::StrJoin(fields_, ", ") + "}";
  }
  const std::vector<std::string>& nonfinite() const { return nonfinite_; }

 private:
  static std::string Quote(const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (static_cast<unsigned char>(c) < 0x20) continue;
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return quoted + "\"";
  }
  Json& Raw(const std::string& key, const std::string& value) {
    fields_.push_back(Quote(key) + ": " + value);
    return *this;
  }
  std::vector<std::string> fields_;
  std::vector<std::string> nonfinite_;
};

// ---- Flags -----------------------------------------------------------------

// Declared --name=value flags. Each declaration returns a reference to the
// value, which Parse() fills in; the references stay valid for the life of
// the Flags object.
class Flags {
 public:
  // A number >= min.
  std::size_t& Num(std::string name, std::size_t def, std::size_t min,
                   const std::string& help) {
    return Declare(std::move(name), Kind::kNum, "N", help, std::to_string(def),
                   def, min)
        .num;
  }
  // --threads: evaluator threads, 0 = BVQ_THREADS or hardware. Capped at
  // ThreadPool::MaxThreads() like bvqsh and `open threads=`, since every
  // evaluator a bench builds starts that many threads less one.
  std::size_t& Threads() {
    const std::size_t max = bvq::ThreadPool::MaxThreads();
    return Declare("threads", Kind::kNum, "N",
                   bvq::StrCat("evaluator threads, at most ", max,
                               "; 0 = BVQ_THREADS or hardware"),
                   "1", 1, 0, max)
        .num;
  }
  // 0 or 1.
  bool& Switch(std::string name, bool def, const std::string& help) {
    return Declare(std::move(name), Kind::kSwitch, "0|1", help,
                   def ? "1" : "0")
               .on = def;
  }
  // A MiB count, held in bytes (0 = none); one that overflows is rejected.
  std::size_t& MiB(std::string name, const std::string& help) {
    return Declare(std::move(name), Kind::kMiB, "MiB", help, "0").num;
  }
  // Non-empty text, such as a path.
  std::string& Text(std::string name, std::string def,
                    const std::string& help) {
    return Declare(std::move(name), Kind::kText, "TEXT", help, def).text = def;
  }

  // Consumes every declared flag in argv. Anything else is a usage error,
  // except that with `pass_benchmark` the --benchmark_* flags stay in argv
  // for google/benchmark.
  void Parse(int* argc, char** argv, bool pass_benchmark) {
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
      const std::string_view arg = argv[i];
      if (pass_benchmark && arg.starts_with("--benchmark_")) {
        argv[kept++] = argv[i];
      } else if (!Set(arg)) {
        std::fprintf(stderr, "%s: bad flag %s\nusage: %s [flags]%s\n%s",
                     argv[0], argv[i], argv[0],
                     pass_benchmark ? " [--benchmark_*]" : "", usage_.c_str());
        std::exit(1);
      }
    }
    *argc = kept;
  }

  // Every flag's value, keyed by its name.
  void AddTo(Json* config) const {
    for (const Def& d : defs_) {
      if (d.kind == Kind::kText) {
        config->Set(d.name, d.text);
      } else if (d.kind == Kind::kSwitch) {
        config->Set(d.name, d.on);
      } else {
        config->Set(d.name, d.kind == Kind::kMiB ? d.num >> 20 : d.num);
      }
    }
  }

 private:
  enum class Kind { kNum, kSwitch, kMiB, kText };
  struct Def {
    std::string name;
    Kind kind;
    std::size_t num = 0, min = 0, max = 0;
    bool on = false;
    std::string text;
  };

  Def& Declare(std::string name, Kind kind, const char* meta,
               const std::string& help, const std::string& def,
               std::size_t num = 0, std::size_t min = 0,
               std::size_t max = std::numeric_limits<std::size_t>::max()) {
    char line[128];
    std::snprintf(line, sizeof(line), "  --%-20s %s (default %s)\n",
                  (name + "=" + meta).c_str(), help.c_str(), def.c_str());
    usage_ += line;
    return defs_.emplace_back(
        Def{std::move(name), kind, num, min, max, false, {}});
  }

  bool Set(std::string_view arg) {
    const std::size_t eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos) return false;
    const std::string_view name = arg.substr(2, eq - 2);
    const std::string_view value = arg.substr(eq + 1);
    for (Def& d : defs_) {
      if (d.name != name) continue;
      switch (d.kind) {
        case Kind::kNum:
          return bvq::ParseSizeT(value, &d.num) && d.num >= d.min &&
                 d.num <= d.max;
        case Kind::kSwitch:
          d.on = value == "1";
          return value == "0" || value == "1";
        case Kind::kMiB:
          return bvq::ParseSizeT(value, &d.num) &&
                 bvq::MiBToBytes(d.num, &d.num);
        case Kind::kText:
          d.text = value;
          return !value.empty();
      }
    }
    return false;
  }

  std::deque<Def> defs_;  // a deque keeps the returned references valid
  std::string usage_;     // one line per flag
};

// ---- Record ----------------------------------------------------------------

// A record bench's flags, gates and BENCH_*.json record.
class Record {
 public:
  // Declares the common flags; the bench declares its own on `flags` and
  // then calls Parse().
  Record(std::string bench, std::size_t n, std::string out)
      : bench_(std::move(bench)),
        n_(flags.Num("n", n, 1, "domain size")),
        reps_(flags.Num("reps", 3, 1, "timed repetitions, at least 1")),
        out_(flags.Text("out", std::move(out), "record to write")) {
    results.Set("bench", bench_);
  }

  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;

  void Parse(int argc, char** argv) { flags.Parse(&argc, argv, false); }

  std::size_t n() const { return n_; }
  std::size_t reps() const { return reps_; }

  // Records a failed check, named by `what`, unless `ok`.
  void Gate(bool ok, const std::string& what) {
    if (!ok) failed_.push_back(what);
  }

  // Appends `row` to the array `key`; arrays follow the top-level results.
  void Row(const std::string& key, Json row) {
    rows_[key].push_back(std::move(row));
  }

  // Writes --out and echoes it to stdout, names each failed gate on stderr,
  // and returns the exit code: 1 if any gate failed.
  int Finish() {
    for (const auto& [key, rows] : rows_) results.Set(key, rows);
    config.Set("host_cores", std::thread::hardware_concurrency());
    flags.AddTo(&config);
    results.Set("config", config);
    for (const std::string& key : results.nonfinite()) {
      Gate(false, "non-finite " + key);
    }
    const std::string text =
        results.Set("failed_gates", failed_).Render(true);
    if (!(std::ofstream(out_) << text)) {
      failed_.push_back("cannot write " + out_);
    }
    std::fputs(text.c_str(), stdout);
    for (const std::string& what : failed_) {
      std::fprintf(stderr, "%s: failed: %s\n", bench_.c_str(), what.c_str());
    }
    std::printf("wrote %s\n", out_.c_str());
    return failed_.empty() ? 0 : 1;
  }

  Flags flags;
  Json config;   // the bench's constants; Finish adds every flag
  Json results;  // top-level measurements

 private:
  std::string bench_;
  const std::size_t& n_;
  const std::size_t& reps_;
  const std::string& out_;
  std::map<std::string, std::vector<Json>> rows_;
  std::vector<std::string> failed_;
};

// The value of `r`; on an error, names `what` and exits 1.
template <typename T>
T Must(bvq::Result<T> r, const std::string& what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

inline void Must(const bvq::Status& s, const std::string& what) {
  if (!s.ok()) Must(bvq::Result<bool>(s), what);
}

// ---- Corpus ----------------------------------------------------------------

// A loop-invariant guard: no conjunct mentions a recursion variable, and on
// a path graph each is the full cube, so a fixpoint conjoined with it
// computes plain reachability. An evaluator without the memo or the answer
// cache still pays a dozen kernel sweeps over n^k bits for it per
// iteration.
inline const std::string kInvariantGuard =
    "(forall x2 . exists x3 . (E(x2,x3) | x2 = x3)) & "
    "(forall x3 . exists x2 . (E(x2,x3) | x2 = x3)) & "
    "(exists x2 . exists x3 . E(x2,x3)) & "
    "(forall x2 . forall x3 . (E(x2,x3) -> !(x2 = x3)))";

struct Workload {
  std::string name;
  std::string formula;
};

// The four fixpoint kinds over LongPathDb, each body guarded by
// kInvariantGuard (k = 3).
inline std::vector<Workload> InvariantGuardWorkloads() {
  const std::string& inv = kInvariantGuard;
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

// The n-path E with P = {n-1}.
inline bvq::Database LongPathDb(std::size_t n) {
  bvq::Database db(n);
  Must(db.AddRelation("E", bvq::PathGraph(n)), "path db");
  bvq::Relation p(1);
  p.Insert({static_cast<bvq::Value>(n - 1)});
  Must(db.AddRelation("P", p), "path db");
  return db;
}

// Transitive closure with three variables (x1 reused), the serving benches'
// query, over the n-cycle.
inline const std::string kTcQuery =
    "(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & "
    "exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)";

inline bvq::Database CycleDb(std::size_t n) {
  bvq::Database db(n);
  Must(db.AddRelation("E", bvq::CycleGraph(n)), "cycle db");
  return db;
}

// The direct evaluator's kTcQuery payload on CycleDb(n): every served
// answer must equal it byte for byte.
inline std::string TcPayload(std::size_t n) {
  const bvq::Database db = CycleDb(n);
  bvq::BoundedEvaluator direct(db, 3);
  return bvq::serve::FormatRelation(
      Must(direct.EvaluateQuery(Must(bvq::ParseQuery(kTcQuery), "parse")),
           "direct eval"));
}

// ---- google-benchmark binaries ---------------------------------------------

struct EngineFlags {
  Flags flags;
  std::size_t& threads = flags.Threads();
  bool& memo = flags.Switch("memo", true, "dependency-aware subformula memo");
  std::size_t& deadline_ms =
      flags.Num("deadline-ms", 0, 0, "governor deadline for the run; 0 = none");
  std::size_t& mem_budget =
      flags.MiB("mem-budget-mb", "governor memory budget; 0 = none");
};

inline EngineFlags& Engine() {
  static EngineFlags engine;
  return engine;
}

// Evaluator options carrying the engine flags; every google-benchmark
// series passes them to its BoundedEvaluator.
inline bvq::BoundedEvalOptions EvalOptions() {
  const EngineFlags& e = Engine();
  bvq::BoundedEvalOptions options;
  options.num_threads = e.threads;
  options.memo = e.memo;
  if (e.deadline_ms != 0 || e.mem_budget != 0) {
    // One governor for the whole run; its clock starts at the first
    // governed evaluation.
    static bvq::ResourceGovernor governor({e.deadline_ms, e.mem_budget});
    options.governor = &governor;
  }
  return options;
}

inline int BenchmarkMain(int argc, char** argv) {
  Engine().flags.Parse(&argc, argv, /*pass_benchmark=*/true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bvq_bench

#define BVQ_BENCHMARK_MAIN()                     \
  int main(int argc, char** argv) {              \
    return bvq_bench::BenchmarkMain(argc, argv); \
  }                                              \
  int main(int, char**)

#endif  // BVQ_BENCH_BENCH_COMMON_H_
