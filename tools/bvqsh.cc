// bvqsh — an interactive shell for bounded-variable query evaluation.
//
// Reads commands from stdin (or a script named on the command line):
//
//   help                        this text
//   domain <n>                  start a fresh database over {0..n-1}
//   rel <name>/<arity> v.. ; ..  add a relation (values then ';' per tuple)
//   load <file>                 load a database file (see README format)
//   show                        print the current database
//   k <n>                       set the variable bound (default 3)
//   strategy naive|reuse        fixpoint strategy (default naive)
//   pfp hash|floyd              PFP cycle detection (default hash)
//   threads <n>                 evaluator thread count (0 = auto, 1 = serial)
//   memo on|off                 subformula memoization (default on)
//   cache on|off|clear          cross-query answer cache for `eval`
//                               (default on; `clear` drops resident
//                               entries — db mutations never need it,
//                               relation versions invalidate by key)
//   cache save <file>           snapshot db-resolved cache entries
//   cache restore <file>        prewarm the cache from a snapshot
//                               (fingerprint-gated: stale entries stay
//                               pending and never produce answers)
//   stats on|off                print memo/hoist counters after eval
//   deadline <ms>               per-query wall-clock deadline (0 = none)
//   membudget <mb>              per-query memory budget in MiB (0 = none)
//   serve <protocol line>       hand one line of bvqserve's protocol
//                               (`serve help` lists it) to an in-process
//                               server and print its responses once every
//                               query it started has finished; `err` lines
//                               and error result blocks are shell errors
//   shard <n> <name>..          plan placements: which of n router shards
//                               each session name hashes onto (the same
//                               FNV-1a placement bvqserve --shards=n uses)
//   source <file>               run commands from a file; unlike script
//                               mode, stops at the first error and reports
//                               it with file:line context
//   eval <query>                evaluate with the bounded-variable engine
//   naive <query>               evaluate with the classical engine (FO only)
//   eso <sentence>              evaluate an ESO sentence via grounding+SAT
//   esoall <query>              full n^k ESO answer sweep (see esoinc)
//   esoinc on|off               incremental ESO sweep (default on)
//   datalog <file>              run a Datalog program against the database
//   quit
//
// Switch commands accept exactly the words listed; anything else is an
// error, never a silent default.
//
// Flags: --threads=N sets the initial thread count (same as the `threads`
// command; results are byte-identical for every N), --memo=0|1 the
// memoization switch, --cross-query-cache=0|1 the shell-lifetime answer
// cache consulted by `eval` across queries (same as the `cache` command;
// answers are byte-identical either way), --eso-incremental=0|1 the ESO
// sweep mode (same as the `esoinc` command; answers are byte-identical
// either way), and --stats turns the counter printout on. --deadline-ms=N
// and --mem-budget-mb=N arm a per-query ResourceGovernor: a query that
// overruns returns DeadlineExceeded / ResourceExhausted with partial stats
// and the process exits nonzero. With --stats, a `resource` line reports
// the predicted memory bound next to the observed peak. Every numeric
// flag accepts "--flag=N" or "--flag N" and strict-parses N (garbage is a
// usage error, not a silent 0).
//
// Every evaluator or parse error is reported on stderr with the offending
// query and makes the process exit nonzero (script mode keeps executing
// subsequent lines, like `make -k`).
//
// Queries use the library syntax, e.g.
//   eval (x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) &
//        exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/strings.h"

#include "datalog/datalog.h"
#include "db/database.h"
#include "eval/answer_cache.h"
#include "eval/bounded_eval.h"
#include "eval/cache_snapshot.h"
#include "eval/eso_eval.h"
#include "eval/naive_eval.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "serve/server.h"
#include "serve/shard.h"

namespace {

using namespace bvq;

struct ShellState {
  Database db{0};
  std::size_t num_vars = 3;
  BoundedEvalOptions options;
  EsoEvalOptions eso_options;
  ResourceGovernor::Limits limits;  // per-query deadline / memory budget
  // Shell-lifetime cross-query answer cache for the direct `eval` command
  // (served sessions own their own). Safe across `load`/`rel` mutations:
  // keys carry relation versions, so stale entries stop matching.
  AnswerCache answer_cache;
  bool cross_query_cache = true;
  bool print_stats = false;  // extra memo/hoist counter line after eval
  bool had_error = false;    // any error seen; drives the exit code
  // The server behind `serve`; created on first use so a shell that never
  // serves spawns no executor thread.
  std::unique_ptr<serve::Server> server;
};

serve::Server& ServerRef(ShellState& state) {
  if (state.server == nullptr) {
    // One lane: the shell is sequential, and a batch's queries then run
    // (and report) in submission order.
    serve::ServeOptions options;
    options.executor_threads = 1;
    state.server = std::make_unique<serve::Server>(options);
  }
  return *state.server;
}

// Central error sink: every failure goes to stderr with its context (the
// query or file that failed) and marks the session failed so main() exits
// nonzero. Nothing in the shell may print-and-continue past an error
// without going through here.
void Fail(ShellState& state, const std::string& context,
          const std::string& detail) {
  std::fprintf(stderr, "error: %s: %s\n", context.c_str(), detail.c_str());
  state.had_error = true;
}

void Fail(ShellState& state, const std::string& context,
          const Status& status) {
  Fail(state, context, status.ToString());
}

// Strict numeric shell argument (same from_chars rules as database.cc):
// the whole token must parse, so `domain foo`, `k 1x`, and a missing
// argument are reported via Fail instead of silently becoming 0.
bool ParseNumArg(ShellState& state, const std::string& cmd,
                 const std::string& rest, std::size_t* out) {
  const std::string tok(StripAsciiWhitespace(rest));
  if (ParseSizeT(tok, out)) return true;
  Fail(state, tok.empty() ? cmd : cmd + " " + tok,
       tok.empty() ? "missing numeric argument"
                   : "expected a whole non-negative number, got '" + tok + "'");
  return false;
}

// Strict switch argument: the whole argument must be one of `words`, whose
// index lands in *out. A typo, a missing word or a trailing token is
// reported via Fail instead of silently picking a mode.
bool ParseWordArg(ShellState& state, const std::string& cmd,
                  const std::string& rest,
                  const std::vector<std::string>& words, std::size_t* out) {
  const std::string tok(StripAsciiWhitespace(rest));
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (tok == words[i]) {
      *out = i;
      return true;
    }
  }
  Fail(state, tok.empty() ? cmd : cmd + " " + tok,
       "expected " + StrJoin(words, "|") +
           (tok.empty() ? "" : ", got '" + tok + "'"));
  return false;
}

bool ParseOnOff(ShellState& state, const std::string& cmd,
                const std::string& rest, bool* on) {
  std::size_t word = 0;
  if (!ParseWordArg(state, cmd, rest, {"on", "off"}, &word)) return false;
  *on = word == 0;
  return true;
}

// One bracketed line so output filters that drop "  [" timing lines (the
// determinism smokes in tools/check.sh) treat it like the timing counters.
void PrintResourceStats(const ResourceStats& rs) {
  std::printf(
      "  [resource: %0.2f ms elapsed (deadline %llu ms), "
      "%zu B peak / %zu B predicted / %zu B budget, "
      "%zu B still charged, %llu checks, %llu charges%s%s]\n",
      rs.elapsed_ms, static_cast<unsigned long long>(rs.deadline_ms),
      rs.mem_peak_bytes, rs.mem_predicted_bytes, rs.mem_budget_bytes,
      rs.mem_current_bytes, static_cast<unsigned long long>(rs.checks),
      static_cast<unsigned long long>(rs.charges),
      rs.stopped ? ", stopped: " : "",
      rs.stopped ? StatusCodeName(rs.stop_code) : "");
}

// Shared with the serving layer, so a served payload and a direct printout
// are byte-identical by construction.
void PrintRelation(const Relation& rel, std::size_t limit = 20) {
  const std::string text = serve::FormatRelation(rel, limit);
  std::fwrite(text.data(), 1, text.size(), stdout);
}

void PrintAssignmentSet(const AssignmentSet& set, std::size_t limit = 20) {
  std::printf("  %zu assignment(s) over D^%zu\n", set.Count(), set.num_vars());
  std::vector<Value> a(set.num_vars());
  std::size_t shown = 0;
  for (std::size_t r = 0; r < set.indexer().NumTuples(); ++r) {
    if (!set.Test(r)) continue;
    if (shown < limit) {
      set.indexer().Unrank(r, a.data());
      std::printf("    (");
      for (std::size_t j = 0; j < a.size(); ++j) {
        std::printf("%s%u", j ? "," : "", a[j]);
      }
      std::printf(")\n");
    }
    ++shown;
  }
  if (shown > limit) std::printf("    ... (%zu more)\n", shown - limit);
}

void PrintSolverStats(const EsoEvalStats& stats) {
  std::printf(
      "  [solver: %llu decisions, %llu propagations, %llu conflicts, "
      "%llu learned (%llu deleted,\n   %llu reductions), %llu restarts, "
      "%llu minimized lits, %llu solve calls]\n",
      static_cast<unsigned long long>(stats.solver.decisions),
      static_cast<unsigned long long>(stats.solver.propagations),
      static_cast<unsigned long long>(stats.solver.conflicts),
      static_cast<unsigned long long>(stats.solver.learned_clauses),
      static_cast<unsigned long long>(stats.solver.deleted_clauses),
      static_cast<unsigned long long>(stats.solver.db_reductions),
      static_cast<unsigned long long>(stats.solver.restarts),
      static_cast<unsigned long long>(stats.solver.minimized_literals),
      static_cast<unsigned long long>(stats.solver.solve_calls));
}

void Help() {
  std::printf(
      "commands: help | domain <n> | rel <name>/<arity> t.. ; | load <f> | "
      "show | k <n> |\n          strategy naive|reuse | pfp hash|floyd | "
      "threads <n> | memo on|off |\n          esoinc on|off | stats on|off | "
      "deadline <ms> | membudget <mb> |\n          serve <protocol line> | "
      "shard <n> <name>.. | source <f> |\n          eval <q> | "
      "naive <q> | eso <q> | esoall <q> | datalog <f> | quit\n");
}

bool HandleLine(ShellState& state, const std::string& line) {
  std::istringstream is(line);
  std::string cmd;
  if (!(is >> cmd)) return true;
  std::string rest;
  std::getline(is, rest);

  auto now = []() { return std::chrono::steady_clock::now(); };
  auto ms = [](auto a, auto b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  if (cmd == "quit" || cmd == "exit") return false;
  if (cmd == "help") {
    Help();
    return true;
  }
  if (cmd == "domain") {
    std::size_t n = 0;
    if (!ParseNumArg(state, cmd, rest, &n)) return true;
    state.db = Database(n);
    state.answer_cache.ResolveAgainst(state.db);
    // An empty domain is legal: every relation is empty, every query
    // answer is the empty relation (and a 0-ary query still has its single
    // empty assignment). Print it honestly instead of the old {0..0} lie.
    if (n == 0) {
      std::printf("new database over {} (empty domain)\n");
    } else {
      std::printf("new database over {0..%zu}\n", n - 1);
    }
    return true;
  }
  if (cmd == "rel") {
    // Delegate to the database parser for one line.
    auto parsed = ParseDatabase("domain " + std::to_string(state.db.domain_size()) +
                                "\nrel " + rest + "\n");
    if (!parsed.ok()) {
      Fail(state, "rel " + rest, parsed.status());
      return true;
    }
    for (const auto& [name, rel] : parsed->relations()) {
      Status s = state.db.AddRelation(name, rel);
      if (!s.ok()) {
        Fail(state, "rel " + rest, s);
        return true;
      }
      std::printf("added %s/%zu (%zu tuples)\n", name.c_str(), rel.arity(),
                  rel.size());
    }
    state.answer_cache.ResolveAgainst(state.db);
    return true;
  }
  if (cmd == "load") {
    std::string path(TrimLeft(rest));
    std::ifstream in(path);
    if (!in) {
      Fail(state, "load " + path, "cannot open file");
      return true;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = ParseDatabase(buffer.str());
    if (!parsed.ok()) {
      Fail(state, "load " + path, parsed.status());
      return true;
    }
    state.db = std::move(*parsed);
    state.answer_cache.ResolveAgainst(state.db);
    std::printf("loaded: domain %zu, %zu relations, %zu tuples\n",
                state.db.domain_size(), state.db.relations().size(),
                state.db.TotalTuples());
    return true;
  }
  if (cmd == "show") {
    std::printf("%s", state.db.ToString().c_str());
    return true;
  }
  if (cmd == "k") {
    std::size_t n = 0;
    if (!ParseNumArg(state, cmd, rest, &n)) return true;
    state.num_vars = n;
    std::printf("k = %zu\n", state.num_vars);
    return true;
  }
  if (cmd == "strategy") {
    std::size_t reuse = 0;
    if (!ParseWordArg(state, cmd, rest, {"naive", "reuse"}, &reuse)) {
      return true;
    }
    state.options.fixpoint_strategy = reuse ? FixpointStrategy::kMonotoneReuse
                                            : FixpointStrategy::kNaiveNested;
    std::printf("fixpoint strategy: %s\n",
                reuse ? "monotone reuse" : "naive nested");
    return true;
  }
  if (cmd == "pfp") {
    std::size_t floyd = 0;
    if (!ParseWordArg(state, cmd, rest, {"hash", "floyd"}, &floyd)) {
      return true;
    }
    state.options.pfp_cycle_detection = floyd
                                            ? PfpCycleDetection::kFloyd
                                            : PfpCycleDetection::kHashHistory;
    std::printf("pfp cycle detection: %s\n", floyd ? "floyd" : "hash history");
    return true;
  }
  if (cmd == "threads") {
    std::size_t n = 0;
    if (!ParseNumArg(state, cmd, rest, &n)) return true;
    state.options.num_threads = n;
    std::printf("threads = %zu%s\n", n,
                n == 0 ? " (auto)" : (n == 1 ? " (serial)" : ""));
    return true;
  }
  if (cmd == "esoinc") {
    if (!ParseOnOff(state, cmd, rest, &state.eso_options.incremental)) {
      return true;
    }
    std::printf("eso incremental = %s\n",
                state.eso_options.incremental ? "on" : "off");
    return true;
  }
  if (cmd == "memo") {
    if (!ParseOnOff(state, cmd, rest, &state.options.memo)) return true;
    std::printf("memo = %s\n", state.options.memo ? "on" : "off");
    return true;
  }
  if (cmd == "cache") {
    std::istringstream cs(rest);
    std::string action;
    cs >> action;
    if (action == "save" || action == "restore") {
      std::string path_rest;
      std::getline(cs, path_rest);
      const std::string path(TrimLeft(path_rest));
      if (path.empty()) {
        Fail(state, "cache " + action, "expected a file name");
        return true;
      }
      if (action == "save") {
        auto entries = state.answer_cache.ExportResolved(state.db);
        Status s = SaveCacheSnapshotFile(path, entries);
        if (!s.ok()) {
          Fail(state, "cache save " + path, s);
          return true;
        }
        std::printf("cache saved: %zu entries to %s\n", entries.size(),
                    path.c_str());
      } else {
        auto loaded = LoadCacheSnapshotFile(path);
        if (!loaded.ok()) {
          Fail(state, "cache restore " + path, loaded.status());
          return true;
        }
        const std::size_t total = loaded->size();
        const std::size_t kept = state.answer_cache.Restore(std::move(*loaded));
        const std::size_t live = state.answer_cache.ResolveAgainst(state.db);
        std::printf("cache restored: %zu of %zu entries kept, %zu live\n",
                    kept, total, live);
      }
      return true;
    }
    std::size_t word = 0;
    if (!ParseWordArg(state, cmd, rest, {"on", "off", "clear"}, &word)) {
      return true;
    }
    if (word == 2) {
      state.answer_cache.Clear();
      std::printf("cache cleared\n");
    } else {
      state.cross_query_cache = word == 0;
      std::printf("cache = %s\n", state.cross_query_cache ? "on" : "off");
    }
    return true;
  }
  if (cmd == "stats") {
    if (!ParseOnOff(state, cmd, rest, &state.print_stats)) return true;
    std::printf("stats = %s\n", state.print_stats ? "on" : "off");
    return true;
  }
  if (cmd == "deadline") {
    std::size_t v = 0;
    if (!ParseNumArg(state, cmd, rest, &v)) return true;
    state.limits.deadline_ms = v;
    std::printf("deadline = %llu ms%s\n", static_cast<unsigned long long>(v),
                v == 0 ? " (none)" : "");
    return true;
  }
  if (cmd == "membudget") {
    std::size_t mb = 0;
    if (!ParseNumArg(state, cmd, rest, &mb)) return true;
    if (!MiBToBytes(mb, &state.limits.mem_budget_bytes)) {
      Fail(state, cmd, StrCat(mb, " MiB overflows a byte count"));
      return true;
    }
    std::printf("membudget = %zu MiB%s\n", mb, mb == 0 ? " (none)" : "");
    return true;
  }
  if (cmd == "serve") {
    const std::string request(StripAsciiWhitespace(rest));
    if (request.empty()) {
      Fail(state, cmd, "expected a protocol line (try: serve help)");
      return true;
    }
    // Server::HandleLine is the one parser of serving commands. Draining
    // before printing keeps the shell sequential: every result block this
    // line started is in `chunks`, after the line's own ack.
    std::vector<std::string> chunks;
    ServerRef(state).HandleLine(
        request, [&chunks](const std::string& c) { chunks.push_back(c); });
    state.server->Drain();
    for (const std::string& chunk : chunks) {
      const bool failed =
          chunk.rfind("err ", 0) == 0 ||
          (chunk.rfind("result ", 0) == 0 &&
           chunk.find(" error ") < chunk.find('\n'));
      if (failed) {
        Fail(state, "serve " + request, chunk.substr(0, chunk.size() - 1));
      } else {
        std::fwrite(chunk.data(), 1, chunk.size(), stdout);
      }
    }
    return true;
  }
  if (cmd == "shard") {
    // Placement planning for `bvqserve --shards=n`: prints the shard each
    // name hashes onto, using the router's own FNV-1a placement so the
    // plan is exact, not a simulation.
    std::istringstream ss(rest);
    std::string shards_tok;
    std::size_t shards = 0;
    std::vector<std::string> names;
    if (ss >> shards_tok && ParseSizeT(shards_tok, &shards) && shards > 0) {
      for (std::string name; ss >> name;) names.push_back(name);
    }
    if (names.empty()) {
      Fail(state, cmd + rest, "expected <num-shards> <session-name>...");
      return true;
    }
    std::vector<std::size_t> per_shard(shards, 0);
    for (const auto& n : names) {
      const std::size_t shard = serve::ShardForSession(n, shards);
      ++per_shard[shard];
      std::printf("%s -> shard %zu\n", n.c_str(), shard);
    }
    std::size_t used = 0;
    for (std::size_t c : per_shard) used += c > 0 ? 1 : 0;
    std::printf("%zu session(s) over %zu of %zu shard(s)\n", names.size(),
                used, shards);
    return true;
  }
  if (cmd == "source") {
    const std::string path(TrimLeft(rest));
    std::ifstream in(path);
    if (!in) {
      Fail(state, "source " + path, "cannot open file");
      return true;
    }
    // Strict mode, unlike top-level script execution: the first failing
    // line stops the file and is reported with its file:line position.
    std::string sline;
    std::size_t lineno = 0;
    while (std::getline(in, sline)) {
      ++lineno;
      if (!sline.empty() && sline[0] == '#') continue;
      const bool had_error_before = state.had_error;
      state.had_error = false;
      const bool keep_going = HandleLine(state, sline);
      const bool line_failed = state.had_error;
      state.had_error = had_error_before || line_failed;
      if (line_failed) {
        Fail(state, StrCat("source ", path, ":", lineno),
             "stopped at first error");
        return true;
      }
      if (!keep_going) return false;  // `quit` inside the sourced file
    }
    std::printf("sourced %s (%zu lines)\n", path.c_str(), lineno);
    return true;
  }
  if (cmd == "eval" || cmd == "naive" || cmd == "eso" || cmd == "esoall") {
    auto query = ParseQuery(rest);
    if (!query.ok()) {
      Fail(state, cmd + " " + rest, query.status());
      return true;
    }
    const std::size_t needed = NumVariables(query->formula);
    if (needed > state.num_vars) {
      std::printf("note: query uses %zu variables; raising k from %zu\n",
                  needed, state.num_vars);
      state.num_vars = needed;
    }
    // One governor per query. Armed whenever a limit is set; also attached
    // (with no limits) under `stats on` so the resource line can report the
    // observed peak next to the predicted bound.
    const bool governed = state.limits.deadline_ms > 0 ||
                          state.limits.mem_budget_bytes > 0 ||
                          state.print_stats;
    ResourceGovernor governor(state.limits);
    ResourceGovernor* gov = governed ? &governor : nullptr;
    const auto start = now();
    if (cmd == "eval") {
      BoundedEvalOptions options = state.options;
      options.governor = gov;
      options.answer_cache = &state.answer_cache;
      options.cross_query_cache = state.cross_query_cache;
      BoundedEvaluator eval(state.db, state.num_vars, options);
      auto result = eval.EvaluateQuery(*query);
      const auto stop = now();
      if (result.ok()) PrintRelation(*result);
      // Stats print even on error: a governed trip reports the partial
      // counters accumulated before the cut.
      std::printf(
          "  [%0.2f ms, %zu fixpoint iterations, %zu node evals, "
          "%zu tuples scanned;\n   %zu threads, %zu parallel loops, "
          "%zu chunks (%zu stolen)]\n",
          ms(start, stop), eval.stats().fixpoint_iterations,
          eval.stats().node_evals, eval.stats().tuples_scanned,
          eval.thread_pool()->num_threads(),
          eval.stats().parallel_loops, eval.stats().parallel_chunks,
          eval.stats().chunks_stolen);
      if (state.print_stats) {
        std::printf(
            "  [memo %s: %zu hits / %zu misses, %zu invariant hoists, "
            "%zu iterate copies avoided]\n",
            state.options.memo ? "on" : "off", eval.stats().memo_hits,
            eval.stats().memo_misses, eval.stats().invariant_hoists,
            eval.stats().iterate_copies_avoided);
        std::printf(
            "  [cache %s: %zu hits / %zu misses, %zu evictions, "
            "%zu B resident]\n",
            state.cross_query_cache && state.options.memo ? "on" : "off",
            eval.stats().cache_hits, eval.stats().cache_misses,
            eval.stats().cache_evictions, eval.stats().cache_bytes);
      }
      if (gov != nullptr && (state.print_stats || !result.ok())) {
        PrintResourceStats(governor.stats());
      }
      if (!result.ok()) Fail(state, cmd + " " + rest, result.status());
    } else if (cmd == "naive") {
      NaiveEvaluator eval(state.db);
      eval.set_governor(gov);
      auto result = eval.EvaluateQuery(*query);
      const auto stop = now();
      if (result.ok()) PrintRelation(*result);
      std::printf("  [%0.2f ms, max intermediate arity %zu (%zu tuples)]\n",
                  ms(start, stop), eval.stats().max_intermediate_arity,
                  eval.stats().max_intermediate_tuples);
      if (gov != nullptr && (state.print_stats || !result.ok())) {
        PrintResourceStats(governor.stats());
      }
      if (!result.ok()) Fail(state, cmd + " " + rest, result.status());
    } else if (cmd == "eso") {
      EsoEvalOptions options = state.eso_options;
      options.governor = gov;
      EsoEvaluator eval(state.db, state.num_vars, options);
      EsoWitness witness;
      auto result = eval.Holds(query->formula,
                               std::vector<Value>(state.num_vars, 0),
                               &witness);
      const auto stop = now();
      if (result.ok()) {
        std::printf("  %s", *result ? "true" : "false");
      }
      std::printf("  [%0.2f ms, CNF %zu vars / %zu clauses, "
                  "%llu conflicts]\n",
                  ms(start, stop), eval.stats().cnf_vars,
                  eval.stats().cnf_clauses,
                  static_cast<unsigned long long>(
                      eval.stats().solver.conflicts));
      if (state.print_stats) PrintSolverStats(eval.stats());
      if (gov != nullptr && (state.print_stats || !result.ok())) {
        PrintResourceStats(governor.stats());
      }
      if (!result.ok()) {
        Fail(state, cmd + " " + rest, result.status());
        return true;
      }
      for (const auto& [name, rel] : witness) {
        std::printf("  witness %s:\n", name.c_str());
        PrintRelation(rel, 10);
      }
    } else {
      EsoEvalOptions options = state.eso_options;
      options.governor = gov;
      EsoEvaluator eval(state.db, state.num_vars, options);
      auto result = eval.Evaluate(query->formula);
      const auto stop = now();
      if (result.ok()) PrintAssignmentSet(*result);
      std::printf(
          "  [%0.2f ms %s, %zu SAT calls / %zu groundings, "
          "CNF %zu vars / %zu clauses, %llu conflicts]\n",
          ms(start, stop),
          state.eso_options.incremental ? "incremental" : "scratch",
          eval.stats().sat_calls, eval.stats().groundings,
          eval.stats().cnf_vars, eval.stats().cnf_clauses,
          static_cast<unsigned long long>(eval.stats().solver.conflicts));
      if (state.print_stats) PrintSolverStats(eval.stats());
      if (gov != nullptr && (state.print_stats || !result.ok())) {
        PrintResourceStats(governor.stats());
      }
      if (!result.ok()) Fail(state, cmd + " " + rest, result.status());
    }
    return true;
  }
  if (cmd == "datalog") {
    std::string path(TrimLeft(rest));
    std::ifstream in(path);
    if (!in) {
      Fail(state, "datalog " + path, "cannot open file");
      return true;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto program = datalog::ParseProgram(buffer.str());
    if (!program.ok()) {
      Fail(state, "datalog " + path, program.status());
      return true;
    }
    datalog::DatalogEngine engine(state.db);
    const auto start = now();
    auto result = engine.Evaluate(*program);
    const auto stop = now();
    if (!result.ok()) {
      Fail(state, "datalog " + path, result.status());
      return true;
    }
    for (const std::string& pred : program->IdbPredicates()) {
      auto rel = result->GetRelation(pred);
      if (rel.ok()) {
        std::printf("%s:\n", pred.c_str());
        PrintRelation(**rel, 10);
      }
    }
    std::printf("  [%0.2f ms, %zu rounds, %zu derived tuples]\n",
                ms(start, stop), engine.stats().rounds,
                engine.stats().derived_tuples);
    return true;
  }
  Fail(state, line, "unknown command (try: help)");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ShellState state;
  std::istream* input = &std::cin;
  std::ifstream script;
  const char* script_path = nullptr;
  bool flag_error = false;
  // Accepts both "--flag=N" and "--flag N" for the numeric flags, and
  // strict-parses N: any non-numeric token is a usage error, never a
  // silent 0.
  auto numeric_flag = [&](int* i, const std::string& arg,
                          const std::string& name,
                          std::size_t* out) -> bool {
    std::string token;
    if (arg.rfind(name + "=", 0) == 0) {
      token = arg.substr(name.size() + 1);
    } else if (arg == name && *i + 1 < argc) {
      token = argv[++*i];
    } else {
      return false;
    }
    if (!ParseSizeT(token, out)) {
      std::fprintf(stderr, "bvqsh: %s expects a non-negative integer, got %s\n",
                   name.c_str(), token.c_str());
      flag_error = true;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::size_t v = 0;
    if (numeric_flag(&i, arg, "--threads", &v)) {
      state.options.num_threads = v;
    } else if (numeric_flag(&i, arg, "--memo", &v)) {
      state.options.memo = v != 0;
    } else if (numeric_flag(&i, arg, "--cross-query-cache", &v)) {
      state.cross_query_cache = v != 0;
    } else if (numeric_flag(&i, arg, "--eso-incremental", &v)) {
      state.eso_options.incremental = v != 0;
    } else if (numeric_flag(&i, arg, "--deadline-ms", &v)) {
      state.limits.deadline_ms = v;
    } else if (numeric_flag(&i, arg, "--mem-budget-mb", &v)) {
      if (!MiBToBytes(v, &state.limits.mem_budget_bytes)) {
        std::fprintf(stderr, "bvqsh: --mem-budget-mb=%zu overflows\n", v);
        flag_error = true;
      }
    } else if (arg == "--stats") {
      state.print_stats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bvqsh [--threads=N] [--memo=0|1] [--cross-query-cache=0|1] "
          "[--eso-incremental=0|1] [--deadline-ms=N] [--mem-budget-mb=N] "
          "[--stats] [script]\n");
      return 0;
    } else if (script_path == nullptr) {
      script_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 1;
    }
  }
  if (flag_error) return 1;
  if (script_path != nullptr) {
    script.open(script_path);
    if (!script) {
      std::fprintf(stderr, "cannot open %s\n", script_path);
      return 1;
    }
    input = &script;
  }
  const bool interactive = (input == &std::cin);
  if (interactive) {
    std::printf("bvq shell — bounded-variable query evaluation "
                "(type 'help')\n");
  }
  std::string line;
  while (true) {
    if (interactive) std::printf("bvq> ");
    if (!std::getline(*input, line)) break;
    if (!line.empty() && line[0] == '#') continue;
    if (!HandleLine(state, line)) break;
  }
  return state.had_error ? 1 : 0;
}
