// servebench_replay — the in-process half of the serving benchmark.
//
//   servebench_replay reference <file>
//       Reference answers for the answer check. <file> holds database
//       blocks ("D <name>", database text lines, "E") and queries
//       ("Q <name> <query>"). Each query is evaluated by a BoundedEvaluator
//       with one thread and no cross-query cache, at k = max(3, variables
//       used) like a default session, and printed in the protocol's block
//       format: "result <i> ok", the serve::FormatRelation payload,
//       "end <i>" (i counts Q lines from 0).
//
//   servebench_replay trace <spec> --budget-ms=N --spans=FILE
//                     [--bvqserve=PATH]
//       Replays a workload's request stream in-process, through each
//       layer's public functions, and prints one JSON object of per-layer
//       figures. <spec> holds setup lines ("S <line>"), warm-pass lines
//       ("W <line>"), and ops ("O", then "L <line>" per request line).
//       Phases, each on its own serve::Server given the same setup, so
//       every phase meets the same cache and database state; op i runs in
//       every phase before op i+1 runs in any, so host noise lands on all
//       phases alike:
//         server    Server::HandleLine, one op at a time; an op ends when
//                   its last result block is emitted.
//         evalasync Server::EvalAsync (streams of single evals only).
//         replica   the server's eval path rebuilt from public calls on the
//                   Server's own sessions, one span per call (below).
//         untraced  the replica again with span recording off.
//         routed    serve::ShardRouter over two real bvqserve worker
//                   processes (only with --bvqserve).
//       Ops are replayed until the budget is spent (at least five). Spans
//       are written to FILE when the run ends, one per line: name,
//       start_ns, end_ns, parent index (-1 for a root), request id.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "db/database.h"
#include "eval/bounded_eval.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "plan/batch_executor.h"
#include "plan/batch_planner.h"
#include "serve/server.h"
#include "serve/shard.h"

namespace {

using namespace bvq;
using Clock = std::chrono::steady_clock;

// The replay only ever sees generated input; a malformed spec or an error
// the server was not expected to return ends the run with a message.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench_replay: %s\n", message.c_str());
  std::exit(1);
}

std::int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::string> Tokens(const std::string& line, std::size_t max) {
  std::istringstream is(line);
  std::vector<std::string> out;
  std::string tok;
  while (out.size() < max && is >> tok) out.push_back(tok);
  return out;
}

// The text after the first `skip` whitespace-separated tokens.
std::string Rest(const std::string& line, std::size_t skip) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < skip; ++i) {
    pos = line.find_first_not_of(' ', pos);
    pos = line.find(' ', pos);
    if (pos == std::string::npos) return std::string();
  }
  return std::string(TrimLeft(line.substr(pos)));
}

// ---- Spans -----------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

// Records spans in memory; with recording off every call is a no-op, which
// is what the untraced phase measures against. Thread-safe: a batch's
// evals run concurrently, as on the server's lanes.
class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;  // read only once the phase has ended

  int Begin(const char* name, int parent, std::uint64_t request) {
    if (!on) return -1;
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans.push_back(Span{name, now, 0, parent, request});
    return static_cast<int>(spans.size()) - 1;
  }
  void End(int span) {
    if (span < 0) return;
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans[span].end = now;
  }

 private:
  std::mutex mutex_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent, std::uint64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

// ---- Spec ------------------------------------------------------------------

struct Spec {
  std::vector<std::string> setup;
  std::vector<std::string> warm;
  std::vector<std::vector<std::string>> ops;
};

Spec ReadSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  Spec spec;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string body = line.size() > 2 ? line.substr(2) : "";
    switch (line[0]) {
      case 'S': spec.setup.push_back(body); break;
      case 'W': spec.warm.push_back(body); break;
      case 'O': spec.ops.emplace_back(); break;
      case 'L':
        if (spec.ops.empty()) Die("op line before the first O");
        spec.ops.back().push_back(body);
        break;
      default: Die("bad spec line: " + line.substr(0, 40));
    }
  }
  return spec;
}

// Result ids an op's lines expect blocks for (eval / batch eval lines).
std::vector<std::uint64_t> ExpectedIds(const std::vector<std::string>& lines) {
  std::vector<std::uint64_t> ids;
  for (const std::string& line : lines) {
    const auto t = Tokens(line, 4);
    std::size_t id = 0;
    if (t.size() >= 2 && t[0] == "eval" && ParseSizeT(t[1], &id)) {
      ids.push_back(id);
    } else if (t.size() >= 4 && t[0] == "batch" && t[2] == "eval" &&
               ParseSizeT(t[3], &id)) {
      ids.push_back(id);
    }
  }
  return ids;
}

// ---- Protocol collector ----------------------------------------------------

// The emit side of a protocol conversation: counts chunks and lines, notes
// which result blocks arrived and whether anything failed.
class Collector {
 public:
  void Emit(const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++chunks_;
    lines_ += static_cast<std::size_t>(
        std::count(chunk.begin(), chunk.end(), '\n'));
    if (chunk.rfind("err ", 0) == 0) ++failures_;
    if (chunk.rfind("result ", 0) == 0) {
      const auto t = Tokens(chunk, 3);
      std::size_t id = 0;
      if (t.size() == 3 && ParseSizeT(t[1], &id)) {
        done_.insert(id);
        if (t[2] != "ok") ++failures_;
      }
      cv_.notify_all();
    }
  }
  std::function<void(const std::string&)> emit() {
    return [this](const std::string& chunk) { Emit(chunk); };
  }
  void Wait(const std::vector<std::uint64_t>& ids) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
      for (auto id : ids) {
        if (done_.count(id) == 0) return false;
      }
      return true;
    });
    for (auto id : ids) done_.erase(id);
  }
  std::size_t chunks() {
    std::lock_guard<std::mutex> lock(mutex_);
    return chunks_;
  }
  std::size_t lines() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  std::size_t failures() {
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::set<std::uint64_t> done_;
  std::size_t chunks_ = 0;
  std::size_t lines_ = 0;
  std::size_t failures_ = 0;
};

// ---- Figures ---------------------------------------------------------------

struct Figures {
  std::size_t failed = 0;
  // Per-op latency of each phase, in ms, indexed by op.
  std::vector<double> server_ms, evalasync_ms, replica_ms, untraced_ms,
      routed_ms;
  std::vector<double> dispatch_us;  // HandleLine, lines with no sync work
  std::size_t server_chunks = 0;    // emitted by the server phase's ops
  std::size_t routed_lines = 0;     // request + response lines, routed
  // Replica counters, summed over the timed ops.
  EvalStats stats;
  std::size_t evals = 0;
  std::size_t pool_threads = 0;
  std::vector<double> index_us;
  std::size_t interned_classes = 0;
};

// ---- Server phases ---------------------------------------------------------

void Setup(serve::Server& server, Collector& collector, const Spec& spec,
           Figures* figures) {
  for (const std::string& line : spec.setup) {
    const std::int64_t t0 = NowNs();
    server.HandleLine(line, collector.emit());
    const std::int64_t t1 = NowNs();
    const auto cmd = Tokens(line, 1);
    if (figures != nullptr && !cmd.empty() && cmd[0] != "rel") {
      figures->dispatch_us.push_back((t1 - t0) / 1e3);
    }
  }
  for (const std::string& line : spec.warm) {
    server.HandleLine(line, collector.emit());
    collector.Wait(ExpectedIds({line}));
  }
}

// One phase of the replay: its own server, set up like every other phase,
// and a way to run op i. The phases take op i in turn before any takes op
// i+1, so host noise lands on all of them alike and their medians compare.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void Op(std::size_t i) = 0;
  // Folds end-of-run figures into `f` (called once, after the last op).
  virtual void Finish(Figures& f) { (void)f; }
};

// Server::HandleLine, one op at a time; the op ends with its last block.
class HandleLinePhase : public Phase {
 public:
  HandleLinePhase(const Spec& spec, Figures& f) : spec_(spec), f_(f) {
    Setup(server_, collector_, spec, &f);
  }
  void Op(std::size_t i) override {
    const auto& lines = spec_.ops[i];
    const std::size_t chunks_before = collector_.chunks();
    const std::int64_t t0 = NowNs();
    for (const std::string& line : lines) {
      const std::int64_t l0 = NowNs();
      server_.HandleLine(line, collector_.emit());
      const std::int64_t l1 = NowNs();
      const auto t = Tokens(line, 3);
      // eval and batch begin/eval only register and queue work: their
      // HandleLine time is dispatch self time. rel and batch end also do
      // the write / the planning synchronously.
      if (t[0] == "eval" ||
          (t[0] == "batch" && t.size() == 3 && t[2] != "end")) {
        f_.dispatch_us.push_back((l1 - l0) / 1e3);
      }
    }
    collector_.Wait(ExpectedIds(lines));
    f_.server_ms.push_back((NowNs() - t0) / 1e6);
    f_.server_chunks += collector_.chunks() - chunks_before;
  }
  void Finish(Figures& f) override {
    f.failed += collector_.failures();
    for (const std::string& name : server_.sessions().Names()) {
      auto session = server_.sessions().Get(name);
      if (session.ok()) {
        f.interned_classes += (*session)->cache()->interner()->num_classes();
      }
    }
  }

 private:
  const Spec& spec_;
  Figures& f_;
  serve::Server server_;
  Collector collector_;
};

// Server::EvalAsync, for streams of single evals.
class EvalAsyncPhase : public Phase {
 public:
  EvalAsyncPhase(const Spec& spec, Figures& f) : spec_(spec), f_(f) {
    Setup(server_, collector_, spec, nullptr);
  }
  void Op(std::size_t i) override {
    const std::string& line = spec_.ops[i].at(0);
    const auto t = Tokens(line, 3);
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    const std::int64_t t0 = NowNs();
    auto started = server_.EvalAsync(
        t[2], Rest(line, 3), [&](const serve::EvalOutcome& o) {
          std::lock_guard<std::mutex> lock(mutex);
          ok = o.status.ok();
          done = true;
          cv.notify_all();
        });
    if (!started.ok()) Die(started.status().ToString());
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done; });
    f_.evalasync_ms.push_back((NowNs() - t0) / 1e6);
    if (!ok) ++f_.failed;
  }

 private:
  const Spec& spec_;
  Figures& f_;
  serve::Server server_;
  Collector collector_;
};

// serve::ShardRouter over two real bvqserve worker processes.
class RoutedPhase : public Phase {
 public:
  RoutedPhase(const Spec& spec, const std::string& bvqserve, Figures& f)
      : spec_(spec), f_(f), router_(Options(bvqserve)) {
    const Status started = router_.Start();
    if (!started.ok()) Die(started.ToString());
    client_ = router_.NewClient(collector_.emit());
    for (const std::string& line : spec.setup) {
      router_.HandleLine(client_, line);
    }
    for (const std::string& line : spec.warm) {
      router_.HandleLine(client_, line);
      collector_.Wait(ExpectedIds({line}));
    }
  }
  ~RoutedPhase() override { router_.Shutdown(); }
  void Op(std::size_t i) override {
    const auto& lines = spec_.ops[i];
    const std::size_t lines_before = collector_.lines();
    const std::int64_t t0 = NowNs();
    for (const std::string& line : lines) router_.HandleLine(client_, line);
    collector_.Wait(ExpectedIds(lines));
    f_.routed_ms.push_back((NowNs() - t0) / 1e6);
    f_.routed_lines += lines.size() + collector_.lines() - lines_before;
  }
  void Finish(Figures& f) override { f.failed += collector_.failures(); }

 private:
  static serve::ShardRouter::Options Options(const std::string& bvqserve) {
    serve::ShardRouter::Options options;
    options.num_shards = 2;
    options.worker_commands = {{bvqserve}, {bvqserve}};
    return options;
  }

  const Spec& spec_;
  Figures& f_;
  Collector collector_;
  serve::ShardRouter router_;
  std::shared_ptr<serve::ShardRouter::Client> client_;
};

// ---- Replica of the eval path ----------------------------------------------

struct Replica {
  Replica(serve::Server& server_in, Tracer& tracer_in, Figures* figures_in)
      : server(server_in), tracer(tracer_in), figures(figures_in) {}

  serve::Server& server;
  Tracer& tracer;
  Figures* figures;  // null outside the timed ops (setup, warm pass)
  std::mutex figures_mutex;
  std::atomic<std::size_t> failed{0};

  std::shared_ptr<serve::Session> SessionOf(const std::string& name) {
    auto session = server.sessions().Get(name);
    if (!session.ok()) Die(session.status().ToString());
    return *session;
  }

  // Server::RunEval, one span per public call.
  void Eval(const std::string& name, const std::string& query, int parent,
            std::uint64_t req) {
    auto session = SessionOf(name);
    Scope request(tracer, "serve.eval", parent, req);
    const int p = request.id();
    Result<Query> parsed = Status::OK();
    {
      Scope s(tracer, "logic.parse", p, req);
      parsed = ParseQuery(query);
    }
    if (!parsed.ok()) Die(parsed.status().ToString());
    std::optional<Result<serve::AdmissionTicket>> ticket;
    {
      Scope s(tracer, "serve.admission.admit", p, req);
      ticket.emplace(server.admission().Admit(
          session->admission_reserve_bytes()));
    }
    if (!ticket->ok()) Die(ticket->status().ToString());
    std::shared_ptr<ResourceGovernor> governor;
    {
      Scope s(tracer, "serve.session.acquire_governor", p, req);
      governor = session->AcquireGovernor();
    }
    std::shared_lock<std::shared_mutex> db_lock(session->db_mutex(),
                                                std::defer_lock);
    {
      Scope s(tracer, "serve.session.db_lock", p, req);
      db_lock.lock();
    }
    const std::size_t num_vars =
        std::max(session->options().num_vars, NumVariables(parsed->formula));
    BoundedEvalOptions options = session->options().eval;
    options.governor = governor.get();
    options.answer_cache = session->cache();
    options.cross_query_cache = session->cache_enabled();
    std::optional<BoundedEvaluator> eval;
    {
      Scope s(tracer, "eval.ctor", p, req);
      eval.emplace(session->db(), num_vars, options);
    }
    Result<Relation> result = Status::OK();
    {
      Scope s(tracer, "eval.evaluate_query", p, req);
      result = eval->EvaluateQuery(*parsed);
    }
    std::string payload;
    if (result.ok()) {
      Scope s(tracer, "serve.server.format", p, req);
      payload = serve::FormatRelation(*result,
                                      server.options().payload_tuple_limit);
    } else {
      failed.fetch_add(1);
    }
    if (figures != nullptr) {
      std::lock_guard<std::mutex> lock(figures_mutex);
      const EvalStats& st = eval->stats();
      EvalStats& sum = figures->stats;
      sum.tuples_scanned += st.tuples_scanned;
      sum.fixpoint_iterations += st.fixpoint_iterations;
      sum.node_evals += st.node_evals;
      sum.memo_hits += st.memo_hits;
      sum.memo_misses += st.memo_misses;
      sum.cache_hits += st.cache_hits;
      sum.parallel_loops += st.parallel_loops;
      sum.parallel_chunks += st.parallel_chunks;
      sum.chunks_stolen += st.chunks_stolen;
      ++figures->evals;
      if (eval->thread_pool() != nullptr) {
        figures->pool_threads += eval->thread_pool()->num_threads() - 1;
      }
    }
    {
      Scope s(tracer, "eval.dtor", p, req);
      eval.reset();
    }
    {
      Scope s(tracer, "serve.release", p, req);
      db_lock.unlock();
      ticket.reset();
      session->ReleaseGovernor(std::move(governor));
    }
    if (figures != nullptr) {
      // Standalone, outside the request span: EvaluateQuery builds the
      // same index internally, so timing it inside would count it twice.
      const std::int64_t t0 = NowNs();
      FormulaIndex index(parsed->formula, session->cache()->interner());
      const double us = (NowNs() - t0) / 1e3;
      std::lock_guard<std::mutex> lock(figures_mutex);
      figures->index_us.push_back(us);
    }
  }

  // The `rel` branch of Server::HandleLine.
  void Write(const std::string& name, const std::string& payload, int parent,
             std::uint64_t req) {
    auto session = SessionOf(name);
    Scope write(tracer, "serve.session.write", parent, req);
    const int p = write.id();
    std::unique_lock<std::shared_mutex> db_lock(session->db_mutex(),
                                                std::defer_lock);
    {
      Scope s(tracer, "serve.session.write_lock", p, req);
      db_lock.lock();
    }
    Result<Database> parsed = Status::OK();
    {
      Scope s(tracer, "db.parse", p, req);
      parsed = ParseDatabase(StrCat("domain ", session->db().domain_size(),
                                    "\nrel ", payload, "\n"));
    }
    if (!parsed.ok()) Die(parsed.status().ToString());
    {
      Scope s(tracer, "db.add_relation", p, req);
      for (const auto& [rel_name, rel] : parsed->relations()) {
        const Status added = session->db().AddRelation(rel_name, rel);
        if (!added.ok()) Die(added.ToString());
      }
    }
    {
      Scope s(tracer, "eval.answer_cache.resolve", p, req);
      session->cache()->ResolveAgainst(session->db());
    }
  }

  // Server::BatchEnd's planning and materialization, then every query
  // through the eval path in submission order.
  void Batch(const std::string& name, const std::vector<std::string>& queries,
             int parent, std::uint64_t req) {
    auto session = SessionOf(name);
    if (queries.size() >= 2 && session->options().batch &&
        session->cache_enabled()) {
      std::vector<Query> parsed;
      {
        Scope s(tracer, "plan.parse", parent, req);
        for (const std::string& q : queries) {
          auto one = ParseQuery(q);
          if (one.ok()) parsed.push_back(std::move(*one));
        }
      }
      Result<plan::BatchPlan> built = Status::OK();
      {
        Scope s(tracer, "plan.plan", parent, req);
        std::shared_lock<std::shared_mutex> db_lock(session->db_mutex());
        built = plan::PlanBatch(std::move(parsed), session->db(),
                                session->options().num_vars,
                                session->cache()->interner());
      }
      if (built.ok() && built->stats.materialized > 0) {
        Scope s(tracer, "plan.materialize", parent, req);
        std::shared_lock<std::shared_mutex> db_lock(session->db_mutex());
        plan::BatchExecOptions exec;
        exec.cache = session->cache();
        exec.eval = session->options().eval;
        plan::MaterializeShared(*built, session->db(), exec);
      }
    }
    // The server submits every query of the batch to its executor lanes at
    // once (8 lanes by default, one per query here), so they run
    // concurrently.
    std::vector<std::thread> lanes;
    for (const std::string& q : queries) {
      lanes.emplace_back([this, &name, &q, parent, req] {
        Eval(name, q, parent, req);
      });
    }
    for (std::thread& lane : lanes) lane.join();
  }

  // One op: its request lines mapped onto the calls above.
  void Op(const std::vector<std::string>& lines, std::uint64_t req) {
    Scope op(tracer, "op", -1, req);
    std::string batch_session;
    std::vector<std::string> batch;
    for (const std::string& line : lines) {
      const auto t = Tokens(line, 4);
      if (t[0] == "eval") {
        Eval(t[2], Rest(line, 3), op.id(), req);
      } else if (t[0] == "rel") {
        Write(t[1], Rest(line, 2), op.id(), req);
      } else if (t[0] == "batch" && t[2] == "begin") {
        batch_session = t[1];
        batch.clear();
      } else if (t[0] == "batch" && t[2] == "eval") {
        batch.push_back(Rest(line, 4));
      } else if (t[0] == "batch" && t[2] == "end") {
        Batch(batch_session, batch, op.id(), req);
      } else {
        Die("replica cannot map: " + line.substr(0, 40));
      }
    }
  }
};

// The replica on its own server, with span recording on or off. Setup:
// open/domain through the protocol, writes and the warm pass through the
// replica, so the sessions end in the other phases' state. Streams without
// writes of their own trace the setup writes instead.
class ReplicaPhase : public Phase {
 public:
  ReplicaPhase(const Spec& spec, Tracer& tracer, bool traced, Figures& f)
      : spec_(spec),
        tracer_(tracer),
        traced_(traced),
        f_(f),
        setup_(server_, tracer, nullptr),
        replica_(server_, tracer, traced ? &f : nullptr) {
    bool op_writes = false;
    for (const auto& op : spec.ops) {
      for (const std::string& line : op) {
        op_writes |= line.rfind("rel ", 0) == 0;
      }
    }
    tracer_.on = traced && !op_writes;
    for (const std::string& line : spec.setup) {
      const auto t = Tokens(line, 2);
      if (t[0] == "rel") {
        setup_.Write(t[1], Rest(line, 2), -1, 0);
      } else {
        server_.HandleLine(line, collector_.emit());
      }
    }
    tracer_.on = false;
    for (const std::string& line : spec.warm) {
      const auto t = Tokens(line, 3);
      setup_.Eval(t[2], Rest(line, 3), -1, 0);
    }
  }
  void Op(std::size_t i) override {
    tracer_.on = traced_;
    const std::int64_t t0 = NowNs();
    replica_.Op(spec_.ops[i], i + 1);
    const double ms = (NowNs() - t0) / 1e6;
    tracer_.on = false;
    (traced_ ? f_.replica_ms : f_.untraced_ms).push_back(ms);
  }
  void Finish(Figures& f) override {
    f.failed += replica_.failed.load() + setup_.failed.load() +
                collector_.failures();
  }

 private:
  const Spec& spec_;
  Tracer& tracer_;
  const bool traced_;
  Figures& f_;
  serve::Server server_;
  Collector collector_;
  Replica setup_;
  Replica replica_;
};

// ---- Reporting -------------------------------------------------------------

// Share of each span covered by its children, for every span that has
// children, keyed by the span's index; a request's uncovered remainder is
// time no layer claims.
std::map<int, double> CoveredShares(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start, s.end);
  }
  std::map<int, double> shares;
  for (auto& [parent, iv] : kids) {
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = INT64_MIN;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const Span& p = spans[parent];
    const double total = static_cast<double>(p.end - p.start);
    shares[parent] = total > 0 ? covered / total : 1.0;
  }
  return shares;
}

// Self time per span name, in µs: duration minus the children's union.
std::map<std::string, std::vector<double>> SelfTimes(
    const std::vector<Span>& spans) {
  const std::map<int, double> covered = CoveredShares(spans);
  std::map<std::string, std::vector<double>> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double total = (spans[i].end - spans[i].start) / 1e3;
    auto it = covered.find(static_cast<int>(i));
    self[spans[i].name].push_back(
        it == covered.end() ? total : total * (1.0 - it->second));
  }
  return self;
}

// Whole durations of the spans called `name`, in ms.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back((s.end - s.start) / 1e6);
  }
  return out;
}

int Trace(int argc, char** argv) {
  if (argc < 3) Die("usage: trace <spec> --budget-ms=N --spans=FILE");
  std::string bvqserve, spans_path;
  std::size_t budget_ms = 4000;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bvqserve=", 0) == 0) {
      bvqserve = arg.substr(11);
    } else if (arg.rfind("--spans=", 0) == 0) {
      spans_path = arg.substr(8);
    } else if (arg.rfind("--budget-ms=", 0) == 0) {
      if (!ParseSizeT(arg.substr(12), &budget_ms)) Die("bad " + arg);
    } else {
      Die("unknown argument " + arg);
    }
  }
  const Spec spec = ReadSpec(argv[2]);
  bool evals_only = true;
  for (const auto& op : spec.ops) {
    evals_only = evals_only && op.size() == 1 && op[0].rfind("eval ", 0) == 0;
  }
  Figures f;
  Tracer tracer, off;
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(std::make_unique<HandleLinePhase>(spec, f));
  if (evals_only) phases.push_back(std::make_unique<EvalAsyncPhase>(spec, f));
  phases.push_back(std::make_unique<ReplicaPhase>(spec, tracer, true, f));
  phases.push_back(std::make_unique<ReplicaPhase>(spec, off, false, f));
  if (!bvqserve.empty()) {
    phases.push_back(std::make_unique<RoutedPhase>(spec, bvqserve, f));
  }
  // Op i runs in every phase (in rotating order) before op i+1 anywhere.
  constexpr std::size_t kMinOps = 5;
  const std::int64_t start = NowNs();
  const std::int64_t budget_ns = static_cast<std::int64_t>(budget_ms) * 1000000;
  std::size_t n = 0;
  for (; n < spec.ops.size() && (n < kMinOps || NowNs() - start < budget_ns);
       ++n) {
    for (std::size_t j = 0; j < phases.size(); ++j) {
      phases[(n + j) % phases.size()]->Op(n);
    }
  }
  for (auto& phase : phases) phase->Finish(f);
  phases.clear();

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << "# name\tstart_ns\tend_ns\tparent\trequest\n";
    for (const Span& s : tracer.spans) {
      out << s.name << '\t' << s.start << '\t' << s.end << '\t' << s.parent
          << '\t' << s.request << '\n';
    }
  }

  // The server-side span the replica is checked against: EvalAsync's for
  // streams of evals, HandleLine's op span otherwise.
  const std::vector<double>& server_span =
      evals_only ? f.evalasync_ms : f.server_ms;
  std::vector<double> handoff;
  for (std::size_t i = 0; i < n; ++i) {
    handoff.push_back(server_span[i] - f.replica_ms[i]);
  }
  // Coverage by level: op spans (roots) and the eval / write spans below.
  std::vector<double> op_cover, eval_cover;
  for (const auto& [parent, share] : CoveredShares(tracer.spans)) {
    (tracer.spans[parent].parent < 0 ? op_cover : eval_cover)
        .push_back(share);
  }
  auto self = SelfTimes(tracer.spans);
  auto med = [&](const char* name) { return Median(self[name]); };
  const double ops = static_cast<double>(std::max<std::size_t>(n, 1));
  const EvalStats& st = f.stats;
  const double lookups = static_cast<double>(st.memo_hits + st.cache_hits +
                                             st.memo_misses);

  std::map<std::string, double> out;
  out["ops"] = static_cast<double>(n);
  out["failed"] = static_cast<double>(f.failed);
  out["server_p50_ms"] = Median(f.server_ms);
  out["evalasync_p50_ms"] = Median(f.evalasync_ms);
  out["replica_p50_ms"] = Median(f.replica_ms);
  out["untraced_p50_ms"] = Median(f.untraced_ms);
  out["routed_p50_ms"] = Median(f.routed_ms);
  out["server_span_p50_ms"] = Median(server_span);
  out["handoff_p50_ms"] = Median(handoff);
  out["op_covered_p50"] = Median(op_cover);
  out["eval_covered_p50"] = Median(eval_cover);
  out["dispatch_us"] = Median(f.dispatch_us);
  out["sends_per_op"] = f.server_chunks / static_cast<double>(
                                              std::max<std::size_t>(
                                                  f.server_ms.size(), 1));
  out["lines_per_op"] = f.routed_lines / ops;
  out["format_us"] = med("serve.server.format");
  out["write_ms"] = Median(Durations(tracer.spans, "serve.session.write"));
  out["parse_us"] = med("logic.parse");
  out["index_us"] = Median(f.index_us);
  out["ctor_us"] = med("eval.ctor") + med("eval.dtor");
  out["eval_p50_ms"] = med("eval.evaluate_query") / 1e3;
  out["db_parse_ms"] = med("db.parse") / 1e3;
  out["plan_ms"] = med("plan.plan") / 1e3;
  out["materialize_ms"] = med("plan.materialize") / 1e3;
  out["threads_per_op"] = f.pool_threads / ops;
  out["evals_per_op"] = f.evals / ops;
  out["tuples_scanned_per_op"] = st.tuples_scanned / ops;
  out["fixpoint_iterations_per_op"] = st.fixpoint_iterations / ops;
  out["node_evals_per_op"] = st.node_evals / ops;
  out["memo_hit_share"] = lookups > 0 ? st.memo_hits / lookups : 0.0;
  out["parallel_loops_per_op"] = st.parallel_loops / ops;
  out["chunks_stolen_share"] =
      st.parallel_chunks > 0
          ? static_cast<double>(st.chunks_stolen) / st.parallel_chunks
          : 0.0;
  out["interned_classes"] = static_cast<double>(f.interned_classes);
  out["admission_us"] = med("serve.admission.admit");
  out["governor_us"] = med("serve.session.acquire_governor");
  out["release_us"] = med("serve.release");

  std::printf("{");
  bool first = true;
  for (const auto& [key, value] : out) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", key.c_str(), value);
    first = false;
  }
  std::printf("}\n");
  return 0;
}

// ---- Reference -------------------------------------------------------------

int Reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::map<std::string, Database> dbs;
  std::string line, current, text;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    if (!current.empty()) {
      if (line == "E") {
        auto parsed = ParseDatabase(text);
        if (!parsed.ok()) Die(parsed.status().ToString());
        dbs[current] = std::move(*parsed);
        current.clear();
        text.clear();
      } else {
        text += line + "\n";
      }
      continue;
    }
    if (line.rfind("D ", 0) == 0) {
      current = line.substr(2);
      continue;
    }
    if (line.rfind("Q ", 0) != 0) Die("bad reference line");
    const auto t = Tokens(line, 2);
    const std::string query = Rest(line, 2);
    auto db = dbs.find(t.at(1));
    if (db == dbs.end()) Die("unknown database " + t.at(1));
    std::string block;
    auto parsed = ParseQuery(query);
    Result<Relation> answer = parsed.status();
    if (parsed.ok()) {
      BoundedEvalOptions options;
      options.num_threads = 1;
      options.cross_query_cache = false;
      const std::size_t k = std::max<std::size_t>(
          serve::SessionOptions().num_vars, NumVariables(parsed->formula));
      BoundedEvaluator eval(db->second, k, options);
      answer = eval.EvaluateQuery(*parsed);
    }
    if (answer.ok()) {
      block = StrCat("result ", index, " ok\n",
                     serve::FormatRelation(*answer), "end ", index, "\n");
    } else {
      block = StrCat("result ", index, " error ",
                     StatusCodeName(answer.status().code()), "\n  ",
                     answer.status().ToString(), "\nend ", index, "\n");
    }
    std::fwrite(block.data(), 1, block.size(), stdout);
    ++index;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "reference") {
    return Reference(argv[2]);
  }
  if (argc >= 3 && std::string(argv[1]) == "trace") return Trace(argc, argv);
  std::fprintf(stderr,
               "usage: servebench_replay reference <file>\n"
               "       servebench_replay trace <spec> --budget-ms=N "
               "--spans=FILE [--bvqserve=PATH]\n");
  return 2;
}
