#include "serve/server.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "eval/cache_snapshot.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "plan/batch_executor.h"

namespace bvq::serve {

namespace {

// "%.2f" — the protocol's dedup_ratio rendering (StrCat would stream a
// locale-defaulted precision).
std::string FormatRatio(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

// The payload of an answer of `count` tuples whose first rows are `head`.
std::string FormatRows(std::size_t count, const Relation& head,
                       std::size_t limit) {
  std::ostringstream os;
  os << "  " << count << " tuple(s), arity " << head.arity() << "\n";
  for (std::size_t i = 0; i < head.size() && i < limit; ++i) {
    os << "    (";
    for (std::size_t j = 0; j < head.arity(); ++j) {
      if (j > 0) os << ",";
      os << head.tuple(i)[j];
    }
    os << ")\n";
  }
  if (count > limit) {
    os << "    ... (" << count - limit << " more)\n";
  }
  return os.str();
}

}  // namespace

const std::string& ProtocolHelpText() {
  static const std::string kHelp = StrCat(
      "ok help\n",
      "  open <s> [k=N] [threads=N] [memo=0|1] [deadline-ms=N]"
      " [mem-budget-mb=N] [session-deadline-ms=N] [session-mem-budget-mb=N]"
      " [reserve-mb=N] [cache=0|1] [cache-mb=N] [batch=0|1]"
      "  open a session\n",
      "  domain <s> <n>                    set the domain size\n",
      "  rel <s> <name>/<arity> <v..> ;    add or replace a relation\n",
      "  load <s> <path>                   load a database file\n",
      "  eval <id> <s> <query>             evaluate asynchronously\n",
      "  batch <s> begin                   start collecting a batch\n",
      "  batch <s> eval <id> <query>       add a query to the batch\n",
      "  batch <s> end                     plan shared work, run the batch\n",
      "  cancel <id>                       cancel an in-flight query\n",
      "  close <s>                         close a session\n",
      "  cache <s> on|off|clear            cross-query answer cache switch\n",
      "  cache <s> save|restore <file>     snapshot / prewarm the cache\n",
      "  stats [<s>]                       one-line counters\n",
      "  drain                             wait for all evals to finish\n",
      "  help                              this listing\n",
      "  quit                              shut down\n");
  return kHelp;
}

std::string FormatRelation(const Relation& rel, std::size_t limit) {
  return FormatRows(rel.size(), rel, limit);
}

std::string FormatAnswer(const ProjectedAnswer& answer, std::size_t limit) {
  return FormatRows(answer.Count(), answer.FirstRows(limit), limit);
}

std::string FormatResultBlock(std::uint64_t id, const Status& status,
                              const std::string& payload) {
  if (status.ok()) {
    return StrCat("result ", id, " ok\n", payload, "end ", id, "\n");
  }
  return StrCat("result ", id, " error ", StatusCodeName(status.code()),
                "\n  ", status.ToString(), "\nend ", id, "\n");
}

Server::Server(ServeOptions options)
    : options_(options), admission_(options.admission) {
  const std::size_t lanes =
      options_.executor_threads == 0 ? 1 : options_.executor_threads;
  workers_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void Server::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(task_mutex_);
    tasks_.push_back(std::move(task));
    ++busy_;
  }
  task_cv_.notify_one();
}

void Server::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(task_mutex_);
      task_cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutdown with an empty queue
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(task_mutex_);
      --busy_;
      if (busy_ == 0) idle_cv_.notify_all();
    }
  }
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(task_mutex_);
  idle_cv_.wait(lock, [this] { return busy_ == 0; });
}

Status Server::Open(const std::string& session, SessionOptions options,
                    Database db) {
  auto opened = sessions_.Open(session, std::move(db), options);
  return opened.ok() ? Status::OK() : opened.status();
}

Status Server::Close(const std::string& session) {
  auto found = sessions_.Get(session);
  if (!found.ok()) return found.status();
  // A batch still being collected has no submitted tasks; its ids would
  // otherwise sit in the registry forever. Dropping them here means those
  // ids never produce result blocks — closing mid-batch abandons it.
  {
    std::lock_guard<std::mutex> batch_lock(batch_mutex_);
    auto it = batches_.find(session);
    if (it != batches_.end() && it->second.session == *found) {
      std::lock_guard<std::mutex> lock(registry_mutex_);
      for (const auto& [id, text] : it->second.queries) in_flight_.erase(id);
      batches_.erase(it);
    }
  }
  // Cancel the session's in-flight queries; they finish as Cancelled on
  // the detached object after the name is released below.
  std::vector<CancelHandle> handles;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& [id, entry] : in_flight_) {
      if (entry.session == *found) handles.emplace_back(entry.cancel);
    }
  }
  for (const auto& handle : handles) handle.Cancel("session closed");
  return sessions_.Close(session);
}

Status Server::EvalAsyncWithId(std::uint64_t id, const std::string& session,
                               const std::string& query,
                               std::function<void(const EvalOutcome&)> done) {
  auto found = sessions_.Get(session);
  if (!found.ok()) return found.status();
  std::shared_ptr<Session> target = *found;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    if (in_flight_.count(id) != 0) {
      return Status::InvalidArgument(
          StrCat("query id ", id, " is already in flight"));
    }
    InFlight entry;
    entry.session = target;
    entry.cancel = std::make_shared<CancelState>();
    in_flight_.emplace(id, std::move(entry));
  }
  Submit([this, id, target, query, done = std::move(done)]() mutable {
    RunEval(id, target, query, std::move(done));
  });
  return Status::OK();
}

Result<std::uint64_t> Server::EvalAsync(
    const std::string& session, const std::string& query,
    std::function<void(const EvalOutcome&)> done) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    while (in_flight_.count(next_id_) != 0) ++next_id_;
    id = next_id_++;
  }
  Status s = EvalAsyncWithId(id, session, query, std::move(done));
  if (!s.ok()) return s;
  return id;
}

EvalOutcome Server::EvalSync(const std::string& session,
                             const std::string& query) {
  auto promise = std::make_shared<std::promise<EvalOutcome>>();
  auto future = promise->get_future();
  auto started = EvalAsync(session, query, [promise](const EvalOutcome& o) {
    promise->set_value(o);
  });
  if (!started.ok()) {
    EvalOutcome out;
    out.session = session;
    out.status = started.status();
    return out;
  }
  return future.get();
}

Status Server::BatchBegin(const std::string& session) {
  auto found = sessions_.Get(session);
  if (!found.ok()) return found.status();
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  auto [it, inserted] = batches_.emplace(session, PendingBatch{});
  if (!inserted) {
    return Status::InvalidArgument(
        StrCat("a batch is already in progress for session ", session));
  }
  it->second.session = *found;
  return Status::OK();
}

Status Server::BatchAddWithId(std::uint64_t id, const std::string& session,
                              const std::string& query) {
  std::lock_guard<std::mutex> batch_lock(batch_mutex_);
  auto it = batches_.find(session);
  if (it == batches_.end()) {
    return Status::InvalidArgument(
        StrCat("no batch in progress for session ", session));
  }
  {
    // Registering now is what makes `cancel <id>` work before BatchEnd:
    // the cancel flag is polled by admission and bound to the governor
    // when the query eventually runs, exactly like a queued eval.
    std::lock_guard<std::mutex> lock(registry_mutex_);
    if (in_flight_.count(id) != 0) {
      return Status::InvalidArgument(
          StrCat("query id ", id, " is already in flight"));
    }
    InFlight entry;
    entry.session = it->second.session;
    entry.cancel = std::make_shared<CancelState>();
    in_flight_.emplace(id, std::move(entry));
  }
  it->second.queries.emplace_back(id, query);
  return Status::OK();
}

Result<plan::BatchStats> Server::BatchEnd(
    const std::string& session, std::function<void(const EvalOutcome&)> done) {
  PendingBatch batch;
  {
    std::lock_guard<std::mutex> batch_lock(batch_mutex_);
    auto it = batches_.find(session);
    if (it == batches_.end()) {
      return Status::InvalidArgument(
          StrCat("no batch in progress for session ", session));
    }
    batch = std::move(it->second);
    batches_.erase(it);
  }
  std::shared_ptr<Session> target = batch.session;

  plan::BatchStats stats;
  stats.queries = batch.queries.size();
  // The kill switch (`open ... batch=0`), a disabled cache (nowhere to
  // materialize into), and trivial batches all degrade to plain serial
  // submission — same queries, same governors, byte-identical results.
  auto built = std::make_shared<plan::BatchPlan>();
  std::vector<std::size_t> planned;  // planner query index -> batch index
  if (target->options().batch && target->cache_enabled() &&
      batch.queries.size() >= 2) {
    std::vector<Query> parsed;
    for (std::size_t i = 0; i < batch.queries.size(); ++i) {
      // Unparseable queries stay out of the plan; their own eval reproduces
      // the identical parse error.
      auto q = ParseQuery(batch.queries[i].second);
      if (!q.ok()) continue;
      parsed.push_back(std::move(*q));
      planned.push_back(i);
    }
    std::shared_lock<std::shared_mutex> db_lock(target->db_mutex());
    auto plan = plan::PlanBatch(std::move(parsed), target->db(),
                                target->options().num_vars,
                                target->cache()->interner());
    if (plan.ok()) {
      *built = std::move(*plan);
      stats = built->stats;
      stats.queries = batch.queries.size();
    }
  }
  target->batches.fetch_add(1, std::memory_order_relaxed);
  target->batch_queries.fetch_add(stats.queries, std::memory_order_relaxed);
  target->batch_shared.fetch_add(stats.shared_nodes,
                                 std::memory_order_relaxed);
  target->batch_materialized.fetch_add(stats.materialized,
                                       std::memory_order_relaxed);

  // Cancellation slots of the batch's queries, for the executor's
  // refcounted ownership poll (planner query index -> slot).
  std::vector<std::shared_ptr<CancelState>> cancels(batch.queries.size());
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (std::size_t i = 0; i < batch.queries.size(); ++i) {
      auto it = in_flight_.find(batch.queries[i].first);
      if (it != in_flight_.end()) cancels[i] = it->second.cancel;
    }
  }

  // One orchestration task: materialize the shared nodes, then submit every
  // query through the ordinary eval path (admission, pooled per-query
  // governor, cancellation — all intact). The task submits and returns
  // rather than waiting on the roots, so a single-lane executor cannot
  // deadlock on its own batch.
  Submit([this, target, batch = std::move(batch), built,
          planned = std::move(planned), cancels = std::move(cancels),
          done = std::move(done)]() mutable {
    if (built->stats.materialized > 0) {
      std::shared_lock<std::shared_mutex> db_lock(target->db_mutex());
      plan::BatchExecOptions exec;
      exec.cache = target->cache();
      exec.eval = target->options().eval;
      exec.query_cancelled = [&](std::size_t qi) {
        const auto& cancel = cancels[planned[qi]];
        return cancel != nullptr &&
               cancel->requested.load(std::memory_order_acquire);
      };
      plan::MaterializeShared(*built, target->db(), exec);
    }
    for (const auto& [id, query] : batch.queries) {
      Submit([this, id, target, query = query, done]() mutable {
        RunEval(id, target, std::move(query), done);
      });
    }
  });
  return stats;
}

Status Server::Cancel(std::uint64_t id, const std::string& reason) {
  auto handle = Handle(id);
  if (!handle.ok()) return handle.status();
  handle->Cancel(reason);
  return Status::OK();
}

Result<CancelHandle> Server::Handle(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = in_flight_.find(id);
  if (it == in_flight_.end()) {
    return Status::NotFound(StrCat("no in-flight query with id ", id));
  }
  return CancelHandle(it->second.cancel);
}

void Server::RunEval(std::uint64_t id, std::shared_ptr<Session> session,
                     std::string query,
                     std::function<void(const EvalOutcome&)> done) {
  session->queries_started.fetch_add(1, std::memory_order_relaxed);
  EvalOutcome out;
  out.id = id;
  out.session = session->name();

  auto parsed = ParseQuery(query);
  if (!parsed.ok()) {
    out.status = parsed.status();
    FinishEval(id, session, std::move(out), done);
    return;
  }

  std::shared_ptr<CancelState> cancel;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = in_flight_.find(id);
    if (it != in_flight_.end()) cancel = it->second.cancel;
  }

  auto ticket = admission_.Admit(session->admission_reserve_bytes(),
                                 cancel ? &cancel->requested : nullptr);
  if (!ticket.ok()) {
    out.status = ticket.status();
    FinishEval(id, session, std::move(out), done);
    return;
  }
  out.queue_wait_ms = ticket->queue_wait_ms();

  std::shared_ptr<ResourceGovernor> governor = session->AcquireGovernor();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = in_flight_.find(id);
    if (it != in_flight_.end()) it->second.governor = governor;
  }
  if (cancel != nullptr) CancelHandle::BindGovernor(cancel, governor);

  {
    std::shared_lock<std::shared_mutex> db_lock(session->db_mutex());
    std::size_t num_vars = session->options().num_vars;
    const std::size_t needed = NumVariables(parsed->formula);
    if (needed > num_vars) num_vars = needed;
    BoundedEvalOptions eval_options = session->options().eval;
    eval_options.governor = governor.get();
    // The session cache persists across this query's lifetime: the shared
    // db lock held here guarantees the database (and so every relation
    // version a cache key can capture) is frozen for the whole evaluation,
    // which is what makes probe-then-export coherent.
    eval_options.answer_cache = session->cache();
    eval_options.cross_query_cache = session->cache_enabled();
    BoundedEvaluator eval(session->db(), num_vars, eval_options);
    const auto start = std::chrono::steady_clock::now();
    auto result = eval.EvaluateAnswer(*parsed);
    const auto stop = std::chrono::steady_clock::now();
    out.eval_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    out.eval_stats = eval.stats();
    if (result.ok()) {
      out.payload = FormatAnswer(*result, options_.payload_tuple_limit);
    } else {
      out.status = result.status();
    }
  }
  out.resource = governor->stats();
  session->memo_hits.fetch_add(out.eval_stats.memo_hits,
                               std::memory_order_relaxed);
  session->memo_misses.fetch_add(out.eval_stats.memo_misses,
                                 std::memory_order_relaxed);
  session->cache_hits.fetch_add(out.eval_stats.cache_hits,
                                std::memory_order_relaxed);
  session->cache_misses.fetch_add(out.eval_stats.cache_misses,
                                  std::memory_order_relaxed);
  governor.reset();  // registry's copy is the one FinishEval pools
  FinishEval(id, session, std::move(out), done);
}

void Server::FinishEval(std::uint64_t id,
                        const std::shared_ptr<Session>& session,
                        EvalOutcome outcome,
                        const std::function<void(const EvalOutcome&)>& done) {
  std::shared_ptr<ResourceGovernor> governor;
  std::shared_ptr<CancelState> cancel;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = in_flight_.find(id);
    if (it != in_flight_.end()) {
      governor = std::move(it->second.governor);
      cancel = std::move(it->second.cancel);
      in_flight_.erase(it);
    }
  }
  // Unbind the governor from the cancellation slot *before* deciding to
  // pool it: stale CancelHandles (Server::Handle copies, a canceller losing
  // the race with completion) keep the slot alive, and a weak_ptr that
  // still pointed at a pooled token would let a late Cancel() trip an
  // unrelated later query. Clearing it under the slot's mutex makes
  // "no-op after completion" actually hold.
  if (cancel != nullptr) {
    std::lock_guard<std::mutex> lock(cancel->mutex);
    cancel->governor.reset();
  }
  if (governor != nullptr) {
    // With the weak binding cleared, no *new* strong references can appear;
    // use_count()==1 therefore proves no canceller locked the token before
    // the unbind, so pooling is race-free. Otherwise a straggler still
    // holds it mid-Cancel(): drop our reference and let the token die with
    // the straggler's — it is never reused, so the cancel lands nowhere.
    if (governor.use_count() == 1) {
      session->ReleaseGovernor(std::move(governor));
    } else {
      governor.reset();
    }
  }
  auto& counter =
      outcome.status.ok() ? session->queries_ok : session->queries_failed;
  counter.fetch_add(1, std::memory_order_relaxed);
  if (done) done(outcome);
}

std::string Server::CacheFileFor(const std::string& session) const {
  if (options_.cache_dir.empty()) return std::string();
  // Session names are protocol tokens (no whitespace) but otherwise
  // unconstrained; percent-encode anything that could escape the directory
  // or upset a filesystem.
  std::string safe;
  safe.reserve(session.size());
  for (char c : session) {
    const bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                       c == '.';
    if (plain) {
      safe.push_back(c);
    } else {
      static const char* hex = "0123456789abcdef";
      safe.push_back('%');
      safe.push_back(hex[(static_cast<unsigned char>(c) >> 4) & 0xf]);
      safe.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return StrCat(options_.cache_dir, "/", safe, ".bvqcache");
}

Status Server::SaveSessionCache(const std::shared_ptr<Session>& session,
                                const std::string& path) {
  std::vector<AnswerCache::PortableEntry> entries;
  {
    std::shared_lock<std::shared_mutex> db_lock(session->db_mutex());
    entries = session->cache()->ExportResolved(session->db());
  }
  return SaveCacheSnapshotFile(path, entries);
}

Status Server::RestoreSessionCache(const std::shared_ptr<Session>& session,
                                   const std::string& path) {
  auto loaded = LoadCacheSnapshotFile(path);
  if (!loaded.ok()) return loaded.status();
  session->cache()->Restore(std::move(*loaded));
  std::shared_lock<std::shared_mutex> db_lock(session->db_mutex());
  session->cache()->ResolveAgainst(session->db());
  return Status::OK();
}

void Server::SaveAllSessionCaches() {
  if (options_.cache_dir.empty()) return;
  for (const std::string& name : sessions_.Names()) {
    auto session = sessions_.Get(name);
    if (!session.ok()) continue;  // closed concurrently
    Status s = SaveSessionCache(*session, CacheFileFor(name));
    if (!s.ok()) {
      std::fprintf(stderr, "bvqserve: cache snapshot for session %s: %s\n",
                   name.c_str(), s.ToString().c_str());
    }
  }
}

Result<std::string> Server::StatsLine(const std::string& session) const {
  if (session.empty()) {
    const AdmissionStats a = admission_.stats();
    return StrCat("stats sessions=", sessions_.size(),
                  " active=", a.active_queries, " queue=", a.queue_length,
                  " reserved_bytes=", a.reserved_bytes,
                  " peak_reserved_bytes=", a.peak_reserved_bytes,
                  " admitted=", a.admitted_total,
                  " rejected=", a.rejected_total, " queued=", a.queued_total,
                  " cancelled=", a.cancelled_total);
  }
  auto found = sessions_.Get(session);
  if (!found.ok()) return found.status();
  const ResourceStats r = (*found)->governor().stats();
  const Session::PoolStats p = (*found)->pool_stats();
  const AnswerCacheStats c = (*found)->cache()->stats();
  return StrCat(
      "stats session=", session, " queries=", (*found)->queries_started.load(),
      " ok=", (*found)->queries_ok.load(),
      " failed=", (*found)->queries_failed.load(),
      " live_bytes=", r.mem_current_bytes, " peak_bytes=", r.mem_peak_bytes,
      " pool_created=", p.created, " pool_reused=", p.reused,
      " memo_hits=", (*found)->memo_hits.load(),
      " memo_misses=", (*found)->memo_misses.load(),
      " cache=", (*found)->cache_enabled() ? 1 : 0,
      " cache_hits=", (*found)->cache_hits.load(),
      " cache_misses=", (*found)->cache_misses.load(),
      " cache_evictions=", c.evictions, " cache_bytes=", c.bytes,
      " cache_entries=", c.entries, " cache_restored=", c.restored,
      " cache_pending=", c.pending,
      " batch=", (*found)->options().batch ? 1 : 0,
      " batches=", (*found)->batches.load(),
      " batch_queries=", (*found)->batch_queries.load(),
      " batch_shared=", (*found)->batch_shared.load(),
      " batch_materialized=", (*found)->batch_materialized.load());
}

void Server::EmitChunk(const Emit& emit, const std::string& chunk) {
  std::lock_guard<std::mutex> lock(emit_mutex_);
  emit(chunk);
}

void Server::HandleLine(const std::string& line, const Emit& emit) {
  const std::string trimmed(StripAsciiWhitespace(line));
  if (trimmed.empty() || trimmed[0] == '#') return;
  std::istringstream is(trimmed);
  std::string cmd;
  is >> cmd;
  auto err = [&](const std::string& detail) {
    EmitChunk(emit, StrCat("err ", detail, "\n"));
  };
  auto ok = [&](const std::string& detail) {
    EmitChunk(emit, StrCat("ok ", detail, "\n"));
  };
  // Completion for `eval` and `batch ... end`. A fast query on another lane
  // could finish before this thread emits the submit ack; waiting on `ack`
  // pins the protocol order (ack, then block) so clients — and the shard
  // router, whose byte-identity contract depends on it — never see them
  // swapped.
  auto block_after = [this, &emit](std::shared_future<void> ack) {
    return [this, emit, ack](const EvalOutcome& o) {
      ack.wait();
      EmitChunk(emit, FormatResultBlock(o.id, o.status, o.payload));
    };
  };

  if (cmd == "quit") {
    closed_.store(true, std::memory_order_release);
    if (!options_.cache_dir.empty()) {
      // Let in-flight evals finish inserting before the final snapshot, so
      // a quit right after an eval batch persists that batch's warmth.
      Drain();
      SaveAllSessionCaches();
    }
    ok("quit");
    return;
  }
  if (cmd == "open") {
    std::string name;
    if (!(is >> name)) return err("open: missing session name");
    SessionOptions so;
    std::string kv;
    while (is >> kv) {
      const auto eq = kv.find('=');
      const std::string key = kv.substr(0, eq);
      std::size_t value = 0;
      if (eq == std::string::npos ||
          !ParseSizeT(std::string_view(kv).substr(eq + 1), &value)) {
        return err(StrCat("open ", name, ": expected key=<number>, got ", kv));
      }
      bool mib_ok = true;
      if (key == "k") {
        so.num_vars = value;
      } else if (key == "threads") {
        if (value > ThreadPool::MaxThreads()) {
          return err(StrCat("open ", name, ": threads=", value,
                            " exceeds the limit of ",
                            ThreadPool::MaxThreads()));
        }
        so.eval.num_threads = value;
      } else if (key == "memo") {
        so.eval.memo = value != 0;
      } else if (key == "deadline-ms") {
        so.query_limits.deadline_ms = value;
      } else if (key == "mem-budget-mb") {
        mib_ok = MiBToBytes(value, &so.query_limits.mem_budget_bytes);
      } else if (key == "session-deadline-ms") {
        so.session_limits.deadline_ms = value;
      } else if (key == "session-mem-budget-mb") {
        mib_ok = MiBToBytes(value, &so.session_limits.mem_budget_bytes);
      } else if (key == "reserve-mb") {
        mib_ok = MiBToBytes(value, &so.admission_reserve_bytes);
      } else if (key == "cache") {
        so.cross_query_cache = value != 0;
      } else if (key == "cache-mb") {
        mib_ok = MiBToBytes(value, &so.cache_max_bytes);
      } else if (key == "batch") {
        so.batch = value != 0;
      } else {
        return err(StrCat("open ", name, ": unknown option ", kv));
      }
      if (!mib_ok) {
        return err(StrCat("open ", name, ": ", kv, " overflows a byte count"));
      }
    }
    Status s = Open(name, so);
    if (!s.ok()) return err(StrCat("open ", name, ": ", s.ToString()));
    if (!options_.cache_dir.empty()) {
      // Prewarm from the session's snapshot if one exists. Advisory only:
      // a missing file is the normal cold case, and a bad one degrades to
      // misses — the ok line is the same either way.
      auto session = sessions_.Get(name);
      if (session.ok()) {
        Status restored = RestoreSessionCache(*session, CacheFileFor(name));
        if (!restored.ok() && restored.code() != StatusCode::kNotFound) {
          std::fprintf(stderr,
                       "bvqserve: ignoring cache snapshot for session %s: "
                       "%s\n",
                       name.c_str(), restored.ToString().c_str());
        }
      }
    }
    return ok(StrCat("open ", name));
  }
  if (cmd == "domain") {
    std::string name, tok;
    std::size_t n = 0;
    if (!(is >> name) || !(is >> tok) || !ParseSizeT(tok, &n)) {
      return err(StrCat("domain: expected <session> <n>, got ", trimmed));
    }
    auto session = sessions_.Get(name);
    if (!session.ok()) return err(StrCat("domain ", name, ": ",
                                         session.status().ToString()));
    {
      std::unique_lock<std::shared_mutex> db_lock((*session)->db_mutex());
      (*session)->db() = Database(n);
      (*session)->cache()->ResolveAgainst((*session)->db());
    }
    return ok(StrCat("domain ", name, " ", n));
  }
  if (cmd == "rel") {
    std::string name;
    if (!(is >> name)) return err("rel: missing session name");
    std::string rest;
    std::getline(is, rest);
    auto session = sessions_.Get(name);
    if (!session.ok()) {
      return err(StrCat("rel ", name, ": ", session.status().ToString()));
    }
    std::unique_lock<std::shared_mutex> db_lock((*session)->db_mutex());
    auto parsed = ParseDatabase(
        StrCat("domain ", (*session)->db().domain_size(), "\nrel ",
               TrimLeft(rest), "\n"));
    if (!parsed.ok()) {
      return err(StrCat("rel ", name, ": ", parsed.status().ToString()));
    }
    for (const auto& [rel_name, rel] : parsed->relations()) {
      Status s = (*session)->db().AddRelation(rel_name, rel);
      if (!s.ok()) return err(StrCat("rel ", name, ": ", s.ToString()));
    }
    (*session)->cache()->ResolveAgainst((*session)->db());
    return ok(StrCat("rel ", name));
  }
  if (cmd == "load") {
    std::string name;
    if (!(is >> name)) return err("load: missing session name");
    std::string rest;
    std::getline(is, rest);
    const std::string path(StripAsciiWhitespace(rest));
    auto session = sessions_.Get(name);
    if (!session.ok()) {
      return err(StrCat("load ", name, ": ", session.status().ToString()));
    }
    std::ifstream in(path);
    if (!in) return err(StrCat("load ", name, ": cannot open ", path));
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = ParseDatabase(buffer.str());
    if (!parsed.ok()) {
      return err(StrCat("load ", name, ": ", parsed.status().ToString()));
    }
    {
      std::unique_lock<std::shared_mutex> db_lock((*session)->db_mutex());
      (*session)->db() = std::move(*parsed);
      // Pending snapshot entries whose fingerprints match the freshly
      // loaded contents go live here — the restore-then-load prewarm path.
      (*session)->cache()->ResolveAgainst((*session)->db());
    }
    return ok(StrCat("load ", name));
  }
  if (cmd == "eval") {
    std::string id_tok, name;
    std::size_t id = 0;
    if (!(is >> id_tok) || !ParseSizeT(id_tok, &id) || !(is >> name)) {
      return err(StrCat("eval: expected <id> <session> <query>, got ",
                        trimmed));
    }
    std::string query;
    std::getline(is, query);
    std::promise<void> acked;
    Status s = EvalAsyncWithId(id, name, query,
                               block_after(acked.get_future().share()));
    if (!s.ok()) {
      acked.set_value();
      return err(StrCat("eval ", id, ": ", s.ToString()));
    }
    ok(StrCat("eval ", id));
    acked.set_value();
    return;
  }
  if (cmd == "batch") {
    std::string name, sub;
    if (!(is >> name) || !(is >> sub)) {
      return err(StrCat("batch: expected <session> begin|eval|end, got ",
                        trimmed));
    }
    if (sub == "begin") {
      Status s = BatchBegin(name);
      if (!s.ok()) return err(StrCat("batch ", name, " begin: ",
                                     s.ToString()));
      return ok(StrCat("batch ", name, " begin"));
    }
    if (sub == "eval") {
      std::string id_tok;
      std::size_t id = 0;
      if (!(is >> id_tok) || !ParseSizeT(id_tok, &id)) {
        return err(StrCat("batch: expected <session> eval <id> <query>, got ",
                          trimmed));
      }
      std::string query;
      std::getline(is, query);
      Status s = BatchAddWithId(id, name, query);
      if (!s.ok()) {
        return err(StrCat("batch ", name, " eval ", id, ": ", s.ToString()));
      }
      return ok(StrCat("batch ", name, " eval ", id));
    }
    if (sub == "end") {
      // The stats ok-line is this command's ack.
      std::promise<void> acked;
      auto ended = BatchEnd(name, block_after(acked.get_future().share()));
      if (!ended.ok()) {
        acked.set_value();
        return err(StrCat("batch ", name, " end: ",
                          ended.status().ToString()));
      }
      ok(StrCat("batch ", name, " end queries=", ended->queries,
                " nodes=", ended->nodes, " shared=", ended->shared_nodes,
                " materialized=", ended->materialized,
                " stages=", ended->stages,
                " dedup=", FormatRatio(ended->dedup_ratio)));
      acked.set_value();
      return;
    }
    return err(StrCat("batch ", name, ": expected begin|eval|end, got ",
                      sub));
  }
  if (cmd == "help") {
    EmitChunk(emit, ProtocolHelpText());
    return;
  }
  if (cmd == "cancel") {
    std::string id_tok;
    std::size_t id = 0;
    if (!(is >> id_tok) || !ParseSizeT(id_tok, &id)) {
      return err(StrCat("cancel: expected <id>, got ", trimmed));
    }
    Status s = Cancel(id);
    if (!s.ok()) return err(StrCat("cancel ", id, ": ", s.ToString()));
    return ok(StrCat("cancel ", id));
  }
  if (cmd == "close") {
    std::string name;
    if (!(is >> name)) return err("close: missing session name");
    if (!options_.cache_dir.empty()) {
      auto session = sessions_.Get(name);
      if (session.ok()) {
        Status saved = SaveSessionCache(*session, CacheFileFor(name));
        if (!saved.ok()) {
          std::fprintf(stderr,
                       "bvqserve: cache snapshot for session %s: %s\n",
                       name.c_str(), saved.ToString().c_str());
        }
      }
    }
    Status s = Close(name);
    if (!s.ok()) return err(StrCat("close ", name, ": ", s.ToString()));
    return ok(StrCat("close ", name));
  }
  if (cmd == "cache") {
    std::string name, action;
    if (!(is >> name) || !(is >> action)) {
      return err(StrCat("cache: expected <session> on|off|clear, got ",
                        trimmed));
    }
    auto session = sessions_.Get(name);
    if (!session.ok()) {
      return err(StrCat("cache ", name, ": ", session.status().ToString()));
    }
    if (action == "on") {
      (*session)->set_cache_enabled(true);
    } else if (action == "off") {
      (*session)->set_cache_enabled(false);
    } else if (action == "clear") {
      (*session)->cache()->Clear();
    } else if (action == "save" || action == "restore") {
      std::string rest;
      std::getline(is, rest);
      const std::string path(StripAsciiWhitespace(rest));
      if (path.empty()) {
        return err(StrCat("cache ", name, ": ", action, " needs a file"));
      }
      Status s = action == "save"
                     ? SaveSessionCache(*session, path)
                     : RestoreSessionCache(*session, path);
      if (!s.ok()) {
        return err(StrCat("cache ", name, " ", action, ": ", s.ToString()));
      }
    } else {
      return err(StrCat("cache ", name,
                        ": expected on|off|clear|save|restore, got ",
                        action));
    }
    return ok(StrCat("cache ", name, " ", action));
  }
  if (cmd == "drain") {
    // Synchronisation point for scripts: block until every submitted eval
    // has completed (its result block is emitted before the ok below).
    Drain();
    SaveAllSessionCaches();
    return ok("drain");
  }
  if (cmd == "stats") {
    std::string name;
    is >> name;  // optional
    auto stats = StatsLine(name);
    if (!stats.ok()) {
      return err(StrCat("stats ", name, ": ", stats.status().ToString()));
    }
    EmitChunk(emit, StrCat(*stats, "\n"));
    return;
  }
  // Echo the offending token, not the whole line (which may be long or
  // contain anything); `help` lists the real commands.
  err(StrCat("unknown command \"", cmd, "\"; try help"));
}

}  // namespace bvq::serve
