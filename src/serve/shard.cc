#include "serve/shard.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "serve/server.h"

namespace bvq::serve {

namespace {

// Shard tag for rewritten query ids: iid = (shard + 1) * kShardTagBase + seq.
// A human reading a router transcript can recover the shard from the id, and
// the ids live far above anything a client or a payload plausibly contains,
// which keeps whole-token rewriting collision-free in practice.
constexpr std::uint64_t kShardTagBase = 1'000'000'000'000ULL;

// A worker that dies faster than this after spawn counts as a fast failure
// (crash loop candidate) rather than an ordinary crash.
constexpr std::chrono::seconds kFastFailureWindow{2};

bool WriteAllFd(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Buffered newline-delimited reads from a raw fd. A trailing unterminated
// line is delivered before EOF is reported.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  bool ReadLine(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (buffer_.empty()) return false;
        line->assign(buffer_);
        buffer_.clear();
        return true;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

// Replaces every whole-token decimal occurrence of `from` with `to`.
// Used to restore client-supplied ids in worker control lines, whose error
// details may echo the id ("no in-flight query with id N").
std::string ReplaceIdToken(const std::string& line, std::uint64_t from,
                           std::uint64_t to) {
  const std::string needle = std::to_string(from);
  const std::string repl = std::to_string(to);
  std::string out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t hit = line.find(needle, pos);
    if (hit == std::string::npos) break;
    const std::size_t end = hit + needle.size();
    const bool left_ok =
        hit == 0 || std::isdigit(static_cast<unsigned char>(line[hit - 1])) == 0;
    const bool right_ok =
        end >= line.size() ||
        std::isdigit(static_cast<unsigned char>(line[end])) == 0;
    out.append(line, pos, hit - pos);
    out.append(left_ok && right_ok ? repl : needle);
    pos = end;
  }
  out.append(line, pos, std::string::npos);
  return out;
}

// Parses "eval <id> <session> ..." out of a trimmed request line; only a
// line with both a clean id and a session token is rewritable/routable —
// anything else is forwarded verbatim so the worker produces the exact
// single-process error text.
bool ParseEvalRequest(const std::string& trimmed, std::uint64_t* id,
                      std::string* session) {
  std::istringstream is(trimmed);
  std::string cmd, id_tok, name;
  if (!(is >> cmd) || cmd != "eval" || !(is >> id_tok)) return false;
  std::size_t value = 0;
  if (!ParseSizeT(id_tok, &value) || !(is >> name)) return false;
  *id = value;
  *session = name;
  return true;
}

// Parses "batch <session> eval <id> ..." out of a trimmed request line;
// same contract as ParseEvalRequest — anything malformed is forwarded
// verbatim for the worker's canonical error text.
bool ParseBatchEvalRequest(const std::string& trimmed, std::uint64_t* id,
                           std::string* session) {
  std::istringstream is(trimmed);
  std::string cmd, name, sub, id_tok;
  if (!(is >> cmd) || cmd != "batch" || !(is >> name) || !(is >> sub) ||
      sub != "eval" || !(is >> id_tok)) {
    return false;
  }
  std::size_t value = 0;
  if (!ParseSizeT(id_tok, &value)) return false;
  *id = value;
  *session = name;
  return true;
}

// Replaces the `index`-th whitespace-separated token (0-based) with the
// router id. Token `index` must exist — callers parsed the line first.
std::string RewriteIdAtToken(const std::string& trimmed, std::size_t index,
                             std::uint64_t iid) {
  std::size_t p = 0;
  for (std::size_t t = 0; t <= index; ++t) {
    while (p < trimmed.size() &&
           std::isspace(static_cast<unsigned char>(trimmed[p])) != 0) {
      ++p;
    }
    if (t == index) break;
    while (p < trimmed.size() &&
           std::isspace(static_cast<unsigned char>(trimmed[p])) == 0) {
      ++p;
    }
  }
  std::size_t q = p;
  while (q < trimmed.size() &&
         std::isspace(static_cast<unsigned char>(trimmed[q])) == 0) {
    ++q;
  }
  return trimmed.substr(0, p) + std::to_string(iid) + trimmed.substr(q);
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string ShardDownLine(std::size_t shard) {
  return StrCat("err shard ", shard, " down");
}

bool ParseCounter(std::string_view token, std::string_view key,
                  std::uint64_t* out) {
  if (token.size() <= key.size() + 1 ||
      token.compare(0, key.size(), key) != 0 || token[key.size()] != '=') {
    return false;
  }
  std::size_t value = 0;
  if (!ParseSizeT(token.substr(key.size() + 1), &value)) return false;
  *out = value;
  return true;
}

}  // namespace

std::size_t ShardForSession(std::string_view session,
                            std::size_t num_shards) {
  if (num_shards <= 1) return 0;
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const char c : session) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return static_cast<std::size_t>(h % num_shards);
}

std::size_t ShardShare(std::size_t total, std::size_t shard,
                       std::size_t num_shards) {
  if (total == 0 || num_shards == 0) return total;
  const std::size_t share =
      total / num_shards + (shard < total % num_shards ? 1 : 0);
  return share == 0 ? 1 : share;
}

bool ParseAggregateStats(std::string_view line, ShardStatsSnapshot* out) {
  std::istringstream is{std::string(line)};
  std::string head;
  if (!(is >> head) || head != "stats") return false;
  ShardStatsSnapshot snap;
  std::uint64_t v = 0;
  bool seen[9] = {};
  std::string tok;
  while (is >> tok) {
    if (ParseCounter(tok, "sessions", &v)) {
      snap.sessions = v;
      seen[0] = true;
    } else if (ParseCounter(tok, "active", &v)) {
      snap.active = v;
      seen[1] = true;
    } else if (ParseCounter(tok, "queue", &v)) {
      snap.queue = v;
      seen[2] = true;
    } else if (ParseCounter(tok, "reserved_bytes", &v)) {
      snap.reserved_bytes = v;
      seen[3] = true;
    } else if (ParseCounter(tok, "peak_reserved_bytes", &v)) {
      snap.peak_reserved_bytes = v;
      seen[4] = true;
    } else if (ParseCounter(tok, "admitted", &v)) {
      snap.admitted = v;
      seen[5] = true;
    } else if (ParseCounter(tok, "rejected", &v)) {
      snap.rejected = v;
      seen[6] = true;
    } else if (ParseCounter(tok, "queued", &v)) {
      snap.queued = v;
      seen[7] = true;
    } else if (ParseCounter(tok, "cancelled", &v)) {
      snap.cancelled = v;
      seen[8] = true;
    }
  }
  for (const bool s : seen) {
    if (!s) return false;
  }
  *out = snap;
  return true;
}

std::string MergeAggregateStats(const std::vector<ShardStatsSnapshot>& shards,
                                std::size_t shards_total) {
  ShardStatsSnapshot sum;
  for (const ShardStatsSnapshot& s : shards) {
    sum.sessions += s.sessions;
    sum.active += s.active;
    sum.queue += s.queue;
    sum.reserved_bytes += s.reserved_bytes;
    sum.peak_reserved_bytes += s.peak_reserved_bytes;
    sum.admitted += s.admitted;
    sum.rejected += s.rejected;
    sum.queued += s.queued;
    sum.cancelled += s.cancelled;
  }
  return StrCat("stats sessions=", sum.sessions, " active=", sum.active,
                " queue=", sum.queue, " reserved_bytes=", sum.reserved_bytes,
                " peak_reserved_bytes=", sum.peak_reserved_bytes,
                " admitted=", sum.admitted, " rejected=", sum.rejected,
                " queued=", sum.queued, " cancelled=", sum.cancelled,
                " shards=", shards_total, " up=", shards.size());
}

void ServeWorker(Server& server, int request_fd, int cancel_fd,
                 int response_fd) {
  std::signal(SIGPIPE, SIG_IGN);
  struct Out {
    std::mutex mutex;
    int fd;
    bool open = true;
  } out;
  out.fd = response_fd;
  auto emit = [&out](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(out.mutex);
    if (out.open) WriteAllFd(out.fd, chunk);
  };
  // Cancel-channel responses are single control lines; the "oob " tag tells
  // the router to match them against the cancel FIFO, not the request FIFO.
  auto oob_emit = [&out](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(out.mutex);
    if (out.open) WriteAllFd(out.fd, StrCat("oob ", chunk));
  };
  std::thread canceller;
  if (cancel_fd >= 0) {
    canceller = std::thread([&server, cancel_fd, &oob_emit] {
      FdLineReader reader(cancel_fd);
      std::string line;
      while (reader.ReadLine(&line)) server.HandleLine(line, oob_emit);
    });
  }
  FdLineReader reader(request_fd);
  std::string line;
  while (!server.closed() && reader.ReadLine(&line)) {
    server.HandleLine(line, emit);
  }
  server.Drain();
  // Latch before closing: a straggling oob emit must become a no-op, not a
  // write to a recycled descriptor.
  {
    std::lock_guard<std::mutex> lock(out.mutex);
    out.open = false;
  }
  ::close(response_fd);  // EOF to the router: this worker is done emitting
  // The router closes the cancel pipe when it sees our EOF, which unblocks
  // the canceller; joining keeps fd lifetimes simple in in-process workers.
  if (canceller.joinable()) canceller.join();
  if (cancel_fd >= 0) ::close(cancel_fd);
  ::close(request_fd);
}

ShardRouter::ShardRouter(Options options) : options_(std::move(options)) {
  std::signal(SIGPIPE, SIG_IGN);
  if (options_.num_shards == 0) options_.num_shards = 1;
  workers_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

Status ShardRouter::Start() {
  if (options_.worker_commands.size() != options_.num_shards) {
    return Status::InvalidArgument(
        StrCat("need one worker command per shard: have ",
               options_.worker_commands.size(), ", want ",
               options_.num_shards));
  }
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    Status s = SpawnWorker(i);
    if (!s.ok()) return s;
  }
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    workers_[i]->reader = std::thread([this, i] { ReaderLoop(i); });
  }
  return Status::OK();
}

Status ShardRouter::AttachWorker(std::size_t shard, int request_fd,
                                 int cancel_fd, int response_fd) {
  if (shard >= workers_.size()) {
    return Status::InvalidArgument(StrCat("no shard ", shard));
  }
  Worker& w = *workers_[shard];
  {
    std::lock_guard<std::mutex> wl(w.write_mutex);
    std::lock_guard<std::mutex> ql(w.queue_mutex);
    if (w.up || w.reader.joinable()) {
      return Status::InvalidArgument(
          StrCat("shard ", shard, " already has a worker"));
    }
    w.request_fd = request_fd;
    w.cancel_fd = cancel_fd;
    w.response_fd = response_fd;
    w.pid = -1;
    w.spawned_at = std::chrono::steady_clock::now();
    w.up = true;
  }
  w.reader = std::thread([this, shard] { ReaderLoop(shard); });
  return Status::OK();
}

std::shared_ptr<ShardRouter::Client> ShardRouter::NewClient(Emit emit) {
  return std::make_shared<Client>(std::move(emit));
}

bool ShardRouter::shard_up(std::size_t shard) const {
  if (shard >= workers_.size()) return false;
  std::lock_guard<std::mutex> lock(workers_[shard]->queue_mutex);
  return workers_[shard]->up;
}

std::size_t ShardRouter::restarts() const {
  // Acquire pairs with the release bump in ReaderLoop: whoever observes a
  // restart also observes the shard as not-yet-acked.
  return restarts_.load(std::memory_order_acquire);
}

std::uint64_t ShardRouter::AllocateId(std::size_t shard) {
  return (static_cast<std::uint64_t>(shard) + 1) * kShardTagBase + next_seq_++;
}

void ShardRouter::EraseRoute(std::uint64_t iid) {
  std::shared_ptr<Client> client;
  {
    std::lock_guard<std::mutex> lock(ids_mutex_);
    auto it = routes_.find(iid);
    if (it == routes_.end()) return;
    client = it->second.client;
    ids_.erase(it->second.orig);
    routes_.erase(it);
  }
  if (client != nullptr) {
    std::lock_guard<std::mutex> lock(client->mutex);
    client->inflight.erase(iid);
  }
}

bool ShardRouter::SendToWorker(Worker& w, const std::string& line,
                               Pending pending, bool oob) {
  std::lock_guard<std::mutex> wl(w.write_mutex);
  const auto wait = pending.wait;
  int fd = -1;
  {
    std::lock_guard<std::mutex> ql(w.queue_mutex);
    if (!w.up) return false;
    fd = oob ? w.cancel_fd : w.request_fd;
    if (fd < 0) return false;
    (oob ? w.oob_pending : w.pending).push_back(std::move(pending));
  }
  if (WriteAllFd(fd, StrCat(line, "\n"))) return true;
  // The write failed (worker died mid-send). Retract our entry unless the
  // reader's teardown already consumed-and-answered it.
  std::lock_guard<std::mutex> ql(w.queue_mutex);
  auto& queue = oob ? w.oob_pending : w.pending;
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    if (it->wait == wait) {
      queue.erase(std::next(it).base());
      return false;
    }
  }
  return false;
}

void ShardRouter::RouteToShard(const std::shared_ptr<Client>& client,
                               std::size_t shard, const std::string& line,
                               Pending pending, bool oob) {
  auto wait = std::make_shared<OpWait>();
  wait->remaining = 1;
  pending.wait = wait;
  pending.client = client;
  const Pending::Kind kind = pending.kind;
  const std::uint64_t iid = pending.iid;
  const std::uint64_t orig = pending.orig;
  const std::string session = pending.session;
  if (!SendToWorker(*workers_[shard], line, std::move(pending), oob)) {
    if (kind == Pending::Kind::kEval || kind == Pending::Kind::kBatchEval) {
      EraseRoute(iid);
    }
    client->emit(StrCat(ShardDownLine(shard), "\n"));
    return;
  }
  std::string response;
  {
    std::unique_lock<std::mutex> lock(wait->mutex);
    wait->cv.wait(lock, [&wait] { return wait->remaining == 0; });
    // The usual path: the reader thread already post-processed and emitted
    // the response, interleaved in the worker's own pipe order (an eval's
    // submit ack must reach the client before the result block that the
    // worker wrote right after it). This thread only had to wait.
    if (wait->emitted) return;
    // Failure path (worker died mid-request): HandleWorkerDown answered
    // the wait without emitting, so finish the job here.
    response = wait->responses.empty() ? ShardDownLine(shard)
                                       : wait->responses.front();
  }
  switch (kind) {
    case Pending::Kind::kOpen:
      if (StartsWith(response, "ok open")) {
        std::lock_guard<std::mutex> lock(workers_[shard]->queue_mutex);
        workers_[shard]->sessions.insert(session);
      }
      break;
    case Pending::Kind::kClose:
      if (StartsWith(response, "ok close")) {
        std::lock_guard<std::mutex> lock(workers_[shard]->queue_mutex);
        workers_[shard]->sessions.erase(session);
      }
      break;
    case Pending::Kind::kEval:
      // Submission failed (unknown session, duplicate, shard down): no
      // result block will ever arrive, so retire the route here.
      if (!StartsWith(response, "ok eval")) EraseRoute(iid);
      response = ReplaceIdToken(response, iid, orig);
      break;
    case Pending::Kind::kBatchEval:
      if (!StartsWith(response, "ok batch")) EraseRoute(iid);
      response = ReplaceIdToken(response, iid, orig);
      break;
    case Pending::Kind::kCancel:
      response = ReplaceIdToken(response, iid, orig);
      break;
    default:
      break;
  }
  client->emit(StrCat(response, "\n"));
}

void ShardRouter::FanOut(
    const std::shared_ptr<Client>& client, const std::string& line,
    Pending::Kind kind,
    const std::function<std::string(std::vector<std::string>, std::size_t)>&
        merge,
    bool skip_unacked) {
  auto wait = std::make_shared<OpWait>();
  wait->remaining = options_.num_shards;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    if (skip_unacked &&
        !workers_[i]->acked.load(std::memory_order_acquire)) {
      ++failed;
      continue;
    }
    Pending p;
    p.kind = kind;
    p.wait = wait;
    if (!SendToWorker(*workers_[i], line, std::move(p), false)) ++failed;
  }
  std::vector<std::string> responses;
  {
    std::unique_lock<std::mutex> lock(wait->mutex);
    wait->remaining -= failed;
    wait->cv.wait(lock, [&wait] { return wait->remaining == 0; });
    responses = std::move(wait->responses);
  }
  client->emit(StrCat(merge(std::move(responses), options_.num_shards), "\n"));
}

void ShardRouter::HandleEval(const std::shared_ptr<Client>& client,
                             const std::string& line, std::uint64_t orig,
                             const std::string& session, std::size_t shard,
                             Pending::Kind kind, std::size_t id_token_index) {
  std::uint64_t iid = 0;
  {
    std::lock_guard<std::mutex> lock(ids_mutex_);
    if (ids_.count(orig) != 0) {
      // The single-process server rejects an in-flight id reuse; the router
      // enforces the same contract fleet-wide, with the same bytes.
      const std::string prefix =
          kind == Pending::Kind::kBatchEval
              ? StrCat("batch ", session, " eval ", orig)
              : StrCat("eval ", orig);
      client->emit(StrCat(
          "err ", prefix, ": ",
          Status::InvalidArgument(
              StrCat("query id ", orig, " is already in flight"))
              .ToString(),
          "\n"));
      return;
    }
    iid = AllocateId(shard);
    ids_[orig] = iid;
    routes_[iid] = Route{client, orig, shard};
  }
  {
    std::lock_guard<std::mutex> lock(client->mutex);
    client->inflight.insert(iid);
  }
  Pending p;
  p.kind = kind;
  p.iid = iid;
  p.orig = orig;
  RouteToShard(client, shard, RewriteIdAtToken(line, id_token_index, iid),
               std::move(p), false);
}

void ShardRouter::HandleCancel(const std::shared_ptr<Client>& client,
                               std::uint64_t orig) {
  std::uint64_t iid = 0;
  std::size_t shard = 0;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(ids_mutex_);
    auto it = ids_.find(orig);
    if (it != ids_.end()) {
      iid = it->second;
      shard = routes_.at(iid).shard;
      found = true;
    }
  }
  if (!found) {
    client->emit(StrCat(
        "err cancel ", orig, ": ",
        Status::NotFound(StrCat("no in-flight query with id ", orig))
            .ToString(),
        "\n"));
    return;
  }
  Pending p;
  p.kind = Pending::Kind::kCancel;
  p.iid = iid;
  p.orig = orig;
  // Over the cancel channel so it lands even while the request pipe is
  // blocked behind a drain — the whole point of a remote cancel.
  RouteToShard(client, shard, StrCat("cancel ", iid), std::move(p),
               /*oob=*/true);
}

void ShardRouter::DetachClient(const std::shared_ptr<Client>& client) {
  std::vector<std::uint64_t> iids;
  {
    std::lock_guard<std::mutex> lock(client->mutex);
    iids.assign(client->inflight.begin(), client->inflight.end());
  }
  for (const std::uint64_t iid : iids) {
    std::size_t shard = 0;
    {
      std::lock_guard<std::mutex> lock(ids_mutex_);
      auto it = routes_.find(iid);
      if (it == routes_.end()) continue;
      shard = it->second.shard;
    }
    Pending p;
    p.kind = Pending::Kind::kInternal;
    SendToWorker(*workers_[shard], StrCat("cancel ", iid), std::move(p),
                 /*oob=*/true);
  }
}

void ShardRouter::HandleLine(const std::shared_ptr<Client>& client,
                             const std::string& line) {
  const std::string trimmed(StripAsciiWhitespace(line));
  if (trimmed.empty() || trimmed[0] == '#') return;
  std::istringstream is(trimmed);
  std::string cmd;
  is >> cmd;

  if (cmd == "quit") {
    // Flag first: reader threads treat worker EOF after this as an orderly
    // exit, not a crash to restart.
    closing_.store(true, std::memory_order_release);
    FanOut(client, trimmed, Pending::Kind::kBarrier,
           [](std::vector<std::string>, std::size_t) {
             return std::string("ok quit");
           });
    closed_.store(true, std::memory_order_release);
    return;
  }
  if (cmd == "drain") {
    FanOut(client, trimmed, Pending::Kind::kBarrier,
           [](std::vector<std::string>, std::size_t) {
             return std::string("ok drain");
           });
    return;
  }
  if (cmd == "stats") {
    std::string name;
    is >> name;  // optional
    if (name.empty()) {
      FanOut(
          client, trimmed, Pending::Kind::kBarrier,
          [](std::vector<std::string> responses, std::size_t total) {
            std::vector<ShardStatsSnapshot> snaps;
            ShardStatsSnapshot snap;
            for (const std::string& r : responses) {
              if (ParseAggregateStats(r, &snap)) snaps.push_back(snap);
            }
            return MergeAggregateStats(snaps, total);
          },
          /*skip_unacked=*/true);
      return;
    }
    RouteToShard(client, ShardForSession(name, options_.num_shards), trimmed,
                 Pending{}, false);
    return;
  }
  if (cmd == "eval") {
    std::uint64_t orig = 0;
    std::string session;
    if (ParseEvalRequest(trimmed, &orig, &session)) {
      HandleEval(client, trimmed, orig, session,
                 ShardForSession(session, options_.num_shards),
                 Pending::Kind::kEval, /*id_token_index=*/1);
    } else {
      // Malformed: any worker produces the exact single-process error.
      RouteToShard(client, 0, trimmed, Pending{}, false);
    }
    return;
  }
  if (cmd == "help") {
    // Answered locally: a multi-line response must never enter the
    // per-shard control FIFO (one control line per request), and the text
    // is identical on every worker anyway.
    client->emit(ProtocolHelpText());
    return;
  }
  if (cmd == "batch") {
    // Batches are session-affine; everything goes to the session's shard.
    // `batch <s> eval <id> <query>` needs the same id rewrite as a plain
    // eval so the result block demuxes back to this client.
    std::string name;
    if (!(is >> name)) {
      // Missing session name: the worker echoes the usage error.
      RouteToShard(client, 0, trimmed, Pending{}, false);
      return;
    }
    const std::size_t shard = ShardForSession(name, options_.num_shards);
    std::uint64_t orig = 0;
    std::string session;
    if (ParseBatchEvalRequest(trimmed, &orig, &session)) {
      HandleEval(client, trimmed, orig, session, shard,
                 Pending::Kind::kBatchEval, /*id_token_index=*/3);
    } else {
      // begin / end / malformed: forwarded verbatim, one control line back.
      RouteToShard(client, shard, trimmed, Pending{}, false);
    }
    return;
  }
  if (cmd == "cancel") {
    std::string id_tok;
    std::size_t orig = 0;
    if ((is >> id_tok) && ParseSizeT(id_tok, &orig)) {
      HandleCancel(client, orig);
    } else {
      RouteToShard(client, 0, trimmed, Pending{}, false);
    }
    return;
  }
  if (cmd == "open" || cmd == "close" || cmd == "domain" || cmd == "rel" ||
      cmd == "load" || cmd == "cache") {
    std::string name;
    if (!(is >> name)) {
      // Missing session name: the worker echoes the usage error.
      RouteToShard(client, 0, trimmed, Pending{}, false);
      return;
    }
    Pending p;
    if (cmd == "open") {
      p.kind = Pending::Kind::kOpen;
      p.session = name;
    } else if (cmd == "close") {
      p.kind = Pending::Kind::kClose;
      p.session = name;
    }
    RouteToShard(client, ShardForSession(name, options_.num_shards), trimmed,
                 std::move(p), false);
    return;
  }
  // Unknown command: shard 0 generates the canonical error line.
  RouteToShard(client, 0, trimmed, Pending{}, false);
}

void ShardRouter::ReaderLoop(std::size_t shard) {
  Worker& w = *workers_[shard];
  for (;;) {
    int response_fd = -1;
    {
      std::lock_guard<std::mutex> lock(w.queue_mutex);
      response_fd = w.response_fd;
    }
    FdLineReader reader(response_fd);
    std::string line;
    std::string block;
    std::uint64_t block_iid = 0;
    bool in_block = false;
    while (reader.ReadLine(&line)) {
      if (!w.acked.load(std::memory_order_relaxed)) {
        // First line from a respawned process: it is demonstrably alive and
        // answering, so sessionless stats may count it again.
        w.acked.store(true, std::memory_order_release);
      }
      if (in_block) {
        block.append(line);
        block.push_back('\n');
        if (line == StrCat("end ", block_iid)) {
          in_block = false;
          HandleBlock(shard, block_iid, std::move(block));
          block.clear();
        }
        continue;
      }
      if (StartsWith(line, "result ")) {
        std::istringstream bs(line);
        std::string head, id_tok;
        std::size_t iid = 0;
        if ((bs >> head >> id_tok) && ParseSizeT(id_tok, &iid)) {
          in_block = true;
          block_iid = iid;
          block = line;
          block.push_back('\n');
          continue;
        }
      }
      if (StartsWith(line, "oob ")) {
        HandleControlLine(shard, line.substr(4), /*oob=*/true);
        continue;
      }
      HandleControlLine(shard, line, /*oob=*/false);
    }
    // EOF: the worker is gone. A partial block's route is still registered,
    // so the teardown below reports it as shard-down.
    HandleWorkerDown(shard);
    if (closing_.load(std::memory_order_acquire)) return;
    if (options_.worker_commands.empty()) return;  // attached: no respawn
    const auto lifetime = std::chrono::steady_clock::now() - w.spawned_at;
    if (lifetime < kFastFailureWindow) {
      if (++w.fast_failures > options_.max_restarts) {
        std::fprintf(stderr,
                     "bvqserve: shard %zu crash-looping, giving up after %zu "
                     "fast restarts\n",
                     shard, options_.max_restarts);
        return;
      }
    } else {
      w.fast_failures = 0;
    }
    if (!SpawnWorker(shard).ok()) return;
    // Unacked until the fresh process writes a line back; the store must
    // precede the restarts_ bump so anyone observing the restart count also
    // observes the shard as not-yet-answering.
    w.acked.store(false, std::memory_order_release);
    restarts_.fetch_add(1, std::memory_order_release);
    std::fprintf(stderr, "bvqserve: shard %zu restarted (pid %d)\n", shard,
                 static_cast<int>(w.pid));
    // Probe the fresh process on the request FIFO. Its reply (swallowed
    // here) is what re-acks the shard — no client traffic required.
    Pending probe;
    probe.kind = Pending::Kind::kInternal;
    SendToWorker(w, "stats", std::move(probe), false);
  }
}

void ShardRouter::HandleControlLine(std::size_t shard, const std::string& line,
                                    bool oob) {
  Worker& w = *workers_[shard];
  Pending entry;
  bool have = false;
  {
    std::lock_guard<std::mutex> lock(w.queue_mutex);
    auto& queue = oob ? w.oob_pending : w.pending;
    if (!queue.empty()) {
      entry = std::move(queue.front());
      queue.pop_front();
      have = true;
    }
  }
  if (!have) {
    std::fprintf(stderr, "bvqserve: shard %zu unmatched response: %s\n", shard,
                 line.c_str());
    return;
  }
  if (entry.wait == nullptr) return;  // kInternal: swallowed
  if (entry.client != nullptr) {
    // Single-shard request: post-process and emit from this thread so the
    // control line lands in the worker's pipe order — the eval ack before
    // the result block the worker wrote right behind it. Handing the line
    // to the waiting HandleLine thread would race that block's emit.
    std::string response = line;
    switch (entry.kind) {
      case Pending::Kind::kOpen:
        if (StartsWith(response, "ok open")) {
          std::lock_guard<std::mutex> lock(w.queue_mutex);
          w.sessions.insert(entry.session);
        }
        break;
      case Pending::Kind::kClose:
        if (StartsWith(response, "ok close")) {
          std::lock_guard<std::mutex> lock(w.queue_mutex);
          w.sessions.erase(entry.session);
        }
        break;
      case Pending::Kind::kEval:
        // Submission failed (unknown session, duplicate): no result block
        // will ever arrive, so retire the route here.
        if (!StartsWith(response, "ok eval")) EraseRoute(entry.iid);
        response = ReplaceIdToken(response, entry.iid, entry.orig);
        break;
      case Pending::Kind::kBatchEval:
        if (!StartsWith(response, "ok batch")) EraseRoute(entry.iid);
        response = ReplaceIdToken(response, entry.iid, entry.orig);
        break;
      case Pending::Kind::kCancel:
        response = ReplaceIdToken(response, entry.iid, entry.orig);
        break;
      default:
        break;
    }
    entry.client->emit(StrCat(response, "\n"));
    {
      std::lock_guard<std::mutex> lock(entry.wait->mutex);
      entry.wait->responses.push_back(line);
      --entry.wait->remaining;
      entry.wait->emitted = true;
    }
    entry.wait->cv.notify_all();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(entry.wait->mutex);
    entry.wait->responses.push_back(line);
    --entry.wait->remaining;
  }
  entry.wait->cv.notify_all();
}

void ShardRouter::HandleBlock(std::size_t shard, std::uint64_t iid,
                              std::string block) {
  Route route;
  {
    std::lock_guard<std::mutex> lock(ids_mutex_);
    auto it = routes_.find(iid);
    if (it == routes_.end()) return;  // torn down or duplicate: drop
    route = it->second;
    ids_.erase(it->second.orig);
    routes_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(route.client->mutex);
    route.client->inflight.erase(iid);
  }
  // Restore the client's id in the frame lines only; payload bytes are
  // untouched (they cannot contain a shard-tagged id, and byte-identity to
  // the single-process run is the contract).
  const std::string old_head = StrCat("result ", iid);
  const std::string old_tail = StrCat("end ", iid, "\n");
  if (StartsWith(block, old_head)) {
    block.replace(0, old_head.size(), StrCat("result ", route.orig));
  }
  if (block.size() >= old_tail.size() &&
      block.compare(block.size() - old_tail.size(), old_tail.size(),
                    old_tail) == 0) {
    block.replace(block.size() - old_tail.size(), old_tail.size(),
                  StrCat("end ", route.orig, "\n"));
  }
  route.client->emit(block);
  (void)shard;
}

void ShardRouter::HandleWorkerDown(std::size_t shard) {
  Worker& w = *workers_[shard];
  std::deque<Pending> pending, oob_pending;
  std::set<std::string> sessions;
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(w.queue_mutex);
    w.up = false;
    pending.swap(w.pending);
    oob_pending.swap(w.oob_pending);
    sessions.swap(w.sessions);
    pid = w.pid;
    w.pid = -1;
  }
  {
    // Closing the write ends wakes an in-process worker's reader threads;
    // write_mutex first so no writer is mid-write on a dying fd.
    std::lock_guard<std::mutex> wl(w.write_mutex);
    std::lock_guard<std::mutex> ql(w.queue_mutex);
    if (w.request_fd >= 0) ::close(w.request_fd);
    if (w.cancel_fd >= 0) ::close(w.cancel_fd);
    if (w.response_fd >= 0) ::close(w.response_fd);
    w.request_fd = w.cancel_fd = w.response_fd = -1;
  }
  // Answer every waiter with the down line. Evals that never got their
  // submit ack also retire their route here, *before* the sweep below, so
  // the client sees one error (the control line), not an error plus a block.
  const std::string down = ShardDownLine(shard);
  auto fail_queue = [&](std::deque<Pending>& queue) {
    for (Pending& entry : queue) {
      if (entry.kind == Pending::Kind::kEval ||
          entry.kind == Pending::Kind::kBatchEval) {
        EraseRoute(entry.iid);
      }
      if (entry.wait == nullptr) continue;
      {
        std::lock_guard<std::mutex> lock(entry.wait->mutex);
        entry.wait->responses.push_back(down);
        --entry.wait->remaining;
      }
      entry.wait->cv.notify_all();
    }
  };
  fail_queue(pending);
  fail_queue(oob_pending);
  // Acknowledged in-flight evals: their blocks died with the worker, so the
  // router completes them as Unavailable — graceful degradation, never a
  // client (or router) hang.
  std::vector<std::pair<std::uint64_t, Route>> dead;
  {
    std::lock_guard<std::mutex> lock(ids_mutex_);
    for (auto it = routes_.begin(); it != routes_.end();) {
      if (it->second.shard == shard) {
        dead.emplace_back(it->first, it->second);
        ids_.erase(it->second.orig);
        it = routes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const Status unavailable =
      Status::Unavailable(StrCat("shard ", shard, " down"));
  for (const auto& [iid, route] : dead) {
    {
      std::lock_guard<std::mutex> lock(route.client->mutex);
      route.client->inflight.erase(iid);
    }
    route.client->emit(FormatResultBlock(route.orig, unavailable, ""));
  }
  if (pid > 0) ::waitpid(pid, nullptr, 0);
  if (!closing_.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "bvqserve: shard %zu down%s%s\n", shard,
                 sessions.empty() ? "" : ", sessions closed: ",
                 sessions.empty() ? "" : StrJoin(sessions, ", ").c_str());
  }
}

Status ShardRouter::SpawnWorker(std::size_t shard) {
  Worker& w = *workers_[shard];
  const std::vector<std::string>& base = options_.worker_commands[shard];
  if (base.empty()) {
    return Status::InvalidArgument(
        StrCat("empty worker command for shard ", shard));
  }
  int req[2] = {-1, -1}, can[2] = {-1, -1}, resp[2] = {-1, -1};
  if (::pipe2(req, O_CLOEXEC) != 0 || ::pipe2(can, O_CLOEXEC) != 0 ||
      ::pipe2(resp, O_CLOEXEC) != 0) {
    for (const int fd : {req[0], req[1], can[0], can[1], resp[0], resp[1]}) {
      if (fd >= 0) ::close(fd);
    }
    return Status::Internal(StrCat("pipe2 failed: ", std::strerror(errno)));
  }
  // argv is materialized before fork: the child must only dup2/exec.
  std::vector<std::string> args = base;
  args.push_back("--cancel-fd=3");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {req[0], req[1], can[0], can[1], resp[0], resp[1]}) {
      ::close(fd);
    }
    return Status::Internal(StrCat("fork failed: ", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: request pipe on stdin, response pipe on stdout, cancel pipe on
    // fd 3 (dup2 clears O_CLOEXEC; if it already *is* 3, clear it by hand).
    ::dup2(req[0], 0);
    ::dup2(resp[1], 1);
    if (can[0] == 3) {
      ::fcntl(3, F_SETFD, 0);
    } else {
      ::dup2(can[0], 3);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(req[0]);
  ::close(can[0]);
  ::close(resp[1]);
  {
    std::lock_guard<std::mutex> wl(w.write_mutex);
    std::lock_guard<std::mutex> ql(w.queue_mutex);
    w.request_fd = req[1];
    w.cancel_fd = can[1];
    w.response_fd = resp[0];
    w.pid = pid;
    w.spawned_at = std::chrono::steady_clock::now();
    w.up = true;
  }
  return Status::OK();
}

void ShardRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  closing_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    Pending p;
    p.kind = Pending::Kind::kInternal;
    // Best-effort orderly quit; the fd close right after is the backstop.
    SendToWorker(w, "quit", std::move(p), false);
    std::lock_guard<std::mutex> wl(w.write_mutex);
    std::lock_guard<std::mutex> ql(w.queue_mutex);
    if (w.request_fd >= 0) ::close(w.request_fd);
    if (w.cancel_fd >= 0) ::close(w.cancel_fd);
    w.request_fd = w.cancel_fd = -1;
  }
  for (const auto& worker : workers_) {
    if (worker->reader.joinable()) worker->reader.join();
  }
  // Readers reap on EOF; anything left (Start() failed mid-way) is swept up.
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->queue_mutex);
    if (worker->pid > 0) {
      ::waitpid(worker->pid, nullptr, 0);
      worker->pid = -1;
    }
    if (worker->response_fd >= 0) ::close(worker->response_fd);
    worker->response_fd = -1;
    worker->up = false;
  }
}

}  // namespace bvq::serve
