#ifndef BVQ_SERVE_SHARD_H_
#define BVQ_SERVE_SHARD_H_

// Sharded multi-process serving (DESIGN.md §12): a ShardRouter in front of
// N worker processes, each running the ordinary single-process serve::Server
// over a pipe pair speaking the newline request protocol. The router
//
//   - hashes every session name onto a shard (ShardForSession, stable
//     across processes and restarts) and forwards that session's request
//     lines verbatim to its worker,
//   - rewrites client-supplied eval ids into router-global ids carrying a
//     shard tag, so concurrent clients can reuse ids freely per the
//     single-process contract while every in-flight id stays unique across
//     the fleet, and demultiplexes the asynchronous `result .. end` blocks
//     back to the submitting client with the original id restored,
//   - fans `stats` (no session) and `drain` out to every live shard and
//     merges the responses into one consolidated answer,
//   - detects worker crash/EOF, fails the affected in-flight work with
//     `shard <i> down` (never a hang), restarts the worker, and treats the
//     dead worker's sessions as closed.
//
// Wire framing between router and worker (all newline-delimited text):
//
//   router → worker, request pipe:  request lines exactly as the protocol
//     defines them. The worker answers every non-ignored line with exactly
//     one control line (`ok ..` / `err ..` / `stats ..`) in request order,
//     which is what lets the router match responses to waiting clients with
//     a per-shard FIFO — plus, later, one `result/end` block per eval.
//   router → worker, cancel pipe:   `cancel <id>` lines only. A dedicated
//     worker thread serves these so a cancel is never queued behind a
//     blocking `drain` on the request pipe (the whole point of cancelling).
//   worker → router, response pipe: control lines, `result <id> ..`/
//     `end <id>` blocks (block lines are contiguous: the worker emits each
//     block as one atomic chunk), and cancel-channel responses prefixed
//     `oob ` so they match the cancel FIFO instead of the request FIFO.

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"

namespace bvq::serve {

class Server;

/// Stable session→shard placement: FNV-1a over the name, mod `num_shards`.
/// Deterministic across processes, platforms, and restarts, so a router can
/// be rebuilt (or a fleet resized offline) without a placement table.
std::size_t ShardForSession(std::string_view session, std::size_t num_shards);

/// Splits an aggregate admission quantity across `num_shards` workers:
/// shard `shard` gets total/num_shards plus one unit of the remainder.
/// 0 stays 0 (meaning "unlimited" everywhere in AdmissionOptions); any
/// nonzero total yields at least 1 per shard so a split can never turn a
/// finite budget into an unlimited one (the fleet-wide sum may then exceed
/// `total` when total < num_shards).
std::size_t ShardShare(std::size_t total, std::size_t shard,
                       std::size_t num_shards);

/// One worker's aggregate `stats` line, parsed for consolidation.
struct ShardStatsSnapshot {
  std::size_t sessions = 0;
  std::size_t active = 0;
  std::size_t queue = 0;
  std::size_t reserved_bytes = 0;
  std::size_t peak_reserved_bytes = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t queued = 0;
  std::uint64_t cancelled = 0;
};

/// Parses a Server aggregate stats line ("stats sessions=.. active=.. ..").
/// Returns false (leaving *out untouched) unless every counter is present
/// with a clean number.
bool ParseAggregateStats(std::string_view line, ShardStatsSnapshot* out);

/// Merges per-shard snapshots into one consolidated stats line: every
/// counter summed, with ` shards=<total> up=<responding>` appended. The
/// field order matches the single-process line so existing scrapers keep
/// working; peak_reserved_bytes is the sum of per-shard peaks (an upper
/// bound on the true fleet-wide peak, which no shard can observe alone).
std::string MergeAggregateStats(const std::vector<ShardStatsSnapshot>& shards,
                                std::size_t shards_total);

/// Runs one worker's serving loop over raw fds: request lines are read from
/// `request_fd`, cancel lines from `cancel_fd` (a dedicated thread; pass -1
/// for none), responses written to `response_fd` — control responses for
/// cancel-channel lines are prefixed "oob ". Returns after the request
/// stream ends (EOF or `quit`) and every in-flight query has drained; all
/// three fds are closed. Shared by bvqserve's worker mode and the in-process
/// test workers.
void ServeWorker(Server& server, int request_fd, int cancel_fd,
                 int response_fd);

/// The router. Thread-safe: many client threads may call HandleLine
/// concurrently; one internal reader thread per shard routes responses.
/// HandleLine is synchronous for control responses — it emits the worker's
/// control line before returning, which preserves the single-process
/// contract that a script sees its `ok`/`err` in request order — while eval
/// result blocks arrive asynchronously on the submitting client's emit.
class ShardRouter {
 public:
  using Emit = std::function<void(const std::string&)>;

  struct Options {
    std::size_t num_shards = 2;
    /// Per-shard argv for fork/exec (size must equal num_shards when
    /// non-empty). The router appends `--cancel-fd=3` itself. Empty:
    /// workers are attached externally (AttachWorker, tests) and a dead
    /// shard stays down instead of restarting.
    std::vector<std::vector<std::string>> worker_commands;
    /// Consecutive fast failures (death within ~2 s of spawn) after which a
    /// shard is abandoned rather than restarted — a crash-looping worker
    /// must not melt the router.
    std::size_t max_restarts = 3;
  };

  /// One connected front-end client. The emit must be internally
  /// thread-safe (the TCP write path and the stdout path both are): result
  /// blocks are pushed from shard reader threads while control responses
  /// come from the client's own HandleLine calls.
  struct Client {
    explicit Client(Emit emit) : emit(std::move(emit)) {}
    const Emit emit;
    std::mutex mutex;            // guards inflight
    std::set<std::uint64_t> inflight;  // router-global ids awaiting blocks
  };

  explicit ShardRouter(Options options);
  /// Shuts down (idempotent with Shutdown) and reaps worker processes.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Fork/execs every worker from options().worker_commands.
  Status Start();
  /// Adopts an externally created channel for `shard` (tests): requests are
  /// written to `request_fd`, cancels to `cancel_fd`, responses read from
  /// `response_fd`. The router owns all three fds afterwards.
  Status AttachWorker(std::size_t shard, int request_fd, int cancel_fd,
                      int response_fd);

  std::shared_ptr<Client> NewClient(Emit emit);

  /// Parses and routes one request line from `client`; blocks until the
  /// control response (if any) has been emitted. Blank lines and comments
  /// are dropped, matching Server::HandleLine.
  void HandleLine(const std::shared_ptr<Client>& client,
                  const std::string& line);

  /// Client disconnect: fire-and-forget cancels for its in-flight evals
  /// over the cancel channels (their eventual blocks land on the latched
  /// emit as no-ops).
  void DetachClient(const std::shared_ptr<Client>& client);

  /// True once a `quit` has been routed (all workers told to quit).
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Tells live workers to quit (if not already), waits for them to exit,
  /// joins the reader threads, reaps children. Idempotent.
  void Shutdown();

  std::size_t num_shards() const { return options_.num_shards; }
  /// Whether `shard`'s worker is currently accepting requests (tests).
  bool shard_up(std::size_t shard) const;
  /// Total worker restarts performed so far (tests / diagnostics).
  std::size_t restarts() const;

 private:
  // One response the reader owes a waiting HandleLine (or nobody, for
  // detach-cancels). `remaining` counts outstanding shard responses — 1 for
  // plain ops, the live-shard count for fan-outs.
  struct OpWait {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining = 0;
    bool emitted = false;  // reader already post-processed + emitted in
                           // pipe order; the waiter must not emit again
    std::vector<std::string> responses;  // one control line per shard, no \n
  };

  struct Pending {
    enum class Kind {
      kForward,   // response forwarded verbatim
      kOpen,      // + register session on "ok open"
      kClose,     // + unregister session on "ok close"
      kEval,       // + id rewrite; erase route on "err eval"
      kBatchEval,  // + id rewrite; erase route unless "ok batch", else
                   //   note the id as collected by the session's batch
      kBatchEnd,   // + forget the collected ids on "ok batch" (submitted)
      kCancel,     // + id rewrite (cancel FIFO)
      kBarrier,   // stats/drain/quit fan-out contribution
      kInternal,  // detach-cancel: swallow the response
    };
    Kind kind = Kind::kForward;
    std::shared_ptr<OpWait> wait;    // null for kInternal
    std::shared_ptr<Client> client;  // single-shard requests: the reader
                                     // emits the response itself so control
                                     // lines keep the worker's pipe order
                                     // relative to result blocks
    std::uint64_t iid = 0;           // kEval/kCancel: router-global id
    std::uint64_t orig = 0;          // kEval/kCancel: client-supplied id
    std::string session;             // kOpen/kClose/kBatchEval/kBatchEnd
  };

  struct Worker {
    // write_mutex serializes {push pending; write} so the per-shard FIFO
    // order matches the byte order on the pipe; queue_mutex alone guards
    // the queues and flags so the reader never waits behind a blocked pipe
    // write (which would deadlock a full-duplex backpressure cycle).
    std::mutex write_mutex;
    mutable std::mutex queue_mutex;
    std::deque<Pending> pending;      // request-pipe FIFO
    std::deque<Pending> oob_pending;  // cancel-pipe FIFO
    std::set<std::string> sessions;   // opened here; closed on worker death
    // Per session, the ids `batch <s> eval` collected that no `batch <s>
    // end` has submitted yet. A `close` abandons them: the worker drops
    // them without a result block, so their routes are retired then.
    std::map<std::string, std::vector<std::uint64_t>> batches;
    bool up = false;
    // False from a respawn until the fresh process writes its first
    // response line back. Sessionless stats fan-outs skip up-but-unacked
    // workers, so `up=` only counts shards that have demonstrably answered
    // since restarting (a respawned-but-wedged worker must not inflate it).
    std::atomic<bool> acked{true};
    int request_fd = -1;
    int cancel_fd = -1;
    int response_fd = -1;
    pid_t pid = -1;
    std::chrono::steady_clock::time_point spawned_at;
    std::size_t fast_failures = 0;
    std::thread reader;
  };

  // Where an in-flight eval's block must go back to.
  struct Route {
    std::shared_ptr<Client> client;
    std::uint64_t orig = 0;
    std::size_t shard = 0;
  };

  // Routing / dispatch (client threads).
  void RouteToShard(const std::shared_ptr<Client>& client, std::size_t shard,
                    const std::string& line, Pending pending, bool oob);
  // skip_unacked: treat a respawned worker that has not answered anything
  // yet as absent (used by the sessionless stats merge so `up=` reflects
  // responsiveness, not mere process existence).
  void FanOut(const std::shared_ptr<Client>& client, const std::string& line,
              Pending::Kind kind,
              const std::function<std::string(std::vector<std::string>,
                                              std::size_t)>& merge,
              bool skip_unacked = false);
  bool SendToWorker(Worker& w, const std::string& line, Pending pending,
                    bool oob);
  // Shared by `eval <id> ...` and `batch <s> eval <id> ...`:
  // `id_token_index` is the 0-based token position of the id to rewrite,
  // `kind` selects the ack prefix the FIFO post-processing matches on.
  void HandleEval(const std::shared_ptr<Client>& client,
                  const std::string& line, std::uint64_t orig,
                  const std::string& session, std::size_t shard,
                  Pending::Kind kind, std::size_t id_token_index);
  void HandleCancel(const std::shared_ptr<Client>& client, std::uint64_t orig);

  // Reader side (one thread per shard).
  void ReaderLoop(std::size_t shard);
  void HandleControlLine(std::size_t shard, const std::string& line, bool oob);
  void HandleBlock(std::uint64_t iid, std::string block);
  void HandleWorkerDown(std::size_t shard);

  // Process management.
  Status SpawnWorker(std::size_t shard);

  std::uint64_t AllocateId(std::size_t shard);
  void EraseRoute(std::uint64_t iid);

  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex ids_mutex_;
  std::map<std::uint64_t, Route> routes_;       // iid → destination
  std::map<std::uint64_t, std::uint64_t> ids_;  // client id → iid
  std::uint64_t next_seq_ = 1;

  std::atomic<bool> closed_{false};
  std::atomic<bool> closing_{false};
  std::atomic<std::size_t> restarts_{0};
  std::mutex shutdown_mutex_;
  bool shut_down_ = false;
};

}  // namespace bvq::serve

#endif  // BVQ_SERVE_SHARD_H_
