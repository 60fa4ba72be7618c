// bvqserve — the bvq serving layer over a newline-delimited request
// protocol. Send `help` for its grammar (serve::ProtocolHelpText(), the
// one copy); an `eval` completes asynchronously as a result block.
//
// Modes:
//   bvqserve [script]      read requests from stdin (or a script file),
//                          responses on stdout; exits after quit/EOF once
//                          every in-flight query has drained.
//   bvqserve --port=N      listen on 127.0.0.1:N, one handler thread per
//                          connection, all connections sharing one Server
//                          (sessions, admission, executor). A client
//                          disconnect cancels that connection's in-flight
//                          queries (remote cancellation via CancelHandle).
//                          A line still unterminated past 16 MiB gets
//                          `err line too long` and the connection closed.
//   bvqserve --shards=N    router mode (DESIGN.md §12): fork/exec N worker
//                          processes, hash each session onto one, forward
//                          its lines there, demultiplex result blocks back.
//                          --aggregate-mb / --max-concurrent are split
//                          across the workers; `stats` with no session is
//                          consolidated across the fleet. Composes with
//                          --port and script mode.
//   bvqserve --cancel-fd=N worker mode (spawned by the router; not for
//                          interactive use): serve requests from fd 0,
//                          cancels from fd N, responses to fd 1.
//
// Admission flags: --aggregate-mb=N (aggregate memory budget handed out to
// admitted queries), --max-concurrent=N, --queue-wait-ms=N (0 = reject
// instead of queue), --queue-max=N, --lanes=N (executor threads).

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/strings.h"
#include "serve/server.h"
#include "serve/shard.h"

namespace {

using namespace bvq;

// Longest request line a TCP client may send. Real request lines are far
// shorter; bulk data goes through `load`.
constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

// Extracts the query id from an "eval <id> ..." or "batch <s> eval <id> ..."
// request so a connection can cancel its own in-flight work on disconnect.
// Batch ids are live for cancellation from the moment they are collected.
bool EvalRequestId(const std::string& line, std::size_t* id) {
  std::istringstream is(line);
  std::string cmd, tok;
  if (!(is >> cmd)) return false;
  if (cmd == "batch") {
    std::string sub;
    if (!(is >> tok) || !(is >> sub) || sub != "eval") return false;
  } else if (cmd != "eval") {
    return false;
  }
  if (!(is >> tok)) return false;
  return ParseSizeT(tok, id);
}

// Extracts the query id from the first line of a "result <id> ..." block.
bool ResultBlockId(const std::string& chunk, std::size_t* id) {
  if (chunk.rfind("result ", 0) != 0) return false;
  std::istringstream is(chunk);
  std::string cmd, tok;
  return (is >> cmd >> tok) && ParseSizeT(tok, id);
}

// What the stream and TCP loops serve: either a single in-process Server or
// a ShardRouter over N worker processes, behind one seam so the front ends
// (and their disconnect-cancellation semantics) are written once.
class FrontEnd {
 public:
  using Emit = std::function<void(const std::string&)>;
  using Conn = std::shared_ptr<void>;

  virtual ~FrontEnd() = default;
  virtual Conn Connect(Emit emit) = 0;
  /// Handles one request line; the control response (if any) is emitted
  /// before this returns. Result blocks arrive on the connection's emit.
  virtual void Handle(const Conn& conn, const std::string& line) = 0;
  /// Client went away: cancel whatever it left in flight.
  virtual void Disconnect(const Conn& conn) = 0;
  virtual bool closed() const = 0;
  /// End of input (stream mode): block until in-flight work is delivered.
  virtual void Drain() = 0;
};

class ServerFrontEnd : public FrontEnd {
 public:
  explicit ServerFrontEnd(serve::Server& server) : server_(server) {}

  Conn Connect(Emit emit) override {
    auto conn = std::make_shared<ConnState>();
    conn->emit = std::move(emit);
    return conn;
  }

  void Handle(const Conn& opaque, const std::string& line) override {
    auto conn = std::static_pointer_cast<ConnState>(opaque);
    std::size_t id = 0;
    if (EvalRequestId(line, &id)) {
      std::lock_guard<std::mutex> lock(conn->mutex);
      // Completed ids are dead weight on a long-lived connection: drop them
      // (and their done-markers) before registering the new one. A reused
      // id sheds its stale marker too, or its new run would never be
      // cancelled on disconnect.
      auto& evals = conn->my_evals;
      for (auto it = evals.begin(); it != evals.end();) {
        if (conn->done.erase(*it) > 0) {
          it = evals.erase(it);
        } else {
          ++it;
        }
      }
      conn->done.erase(id);
      evals.push_back(id);
    }
    // The wrapper keeps the connection state alive for as long as a late
    // completion block can fire, and records which ids came back so the
    // disconnect path only cancels genuinely unfinished work.
    server_.HandleLine(line, [conn](const std::string& chunk) {
      std::size_t done_id = 0;
      if (ResultBlockId(chunk, &done_id)) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->done.insert(done_id);
      }
      conn->emit(chunk);
    });
  }

  void Disconnect(const Conn& opaque) override {
    auto conn = std::static_pointer_cast<ConnState>(opaque);
    std::vector<std::size_t> live;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      for (const std::size_t id : conn->my_evals) {
        if (conn->done.count(id) == 0) live.push_back(id);
      }
    }
    // Races with completion are benign: a just-finished query comes back
    // NotFound, which is exactly what we want.
    for (const std::size_t id : live) {
      (void)server_.Cancel(id, "client disconnected");
    }
  }

  bool closed() const override { return server_.closed(); }
  void Drain() override { server_.Drain(); }

 private:
  struct ConnState {
    Emit emit;
    std::mutex mutex;                 // guards my_evals / done
    std::vector<std::size_t> my_evals;
    std::set<std::size_t> done;       // ids whose result block was emitted
  };

  serve::Server& server_;
};

class RouterFrontEnd : public FrontEnd {
 public:
  explicit RouterFrontEnd(serve::ShardRouter& router) : router_(router) {}

  Conn Connect(Emit emit) override {
    return router_.NewClient(std::move(emit));
  }
  void Handle(const Conn& conn, const std::string& line) override {
    router_.HandleLine(
        std::static_pointer_cast<serve::ShardRouter::Client>(conn), line);
  }
  void Disconnect(const Conn& conn) override {
    router_.DetachClient(
        std::static_pointer_cast<serve::ShardRouter::Client>(conn));
  }
  bool closed() const override { return router_.closed(); }
  // Shutdown sends quit to every worker; each drains its in-flight queries
  // and the remaining result blocks flow back through the readers before
  // the workers' EOF, so stream mode loses nothing.
  void Drain() override { router_.Shutdown(); }

 private:
  serve::ShardRouter& router_;
};

void ServeStream(FrontEnd& fe, std::istream& in, const FrontEnd::Emit& emit) {
  const FrontEnd::Conn conn = fe.Connect(emit);
  std::string line;
  while (!fe.closed() && std::getline(in, line)) {
    fe.Handle(conn, line);
  }
  fe.Drain();
}

int ServeTcp(FrontEnd& fe, int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("bvqserve: socket");
    return 1;
  }
  int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    std::perror("bvqserve: bind/listen");
    ::close(listener);
    return 1;
  }
  // --port=0 asks the kernel for an ephemeral port; report the one we got
  // so a test harness can parse it instead of guessing.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port = ntohs(bound.sin_port);
  }
  std::fprintf(stderr, "bvqserve: listening on 127.0.0.1:%d\n", port);

  struct ConnState {
    std::mutex mutex;
    int fd = -1;
    bool open = true;
    std::atomic<bool> finished{false};  // the handler has closed the fd
  };
  // One handler thread per live connection. Only this accept loop touches
  // the list: it joins finished handlers on every wake, so an exited
  // thread's stack is unmapped within ~100 ms, not at shutdown.
  struct Handler {
    std::shared_ptr<ConnState> state;
    std::thread thread;
  };
  std::vector<Handler> handlers;
  auto reap = [&handlers] {
    std::erase_if(handlers, [](Handler& h) {
      if (!h.state->finished.load()) return false;
      h.thread.join();
      return true;
    });
  };
  // Poll with a timeout so a `quit` handled on some connection thread stops
  // the listener too: accepting after close would hand new clients a dead
  // server.
  while (!fe.closed()) {
    reap();
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) break;
    auto state = std::make_shared<ConnState>();
    state->fd = conn;
    handlers.push_back({state, std::thread([&fe, state] {
      // The write side outlives the handler: eval done-callbacks capture it
      // and may fire after disconnect (cancellation is asynchronous, so a
      // cancelled query can still complete later). Every send is guarded by
      // the shared mutex + `open` flag; the handler flips `open` under the
      // mutex before ::close(conn), so a late completion block is a no-op —
      // it can neither write to a closed descriptor nor leak into an
      // unrelated connection that recycled the fd number.
      auto write_all = [state](const std::string& chunk) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->open) return;  // client gone; drop the chunk
        std::size_t off = 0;
        while (off < chunk.size()) {
          const ssize_t n = ::send(state->fd, chunk.data() + off,
                                   chunk.size() - off, MSG_NOSIGNAL);
          if (n <= 0) {
            // Latch closed: without this every later block would retry the
            // dead socket, and the disconnect path would still think the
            // client might hear a cancellation result.
            state->open = false;
            return;
          }
          off += static_cast<std::size_t>(n);
        }
      };
      const FrontEnd::Conn fe_conn = fe.Connect(write_all);
      std::string buffer;  // bytes received since the last newline
      char chunk[4096];
      bool open = true;
      while (open && !fe.closed()) {
        const ssize_t n = ::recv(state->fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        // Only the new bytes can hold a newline. Lines are handled in place
        // and the consumed prefix dropped once per recv, not once per line.
        std::size_t head = 0;
        std::size_t nl = buffer.size();
        buffer.append(chunk, static_cast<std::size_t>(n));
        while (open && (nl = buffer.find('\n', nl)) != std::string::npos) {
          fe.Handle(fe_conn, buffer.substr(head, nl - head));
          head = ++nl;
          open = !fe.closed();
        }
        buffer.erase(0, head);
        if (buffer.size() > kMaxLineBytes) {
          write_all("err line too long\n");
          break;
        }
      }
      // Client disconnect → cancel whatever it left running.
      fe.Disconnect(fe_conn);
      // Close the write side before the fd: once `open` drops under the
      // mutex, no in-progress send holds the fd and no future one starts.
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->open = false;
      }
      ::close(state->fd);
      state->finished.store(true);
    })});
  }
  ::close(listener);
  // Kick every connection still blocked in recv so its handler unwinds;
  // the handler owns the close.
  for (Handler& h : handlers) {
    std::lock_guard<std::mutex> lock(h.state->mutex);
    if (h.state->open) ::shutdown(h.state->fd, SHUT_RDWR);
  }
  for (Handler& h : handlers) h.thread.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions options;
  int port = -1;
  int cancel_fd = -1;
  std::size_t shards = 0;
  const char* script_path = nullptr;
  struct {
    std::size_t aggregate_mb = 0;
    std::size_t max_concurrent = 0;
    std::size_t queue_wait_ms = 0;
    std::size_t queue_max = 0;
    std::size_t lanes = 0;
    bool has_aggregate = false;
    bool has_max_concurrent = false;
    bool has_queue_wait = false;
    bool has_queue_max = false;
    bool has_lanes = false;
  } raw;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name, std::size_t* out) {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      if (!ParseSizeT(std::string_view(arg).substr(prefix.size()), out)) {
        std::fprintf(stderr, "bvqserve: bad number in %s\n", arg.c_str());
        std::exit(2);
      }
      return true;
    };
    std::size_t v = 0;
    if (value_of("--port", &v)) {
      if (v > 65535) {
        std::fprintf(stderr, "bvqserve: --port=%zu out of range (max 65535)\n",
                     v);
        return 2;
      }
      port = static_cast<int>(v);
    } else if (value_of("--shards", &v)) {
      if (v == 0) {
        std::fprintf(stderr, "bvqserve: --shards must be >= 1\n");
        return 2;
      }
      shards = v;
    } else if (value_of("--cancel-fd", &v)) {
      cancel_fd = static_cast<int>(v);
    } else if (value_of("--aggregate-mb", &v)) {
      if (!MiBToBytes(v, &options.admission.aggregate_mem_budget_bytes)) {
        std::fprintf(stderr, "bvqserve: --aggregate-mb=%zu overflows\n", v);
        return 2;
      }
      raw.aggregate_mb = v;
      raw.has_aggregate = true;
    } else if (value_of("--max-concurrent", &v)) {
      options.admission.max_concurrent_queries = v;
      raw.max_concurrent = v;
      raw.has_max_concurrent = true;
    } else if (value_of("--queue-wait-ms", &v)) {
      options.admission.queue_wait_ms = v;
      raw.queue_wait_ms = v;
      raw.has_queue_wait = true;
    } else if (value_of("--queue-max", &v)) {
      options.admission.max_queue_length = v;
      raw.queue_max = v;
      raw.has_queue_max = true;
    } else if (value_of("--lanes", &v)) {
      options.executor_threads = v;
      raw.lanes = v;
      raw.has_lanes = true;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      options.cache_dir = arg.substr(std::string("--cache-dir=").size());
      if (options.cache_dir.empty()) {
        std::fprintf(stderr, "bvqserve: --cache-dir needs a path\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bvqserve [--port=N] [--shards=N] [--aggregate-mb=N] "
          "[--max-concurrent=N] [--queue-wait-ms=N] [--queue-max=N] "
          "[--lanes=N] [--cache-dir=DIR] [script]\n");
      return 0;
    } else if (script_path == nullptr && arg.rfind("--", 0) != 0) {
      script_path = argv[i];
    } else {
      std::fprintf(stderr, "bvqserve: unexpected argument %s\n",
                   argv[i]);
      return 2;
    }
  }

  if (cancel_fd >= 0) {
    // Worker mode: the router owns our fds 0 (requests), 1 (responses) and
    // `cancel_fd` (out-of-band cancels). Admission flags arrive pre-split.
    if (shards != 0 || port >= 0 || script_path != nullptr) {
      std::fprintf(stderr,
                   "bvqserve: --cancel-fd (worker mode) cannot combine with "
                   "--shards/--port/script\n");
      return 2;
    }
    serve::Server server(options);
    serve::ServeWorker(server, /*request_fd=*/0, cancel_fd,
                       /*response_fd=*/1);
    return 0;
  }

  std::mutex stdout_mutex;
  auto emit = [&stdout_mutex](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(stdout_mutex);
    std::fwrite(chunk.data(), 1, chunk.size(), stdout);
    std::fflush(stdout);
  };

  auto serve = [&](FrontEnd& fe) -> int {
    if (port >= 0) return ServeTcp(fe, port);
    if (script_path != nullptr) {
      std::ifstream script(script_path);
      if (!script) {
        std::fprintf(stderr, "bvqserve: cannot open %s\n", script_path);
        return 1;
      }
      ServeStream(fe, script, emit);
      return 0;
    }
    ServeStream(fe, std::cin, emit);
    return 0;
  };

  if (shards > 0) {
    // Router mode: split the fleet-wide admission budgets across workers
    // (ShardShare keeps every share finite when the total is finite) and
    // re-exec ourselves N times in worker mode.
    serve::ShardRouter::Options router_options;
    router_options.num_shards = shards;
    for (std::size_t s = 0; s < shards; ++s) {
      std::vector<std::string> cmd{"/proc/self/exe"};
      if (raw.has_aggregate) {
        cmd.push_back(StrCat("--aggregate-mb=",
                             serve::ShardShare(raw.aggregate_mb, s, shards)));
      }
      if (raw.has_max_concurrent) {
        cmd.push_back(
            StrCat("--max-concurrent=",
                   serve::ShardShare(raw.max_concurrent, s, shards)));
      }
      if (raw.has_queue_wait) {
        cmd.push_back(StrCat("--queue-wait-ms=", raw.queue_wait_ms));
      }
      if (raw.has_queue_max) {
        cmd.push_back(StrCat("--queue-max=", raw.queue_max));
      }
      if (raw.has_lanes) cmd.push_back(StrCat("--lanes=", raw.lanes));
      if (!options.cache_dir.empty()) {
        // Workers persist and prewarm their own sessions' caches: session
        // placement is stable (ShardForSession), so a restarted worker
        // finds exactly its sessions' snapshots under the shared dir.
        cmd.push_back(StrCat("--cache-dir=", options.cache_dir));
      }
      router_options.worker_commands.push_back(std::move(cmd));
    }
    serve::ShardRouter router(std::move(router_options));
    const Status started = router.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bvqserve: %s\n", started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "bvqserve: router over %zu shards\n", shards);
    RouterFrontEnd fe(router);
    const int rc = serve(fe);
    router.Shutdown();
    return rc;
  }

  serve::Server server(options);
  ServerFrontEnd fe(server);
  return serve(fe);
}
