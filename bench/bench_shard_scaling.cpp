// Shard-scaling bench: does the session-hashing router over N worker
// processes actually buy aggregate throughput on the serving layer's
// many-session workload?
//
// For 1 / 2 / 4 shards, a ShardRouter fork/execs that many real bvqserve
// worker processes (each a full single-process Server with kLanes executor
// lanes and an admission cap of kCap — the per-worker resources a
// deployment would give one machine slice), opens kSessions sessions hashed
// across the fleet, submits kQueries transitive-closure evaluations per
// session, and times the drain. Reported per shard count: wall ms,
// aggregate throughput (queries/s, from the median) and the speedup over
// the 1-shard run. The workload is pure compute, so the speedup ceiling is
// min(shards * kLanes, host_cores) / kLanes — on a single-core host every
// fleet size measures ~1.0x and the bench degenerates to a router-overhead
// check.
//
//   bench_shard_scaling [--n=12] [--reps=3] [--bvqserve=PATH]
//                       [--out=BENCH_shard.json]
//
// Writes BENCH_shard.json. Gate: every served result block is
// byte-identical to the direct evaluator's.

#include <memory>
#include <mutex>
#include <set>

#include "bench_common.h"
#include "serve/shard.h"

namespace {

using namespace bvq;
using namespace bvq::serve;

constexpr std::size_t kSessions = 64;
constexpr std::size_t kQueries = 4;  // per session
constexpr std::size_t kLanes = 2;    // per worker
constexpr std::size_t kCap = 2;      // per worker

// A started router over real workers, kSessions sessions on the n-cycle,
// and every response chunk its client received.
class Fleet {
 public:
  Fleet(const std::string& bvqserve, std::size_t shards, std::size_t n)
      : router_(Workers(bvqserve, shards)) {
    bvq_bench::Must(router_.Start(), "router start");
    std::string edges;
    for (std::size_t i = 0; i < n; ++i) {
      edges += StrCat(" ", i, " ", (i + 1) % n, " ;");
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      router_.HandleLine(client_, StrCat("open s", s, " k=3"));
      router_.HandleLine(client_, StrCat("domain s", s, " ", n));
      router_.HandleLine(client_, StrCat("rel s", s, " E/2", edges));
    }
  }
  ~Fleet() {
    router_.HandleLine(client_, "quit");
    router_.Shutdown();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // kQueries evals per session, then a drain.
  void Run() {
    std::size_t id = 0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        router_.HandleLine(
            client_, StrCat("eval ", ++id, " s", s, " ", bvq_bench::kTcQuery));
      }
    }
    router_.HandleLine(client_, "drain");
  }

  // Whether every eval's result block carries `payload`.
  bool AllBlocksAre(const std::string& payload) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::set<std::string> got(chunks_.begin(), chunks_.end());
    for (std::size_t id = 1; id <= kSessions * kQueries; ++id) {
      if (got.count(StrCat("result ", id, " ok\n", payload, "end ", id,
                           "\n")) == 0) {
        return false;
      }
    }
    return true;
  }

 private:
  // Fixed per-worker resources: adding shards adds lanes and admission
  // slots, exactly like adding machines behind a router.
  static ShardRouter::Options Workers(const std::string& bvqserve,
                                      std::size_t shards) {
    ShardRouter::Options options;
    options.num_shards = shards;
    options.worker_commands.assign(
        shards, {bvqserve, StrCat("--lanes=", kLanes),
                 StrCat("--max-concurrent=", kCap), "--queue-wait-ms=120000"});
    return options;
  }

  std::mutex mutex_;
  std::vector<std::string> chunks_;  // guarded by mutex_
  ShardRouter router_;
  const std::shared_ptr<ShardRouter::Client> client_ =
      router_.NewClient([this](const std::string& chunk) {
        std::lock_guard<std::mutex> lock(mutex_);
        chunks_.push_back(chunk);
      });
};

}  // namespace

int main(int argc, char** argv) {
  bvq_bench::Record rec("shard_scaling", 12, "BENCH_shard.json");
  const std::string argv0 = argv[0];
  const std::size_t slash = argv0.rfind('/');
  std::string& bvqserve = rec.flags.Text(
      "bvqserve",
      (slash == std::string::npos ? "." : argv0.substr(0, slash)) +
          "/../tools/bvqserve",
      "worker binary");
  rec.Parse(argc, argv);
  rec.config.Set("sessions", kSessions)
      .Set("queries_per_session", kQueries)
      .Set("lanes_per_shard", kLanes)
      .Set("cap_per_shard", kCap);

  const std::string expected = bvq_bench::TcPayload(rec.n());
  double base_qps = 0;
  for (const std::size_t shards : {1, 2, 4}) {
    std::vector<std::unique_ptr<Fleet>> fleets;
    const bvq_bench::Spread wall = bvq_bench::Time(
        rec.reps(),
        [&] {
          fleets.push_back(std::make_unique<Fleet>(bvqserve, shards, rec.n()));
        },
        [&] { fleets.back()->Run(); });
    for (const auto& fleet : fleets) {
      rec.Gate(fleet->AllBlocksAre(expected),
               StrCat(shards, " shards: a result block is missing or wrong"));
    }
    const double qps = kSessions * kQueries * 1000.0 / wall.median;
    if (shards == 1) base_qps = qps;
    rec.Row("fleets", bvq_bench::Json()
                          .Set("shards", shards)
                          .Set("queries", kSessions * kQueries)
                          .Set("wall_ms", wall)
                          .Set("throughput_qps", qps)
                          .Set("speedup", qps / base_qps));
  }
  return rec.Finish();
}
