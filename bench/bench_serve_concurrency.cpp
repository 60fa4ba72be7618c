// Serving-layer concurrency bench: what does admission control cost, and
// how fair is the FIFO gate under contention?
//
//  1. Admission overhead: ns per uncontended Admit/Release round trip on a
//     single thread, for an unlimited controller and for one with a budget
//     and cap configured (the Fits() path). This is the per-query tax the
//     serving layer adds on top of evaluation.
//
//  2. Fleet fairness: 1 / 8 / 64 concurrent sessions, each submitting
//     kQueries transitive-closure evaluations through one Server with a
//     concurrency cap low enough that admissions actually queue. Reports
//     wall time, mean/max end-to-end latency, mean admission queue wait,
//     and the fairness spread — the ratio of the slowest session's mean
//     latency to the fastest's (1.0 = perfectly fair; FIFO should keep
//     this close to 1 even at 64 sessions).
//
//   bench_serve_concurrency [--n=12] [--reps=3] [--out=BENCH_serve.json]
//
// Writes BENCH_serve.json; per-fleet figures are spreads over the reps.
// Gate: every served payload equals the direct evaluator's.

#include <memory>
#include <mutex>

#include "bench_common.h"
#include "serve/admission.h"

namespace {

using namespace bvq;
using namespace bvq::serve;

constexpr std::size_t kQueries = 4;          // per session
constexpr std::size_t kLanes = 8;            // executor threads
constexpr std::size_t kCap = 4;              // concurrent queries < lanes
constexpr std::size_t kMicroIters = 50'000;  // round trips per timed rep

void AdmitRelease(AdmissionController& ctl) {
  for (std::size_t i = 0; i < kMicroIters; ++i) {
    auto ticket = ctl.Admit(std::size_t{1} << 20);
    if (!ticket.ok()) bvq_bench::Must(ticket.status(), "admission");
    ticket->Release();
  }
}

// A server with `sessions` sessions over CycleDb(n).
std::unique_ptr<Server> OpenFleet(std::size_t sessions, std::size_t n) {
  ServeOptions so;
  so.executor_threads = kLanes;
  so.admission.max_concurrent_queries = kCap;
  so.admission.queue_wait_ms = 120'000;
  auto server = std::make_unique<Server>(so);
  for (std::size_t s = 0; s < sessions; ++s) {
    bvq_bench::Must(server->Open(StrCat("s", s), SessionOptions{},
                                 bvq_bench::CycleDb(n)),
                    "open");
  }
  return server;
}

struct Sample {
  std::size_t session = 0;
  double latency_ms = 0;
  double queue_wait_ms = 0;
  bool ok = false;  // status ok and payload == the direct evaluator's
};

// kQueries per session, submitted round-robin, then a drain.
std::vector<Sample> RunFleet(Server& server, std::size_t sessions,
                             const std::string& expected) {
  std::mutex mu;
  std::vector<Sample> samples;
  for (std::size_t q = 0; q < kQueries; ++q) {
    for (std::size_t s = 0; s < sessions; ++s) {
      const auto submit = std::chrono::steady_clock::now();
      bvq_bench::Must(
          server.EvalAsync(
              StrCat("s", s), bvq_bench::kTcQuery,
              [&, s, submit](const EvalOutcome& o) {
                const double latency =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - submit)
                        .count();
                std::lock_guard<std::mutex> lock(mu);
                samples.push_back({s, latency, o.queue_wait_ms,
                                   o.status.ok() && o.payload == expected});
              }),
          "submit");
    }
  }
  server.Drain();
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  bvq_bench::Record rec("serve_concurrency", 12, "BENCH_serve.json");
  rec.Parse(argc, argv);
  rec.config.Set("queries_per_session", kQueries)
      .Set("lanes", kLanes)
      .Set("cap", kCap)
      .Set("micro_iters", kMicroIters);

  const double ns_per_trip = 1e6 / kMicroIters;  // from ms per rep
  AdmissionController unlimited;
  rec.results.Set(
      "admit_release_ns_unlimited",
      bvq_bench::Time(rec.reps(), [&] { AdmitRelease(unlimited); }) *
          ns_per_trip);
  AdmissionOptions bounded_opts;
  bounded_opts.aggregate_mem_budget_bytes = std::size_t{256} << 20;
  bounded_opts.max_concurrent_queries = 64;
  AdmissionController bounded(bounded_opts);
  rec.results.Set(
      "admit_release_ns_bounded",
      bvq_bench::Time(rec.reps(), [&] { AdmitRelease(bounded); }) *
          ns_per_trip);

  const std::string expected = bvq_bench::TcPayload(rec.n());
  for (const std::size_t sessions : {1, 8, 64}) {
    std::unique_ptr<Server> server;
    std::vector<std::vector<Sample>> reps;
    const bvq_bench::Spread wall = bvq_bench::Time(
        rec.reps(), [&] { server = OpenFleet(sessions, rec.n()); },
        [&] { reps.push_back(RunFleet(*server, sessions, expected)); });
    std::vector<double> mean_latency, max_latency, mean_wait, fairness;
    bool ok = true;
    for (const std::vector<Sample>& samples : reps) {
      std::vector<double> sum(sessions, 0.0);
      double latency = 0, worst = 0, wait = 0;
      for (const Sample& x : samples) {
        ok = ok && x.ok;
        latency += x.latency_ms;
        worst = std::max(worst, x.latency_ms);
        wait += x.queue_wait_ms;
        sum[x.session] += x.latency_ms;
      }
      mean_latency.push_back(latency / samples.size());
      max_latency.push_back(worst);
      mean_wait.push_back(wait / samples.size());
      fairness.push_back(*std::max_element(sum.begin(), sum.end()) /
                         *std::min_element(sum.begin(), sum.end()));
    }
    rec.Gate(ok, StrCat(sessions, " sessions: a served payload is wrong"));
    rec.Row("fleets",
            bvq_bench::Json()
                .Set("sessions", sessions)
                .Set("queries", sessions * kQueries)
                .Set("wall_ms", wall)
                .Set("mean_latency_ms", bvq_bench::SpreadOf(mean_latency))
                .Set("max_latency_ms", bvq_bench::SpreadOf(max_latency))
                .Set("mean_queue_wait_ms", bvq_bench::SpreadOf(mean_wait))
                .Set("fairness_spread", bvq_bench::SpreadOf(fairness)));
  }
  return rec.Finish();
}
