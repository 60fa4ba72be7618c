#ifndef BVQ_COMMON_THREAD_POOL_H_
#define BVQ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bvq {

/// Cumulative counters for ParallelFor dispatches, exposed so evaluators can
/// surface scheduling behaviour in their stats (EvalStats).
struct ThreadPoolStats {
  /// Number of ParallelFor calls that actually fanned out to workers.
  std::size_t parallel_loops = 0;
  /// Total chunks executed across all ParallelFor calls.
  std::size_t chunks = 0;
  /// Chunks claimed by a pool worker rather than the submitting thread
  /// (i.e. work that actually migrated off the caller).
  std::size_t chunks_stolen = 0;
};

/// A small fixed-size thread pool for data-parallel sweeps over k-ary
/// assignment sets.
///
/// Design constraints (see DESIGN.md, "Threading model & determinism"):
///   - *Deterministic outputs.* ParallelFor splits [0, total) into chunks at
///     fixed boundaries (multiples of `grain`). Which thread runs a chunk is
///     racy; what the chunk computes is not. Kernels either write to
///     chunk-disjoint output ranges (word-aligned bitset spans) or fill a
///     private per-chunk shard that the caller merges in chunk-index order,
///     so results are byte-identical for every thread count.
///   - *No nesting.* ParallelFor must not be called from inside a chunk
///     callback; the evaluator is a single-threaded orchestrator that fans
///     out one kernel at a time.
///   - *Exception containment.* The library reports errors via Status, but a
///     kernel that does throw (std::bad_alloc, a bug) must not terminate the
///     process or deadlock the pool: the first exception is captured,
///     remaining chunks are drained without running, and the exception is
///     rethrown on the submitting thread. The pool stays usable afterwards.
///   - *Cooperative cancellation.* An optional cancel token
///     (set_cancel_token) is observed between chunks; once it reads true,
///     unclaimed chunks are skipped. Callers that set a token must treat any
///     sweep that overlapped a tripped token as void (partial outputs), so
///     kernels themselves never need to poll.
///
/// The pool spawns num_threads - 1 workers; the thread calling ParallelFor
/// participates as the num_threads-th lane. num_threads == 1 therefore
/// spawns nothing and runs every chunk inline.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Thread count used for `num_threads == 0` ("auto"): the BVQ_THREADS
  /// environment variable if set and positive, else
  /// std::thread::hardware_concurrency(), else 1. BVQ_THREADS values beyond
  /// kMaxOversubscription x hardware_concurrency() are clamped to that cap
  /// (oversubscription only adds context-switch thrash) with a one-time
  /// warning on stderr.
  static std::size_t DefaultThreads();

  /// Cap on BVQ_THREADS as a multiple of hardware_concurrency().
  static constexpr std::size_t kMaxOversubscription = 4;

  /// The most threads one pool may be asked for: kMaxOversubscription x
  /// hardware_concurrency() (or x 1 when that is unknown). BVQ_THREADS is
  /// clamped to it, and the protocol's `open threads=` rejects more.
  static std::size_t MaxThreads();

  /// Installs (or clears, with nullptr) a cancellation token observed
  /// between chunks by every thread running a subsequent ParallelFor. Must
  /// not be called while a ParallelFor is in flight; the token must outlive
  /// all dispatches that observe it.
  void set_cancel_token(const std::atomic<bool>* token) {
    cancel_token_ = token;
  }

  /// Runs fn(chunk_index, begin, end) for every chunk of [0, total), where
  /// chunk c covers [c*grain, min((c+1)*grain, total)). grain must be > 0.
  /// Chunks are claimed dynamically by the caller and the workers; chunk
  /// *boundaries* are fixed, so callers get deterministic decompositions.
  /// If a chunk throws, the first exception is rethrown here after all
  /// chunks are claimed (later chunks are drained, not run). If the cancel
  /// token trips, remaining chunks are skipped and ParallelFor returns
  /// normally with the sweep's output partial.
  void ParallelFor(std::size_t total, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t,
                                            std::size_t)>& fn);

  /// Number of chunks ParallelFor(total, grain, ...) will produce.
  static std::size_t NumChunks(std::size_t total, std::size_t grain) {
    return grain == 0 ? 0 : (total + grain - 1) / grain;
  }

  /// Snapshot of cumulative dispatch counters.
  ThreadPoolStats stats() const;
  void ResetStats();

 private:
  struct Task;

  void WorkerLoop();
  // Claims and runs chunks of `task`; returns how many this thread executed.
  std::size_t RunChunks(Task& task);

  const std::size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new task
  std::condition_variable done_cv_;   // submitter waits for remaining == 0
  bool shutdown_ = false;
  // The latest dispatch; workers compare against the task they last ran so
  // spurious wakeups and missed dispatches are both harmless.
  std::shared_ptr<Task> task_;
  // Observed between chunks by all lanes; only mutated while no dispatch is
  // in flight (same single-orchestrator discipline as ParallelFor itself).
  const std::atomic<bool>* cancel_token_ = nullptr;

  std::atomic<std::size_t> stat_loops_{0};
  std::atomic<std::size_t> stat_chunks_{0};
  std::atomic<std::size_t> stat_stolen_{0};
};

/// Lanes a sweep over `pool` runs on: its thread count, 1 for a null pool.
inline std::size_t Lanes(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads();
}

/// Runs fn over the chunks of [0, total) as pool->ParallelFor does. A null
/// pool, like a one-lane pool, runs them in chunk order on the caller, so a
/// kernel has one body whatever pool it is handed.
void ForEachChunk(
    ThreadPool* pool, std::size_t total, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Grain splitting `items` work items of a sweep over a `bits`-bit cube
/// into about `chunks_per_lane` chunks per lane. One lane, or a cube under
/// 4,096 bits (where dispatch costs more than the sweep), gets a single
/// chunk. Never returns 0.
std::size_t ChunkGrain(std::size_t items, std::size_t bits, std::size_t lanes,
                       std::size_t chunks_per_lane);

/// ChunkGrain over the bit positions of a `total`-bit cube, with chunks of
/// at least 1,024 bits rounded up to a multiple of 64, so chunks own
/// disjoint bitset words. Never returns 0.
std::size_t BitGrain(std::size_t total, std::size_t lanes);

}  // namespace bvq

#endif  // BVQ_COMMON_THREAD_POOL_H_
