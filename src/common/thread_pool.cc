#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/strings.h"

namespace bvq {

// One ParallelFor dispatch. Published under the pool mutex and then only
// touched through its atomics, so late-waking workers from an earlier
// dispatch can never observe a half-initialized task: they still hold a
// shared_ptr to their own (exhausted) task and exit immediately.
struct ThreadPool::Task {
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn;
  std::size_t total;
  std::size_t grain;
  std::size_t num_chunks;
  // Optional cancellation token (null = never cancelled). Snapshotted from
  // the pool at dispatch so a token swap cannot race an in-flight task.
  const std::atomic<bool>* cancel;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  // Set when any chunk throws; `error` holds the first exception (written
  // under the pool mutex, first writer wins) and is rethrown on the
  // submitting thread after the drain completes.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(num_threads == 0 ? DefaultThreads() : num_threads) {
  workers_.reserve(num_threads_ > 0 ? num_threads_ - 1 : 0);
  for (std::size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::MaxThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return (hw == 0 ? 1 : static_cast<std::size_t>(hw)) * kMaxOversubscription;
}

std::size_t ThreadPool::DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hw_threads = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  if (const char* env = std::getenv("BVQ_THREADS")) {
    std::size_t v = 0;
    // Strict parse: "8x", "", and out-of-range values all fall through to
    // the hardware default instead of being truncated or wrapping.
    if (ParseSizeT(env, &v) && v > 0) {
      const std::size_t cap = MaxThreads();
      if (v > cap) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true, std::memory_order_relaxed)) {
          std::fprintf(stderr,
                       "bvq: BVQ_THREADS=%zu exceeds %zu (%zux "
                       "hardware_concurrency=%zu); clamping to %zu\n",
                       v, cap, kMaxOversubscription, hw_threads, cap);
        }
        return cap;
      }
      return v;
    }
  }
  return hw_threads;
}

std::size_t ThreadPool::RunChunks(Task& task) {
  std::size_t executed = 0;
  for (;;) {
    const std::size_t c = task.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= task.num_chunks) return executed;
    // Drain without running once a sibling chunk threw or the cancel token
    // tripped; `remaining` must still reach zero so the submitter wakes.
    const bool skip =
        task.failed.load(std::memory_order_acquire) ||
        (task.cancel != nullptr &&
         task.cancel->load(std::memory_order_relaxed));
    if (!skip) {
      const std::size_t begin = c * task.grain;
      const std::size_t end = std::min(begin + task.grain, task.total);
      try {
        (*task.fn)(c, begin, end);
        ++executed;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (task.error == nullptr) task.error = std::current_exception();
        task.failed.store(true, std::memory_order_release);
      }
    }
    if (task.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::shared_ptr<Task> last;
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || task_ != last; });
      if (shutdown_) return;
      task = task_;
      last = task;
    }
    const std::size_t executed = RunChunks(*task);
    if (executed > 0) {
      stat_stolen_.fetch_add(executed, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::ParallelFor(
    std::size_t total, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  assert(grain > 0);
  if (total == 0) return;
  const std::size_t chunks = NumChunks(total, grain);
  if (workers_.empty() || chunks <= 1) {
    // Inline: same chunk decomposition, executed in order on this thread.
    // Exceptions propagate to the caller directly; the cancel token is
    // observed between chunks just like on the pooled path.
    for (std::size_t c = 0; c < chunks; ++c) {
      if (cancel_token_ != nullptr &&
          cancel_token_->load(std::memory_order_relaxed)) {
        return;
      }
      fn(c, c * grain, std::min((c + 1) * grain, total));
    }
    return;
  }
  auto task = std::make_shared<Task>();
  task->fn = &fn;
  task->total = total;
  task->grain = grain;
  task->num_chunks = chunks;
  task->cancel = cancel_token_;
  task->remaining.store(chunks, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = task;
  }
  work_cv_.notify_all();
  RunChunks(*task);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return task->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  stat_loops_.fetch_add(1, std::memory_order_relaxed);
  stat_chunks_.fetch_add(chunks, std::memory_order_relaxed);
  // All chunks accounted for; surface the first kernel exception (if any)
  // on the submitting thread. The pool itself is back to idle and reusable.
  if (task->failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(task->error);
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.parallel_loops = stat_loops_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.chunks_stolen = stat_stolen_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ResetStats() {
  stat_loops_.store(0, std::memory_order_relaxed);
  stat_chunks_.store(0, std::memory_order_relaxed);
  stat_stolen_.store(0, std::memory_order_relaxed);
}

void ForEachChunk(
    ThreadPool* pool, std::size_t total, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(total, grain, fn);
    return;
  }
  for (std::size_t c = 0; c < ThreadPool::NumChunks(total, grain); ++c) {
    fn(c, c * grain, std::min((c + 1) * grain, total));
  }
}

std::size_t ChunkGrain(std::size_t items, std::size_t bits, std::size_t lanes,
                       std::size_t chunks_per_lane) {
  constexpr std::size_t kMinParallelBits = 4096;
  if (lanes <= 1 || bits < kMinParallelBits) {
    return std::max<std::size_t>(items, 1);
  }
  const std::size_t chunks = lanes * chunks_per_lane;
  return std::max<std::size_t>(1, (items + chunks - 1) / chunks);
}

std::size_t BitGrain(std::size_t total, std::size_t lanes) {
  const std::size_t grain =
      std::max<std::size_t>(ChunkGrain(total, total, lanes, 4), 1024);
  return (grain + 63) / 64 * 64;
}

}  // namespace bvq
