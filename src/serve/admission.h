#ifndef BVQ_SERVE_ADMISSION_H_
#define BVQ_SERVE_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/status.h"

namespace bvq::serve {

/// Configuration for AdmissionController. All zeros mean "unlimited": the
/// controller still counts, it just never rejects.
struct AdmissionOptions {
  /// Aggregate memory the controller may hand out across all admitted
  /// queries at once, in bytes. Each admission reserves its declared bytes
  /// up front; a request that would push the sum past the budget waits in
  /// the queue (or is rejected when queueing is off). 0 = unlimited.
  std::size_t aggregate_mem_budget_bytes = 0;
  /// Maximum queries admitted at once. 0 = unlimited.
  std::size_t max_concurrent_queries = 0;
  /// How long Admit() may wait in the queue for capacity before giving up
  /// with ResourceExhausted. 0 = never queue, reject immediately.
  std::uint64_t queue_wait_ms = 0;
  /// Maximum queue length; requests beyond it are rejected immediately
  /// even when queue_wait_ms > 0. 0 = unlimited.
  std::size_t max_queue_length = 0;
};

/// Counters exposed for `stats` protocol requests and the bench harness.
struct AdmissionStats {
  std::size_t active_queries = 0;
  std::size_t reserved_bytes = 0;
  std::size_t peak_reserved_bytes = 0;
  std::size_t queue_length = 0;
  std::uint64_t admitted_total = 0;
  std::uint64_t rejected_total = 0;
  std::uint64_t queued_total = 0;    // admissions that had to wait first
  std::uint64_t cancelled_total = 0; // waits abandoned via the cancel flag
};

class AdmissionController;

/// RAII admission slot: holds `reserved_bytes` of the aggregate budget and
/// one concurrency slot until destroyed (or Release()d). Move-only; a
/// default-constructed ticket is empty.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  ~AdmissionTicket() { Release(); }

  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : controller_(other.controller_),
        bytes_(other.bytes_),
        queue_wait_ms_(other.queue_wait_ms_) {
    other.controller_ = nullptr;
    other.bytes_ = 0;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      controller_ = other.controller_;
      bytes_ = other.bytes_;
      queue_wait_ms_ = other.queue_wait_ms_;
      other.controller_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }

  bool valid() const { return controller_ != nullptr; }
  std::size_t reserved_bytes() const { return bytes_; }
  /// How long this admission waited in the queue (0 for immediate grants).
  double queue_wait_ms() const { return queue_wait_ms_; }

  /// Returns the slot and bytes to the controller, waking queued waiters.
  void Release();

 private:
  friend class AdmissionController;
  AdmissionTicket(AdmissionController* controller, std::size_t bytes,
                  double queue_wait_ms)
      : controller_(controller), bytes_(bytes), queue_wait_ms_(queue_wait_ms) {}

  AdmissionController* controller_ = nullptr;
  std::size_t bytes_ = 0;
  double queue_wait_ms_ = 0.0;
};

/// Gatekeeper in front of the evaluators: tracks an aggregate memory budget
/// and a concurrent-query cap across every session, admitting, queueing, or
/// rejecting each evaluation before any evaluator work starts.
///
/// Admission is FIFO: waiters join a queue and are granted strictly in
/// arrival order, so a stream of small requests cannot starve a large one
/// (head-of-line blocking is the price, and the point — fairness under
/// contention is what the serving layer promises). A request whose reserve
/// exceeds the whole aggregate budget can never be satisfied and is
/// rejected immediately with ResourceExhausted regardless of queue state;
/// already-admitted queries are never affected by later rejections.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  /// Blocks until `reserve_bytes` and a concurrency slot are available (up
  /// to queue_wait_ms), then returns the RAII ticket. Fails with
  /// ResourceExhausted when the aggregate is spent and queueing is off, the
  /// queue is full, the wait times out, or the request can never fit; fails
  /// with Cancelled when `cancel` (optional) becomes true while waiting.
  Result<AdmissionTicket> Admit(std::size_t reserve_bytes,
                                const std::atomic<bool>* cancel = nullptr);

  AdmissionStats stats() const;
  const AdmissionOptions& options() const { return options_; }

 private:
  friend class AdmissionTicket;
  void Release(std::size_t bytes);
  // Whether a reserve fits right now. Caller holds mutex_.
  bool Fits(std::size_t reserve_bytes) const;

  const AdmissionOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::uint64_t> waiters_;  // FIFO of waiter ids
  std::uint64_t next_waiter_id_ = 0;
  std::size_t active_ = 0;
  std::size_t reserved_ = 0;
  std::size_t peak_reserved_ = 0;
  std::uint64_t admitted_total_ = 0;
  std::uint64_t rejected_total_ = 0;
  std::uint64_t queued_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace bvq::serve

#endif  // BVQ_SERVE_ADMISSION_H_
