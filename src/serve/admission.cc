#include "serve/admission.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"

namespace bvq::serve {

void AdmissionTicket::Release() {
  if (controller_ != nullptr) controller_->Release(bytes_);
  controller_ = nullptr;
  bytes_ = 0;
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

bool AdmissionController::Fits(std::size_t reserve_bytes) const {
  if (options_.max_concurrent_queries != 0 &&
      active_ >= options_.max_concurrent_queries) {
    return false;
  }
  if (options_.aggregate_mem_budget_bytes != 0 &&
      reserved_ + reserve_bytes > options_.aggregate_mem_budget_bytes) {
    return false;
  }
  return true;
}

Result<AdmissionTicket> AdmissionController::Admit(
    std::size_t reserve_bytes, const std::atomic<bool>* cancel) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (options_.aggregate_mem_budget_bytes != 0 &&
      reserve_bytes > options_.aggregate_mem_budget_bytes) {
    ++rejected_total_;
    return Status::ResourceExhausted(
        StrCat("admission: reserve of ", reserve_bytes,
               " bytes exceeds the whole aggregate budget of ",
               options_.aggregate_mem_budget_bytes, " bytes"));
  }
  double waited_ms = 0.0;
  // Fast path: capacity free and nobody queued ahead of us.
  if (!waiters_.empty() || !Fits(reserve_bytes)) {
    if (options_.queue_wait_ms == 0) {
      ++rejected_total_;
      return Status::ResourceExhausted(
          StrCat("admission: aggregate budget spent (", reserved_, " of ",
                 options_.aggregate_mem_budget_bytes, " bytes reserved, ",
                 active_, " active queries) and queueing is off"));
    }
    if (options_.max_queue_length != 0 &&
        waiters_.size() >= options_.max_queue_length) {
      ++rejected_total_;
      return Status::ResourceExhausted(
          StrCat("admission: queue full (", waiters_.size(), " waiters)"));
    }
    const std::uint64_t my_id = next_waiter_id_++;
    waiters_.push_back(my_id);
    ++queued_total_;
    const auto start = std::chrono::steady_clock::now();
    const auto give_up =
        start + std::chrono::milliseconds(options_.queue_wait_ms);
    // FIFO: only the waiter at the head of the queue may take capacity.
    auto my_turn_and_fits = [&] {
      if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
        return true;  // wake to report cancellation
      }
      return !waiters_.empty() && waiters_.front() == my_id &&
             Fits(reserve_bytes);
    };
    // The cancel flag is flipped by another thread without this mutex, so
    // poll it on a short tick instead of waiting for the full timeout.
    bool ok = false;
    while (true) {
      const auto now = std::chrono::steady_clock::now();
      if (my_turn_and_fits()) {
        ok = true;
        break;
      }
      if (now >= give_up) break;
      const auto tick = cancel != nullptr
                            ? std::min(give_up, now + std::chrono::milliseconds(5))
                            : give_up;
      cv_.wait_until(lock, tick);
    }
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), my_id));
    // Our departure may unblock the next waiter even on failure.
    cv_.notify_all();
    waited_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      ++cancelled_total_;
      return Status::Cancelled("admission wait cancelled");
    }
    if (!ok) {
      ++rejected_total_;
      return Status::ResourceExhausted(
          StrCat("admission: timed out after ", options_.queue_wait_ms,
                 " ms in queue (", reserved_, " bytes reserved, ", active_,
                 " active queries)"));
    }
  }
  ++active_;
  reserved_ += reserve_bytes;
  peak_reserved_ = std::max(peak_reserved_, reserved_);
  ++admitted_total_;
  return AdmissionTicket(this, reserve_bytes, waited_ms);
}

void AdmissionController::Release(std::size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reserved_ -= bytes;
    --active_;
  }
  cv_.notify_all();
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AdmissionStats s;
  s.active_queries = active_;
  s.reserved_bytes = reserved_;
  s.peak_reserved_bytes = peak_reserved_;
  s.queue_length = waiters_.size();
  s.admitted_total = admitted_total_;
  s.rejected_total = rejected_total_;
  s.queued_total = queued_total_;
  s.cancelled_total = cancelled_total_;
  return s;
}

}  // namespace bvq::serve
