// Thread-safe unbounded MPMC queue: the work queue each shard executor
// drains (serve/executor.hpp). Blocking pop with close() for clean
// shutdown.
//
// Two priority bands: urgent items pop before normal ones (FIFO within a
// band), so a latency-critical tenant's functional work overtakes queued
// bulk work on the shard threads. Host-side ordering only — simulated
// hardware time is composed deterministically at collection, so the bands
// affect wall-clock latency of the simulation, never reported numbers.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace imars::serve {

template <class T>
class RequestQueue {
 public:
  /// Returns false (drops the value) if the queue was closed. Urgent items
  /// enter the priority band and pop before any normal item.
  bool push(T value, bool urgent = false) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      (urgent ? urgent_ : items_).push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue is
  /// closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [this] {
      return closed_ || !items_.empty() || !urgent_.empty();
    });
    auto& band = urgent_.empty() ? items_ : urgent_;
    if (band.empty()) return std::nullopt;
    T value = std::move(band.front());
    band.pop_front();
    return value;
  }

  /// Wakes all waiters; pending items remain poppable, pushes are refused.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::deque<T> urgent_;  ///< priority band, served before items_
  bool closed_ = false;
};

}  // namespace imars::serve
