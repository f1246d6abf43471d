// Thread-safe unbounded MPMC FIFO queue: the work queue each shard
// executor drains (serve/executor.hpp). Blocking pop with close() for
// clean shutdown.
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
  /// Returns false (drops the value) if the queue was closed.
  bool push(T value) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue is
  /// closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
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
  bool closed_ = false;
};

}  // namespace imars::serve
