// Per-shard worker threads. Each accelerator shard owns one ShardExecutor:
// a single thread draining a FIFO work queue, so a shard's (non-thread-safe)
// backend replica is only ever touched from one thread, while distinct
// shards run their functional work concurrently.
//
// Tasks must not throw: there is no future to carry an exception (the
// staged-pipeline engine synchronizes through its own per-batch counters
// and promise, and records failures itself), so a leaked exception would
// terminate the process.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "serve/request_queue.hpp"

namespace imars::serve {

class ShardExecutor {
 public:
  ShardExecutor() : thread_([this] { run(); }) {}

  ~ShardExecutor() {
    tasks_.close();
    if (thread_.joinable()) thread_.join();
  }

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Enqueues `fn`; tasks execute in submission order on the shard thread.
  void submit(std::function<void()> fn) { tasks_.push(std::move(fn)); }

 private:
  void run() {
    while (auto task = tasks_.pop()) (*task)();
  }

  RequestQueue<std::function<void()>> tasks_;
  std::thread thread_;
};

/// One executor per shard.
class ExecutorPool {
 public:
  explicit ExecutorPool(std::size_t shards) : executors_(shards) {
    for (auto& e : executors_) e = std::make_unique<ShardExecutor>();
  }

  std::size_t size() const noexcept { return executors_.size(); }
  ShardExecutor& at(std::size_t shard) { return *executors_[shard]; }

 private:
  std::vector<std::unique_ptr<ShardExecutor>> executors_;
};

}  // namespace imars::serve
