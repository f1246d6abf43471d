// Per-layer measurement from outside the serving stack, through public
// interfaces only: a decorator that times the servable's functional calls,
// and an observer sink that aggregates the simulated-time spans. Both keep
// sums and streaming histograms, so memory stays bounded however long the
// traced run is.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "serve/observe.hpp"
#include "serve/stage_pipeline.hpp"

namespace imars::bench {

/// Forwards every ServableBackend call to `inner`, timing run_replicated,
/// run_replicated_fed, run_sharded and accesses_into on the host clock,
/// and capturing up to `capture_limit` row accesses (key = table << 32 |
/// row) for the cache replay. The engine calls the run_* methods of shard
/// s only from shard s's worker thread and accesses_into only from the
/// event-loop thread, so the accumulators need no locking; read them only
/// between runs.
class TimedServable final : public serve::ServableBackend {
 public:
  TimedServable(serve::ServableBackend& inner, std::size_t capture_limit);

  /// Host nanoseconds per stage, summed over shards, since the last take;
  /// resets them.
  std::vector<double> take_stage_ns();
  /// Host nanoseconds in accesses_into since the last take; resets it.
  double take_accesses_ns();
  const std::vector<std::uint64_t>& captured() const noexcept {
    return captured_;
  }
  /// Freezes the captured stream: later runs are timed, not captured.
  void stop_capture() noexcept { capture_limit_ = captured_.size(); }

  std::string_view name() const override { return inner_.name(); }
  const serve::PipelineSpec& spec() const override { return inner_.spec(); }
  std::size_t shards() const override { return inner_.shards(); }
  std::vector<std::size_t> initial_items(
      const serve::Request& req) const override {
    return inner_.initial_items(req);
  }
  std::vector<std::size_t> run_replicated(std::size_t stage,
                                          std::size_t shard,
                                          const serve::Request& req,
                                          recsys::StageStats* stats) override;
  std::vector<std::size_t> run_replicated_fed(
      std::size_t stage, std::size_t shard, const serve::Request& req,
      std::span<const std::size_t> fed, recsys::StageStats* stats) override;
  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t stage, std::size_t shard, const serve::Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) override;
  std::vector<serve::RowAccess> accesses(
      std::size_t stage, const serve::Request& req,
      std::span<const std::size_t> slice) const override {
    return inner_.accesses(stage, req, slice);
  }
  void accesses_into(std::size_t stage, const serve::Request& req,
                     std::span<const std::size_t> slice,
                     std::vector<serve::RowAccess>& out) const override;
  std::vector<serve::RowAccess> update_accesses(
      const serve::Request& req) const override {
    return inner_.update_accesses(req);
  }
  std::vector<std::size_t> profile_items(const serve::Request& req) override {
    return inner_.profile_items(req);
  }
  std::vector<device::Ns> stage_cost_estimate(std::size_t k) override {
    return inner_.stage_cost_estimate(k);
  }

 private:
  /// One cache line per shard: workers write only their own entry.
  struct alignas(64) ShardClock {
    std::array<double, 8> stage_ns{};
  };

  serve::ServableBackend& inner_;
  std::vector<ShardClock> clocks_;
  std::size_t capture_limit_;
  // accesses_into is const in the interface; these are its timing and
  // capture side effects.
  mutable double accesses_ns_ = 0.0;
  mutable std::vector<std::uint64_t> captured_;
};

/// Aggregating observer: per graph node busy time and waits, ET-bank
/// occupancy, migrations, and per-batch batching / gate / service spans.
/// Every callback arrives on the event-loop thread.
class LayerSink final : public serve::ObserverSink {
 public:
  struct Node {
    double busy_ns = 0.0;
    double unit_wait_ns = 0.0;
    double et_wait_ns = 0.0;
  };

  void on_stage(const serve::StageSpan& s) override;
  void on_batch(const serve::BatchSpan& b) override;
  void on_cache_migrate(device::Ns at, std::uint64_t to_warm,
                        std::uint64_t to_cold) override;

  std::map<std::string, Node, std::less<>> nodes;
  double et_busy_ns = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t batches = 0;
  std::array<std::uint64_t, 4> triggers{};  ///< indexed by CloseTrigger
  serve::StreamingHistogram queue_wait_ns;  ///< close - oldest arrival
  serve::StreamingHistogram gate_wait_ns;   ///< release - close
  serve::StreamingHistogram service_ns;     ///< complete - release
};

}  // namespace imars::bench
