#include "layers.hpp"

#include <chrono>

#include "util/error.hpp"

namespace imars::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

}  // namespace

TimedServable::TimedServable(serve::ServableBackend& inner,
                             std::size_t capture_limit)
    : inner_(inner), clocks_(inner.shards()), capture_limit_(capture_limit) {
  IMARS_REQUIRE(inner.spec().stage_count() <= ShardClock{}.stage_ns.size(),
                "TimedServable: too many stages");
}

std::vector<double> TimedServable::take_stage_ns() {
  std::vector<double> out(spec().stage_count(), 0.0);
  for (auto& c : clocks_) {
    for (std::size_t s = 0; s < out.size(); ++s) out[s] += c.stage_ns[s];
    c.stage_ns.fill(0.0);
  }
  return out;
}

double TimedServable::take_accesses_ns() {
  const double ns = accesses_ns_;
  accesses_ns_ = 0.0;
  return ns;
}

std::vector<std::size_t> TimedServable::run_replicated(
    std::size_t stage, std::size_t shard, const serve::Request& req,
    recsys::StageStats* stats) {
  const auto t0 = Clock::now();
  auto out = inner_.run_replicated(stage, shard, req, stats);
  clocks_[shard].stage_ns[stage] += ns_since(t0);
  return out;
}

std::vector<std::size_t> TimedServable::run_replicated_fed(
    std::size_t stage, std::size_t shard, const serve::Request& req,
    std::span<const std::size_t> fed, recsys::StageStats* stats) {
  const auto t0 = Clock::now();
  auto out = inner_.run_replicated_fed(stage, shard, req, fed, stats);
  clocks_[shard].stage_ns[stage] += ns_since(t0);
  return out;
}

std::vector<recsys::ScoredItem> TimedServable::run_sharded(
    std::size_t stage, std::size_t shard, const serve::Request& req,
    std::span<const std::size_t> slice, std::size_t k,
    recsys::StageStats* stats) {
  const auto t0 = Clock::now();
  auto out = inner_.run_sharded(stage, shard, req, slice, k, stats);
  clocks_[shard].stage_ns[stage] += ns_since(t0);
  return out;
}

void TimedServable::accesses_into(std::size_t stage, const serve::Request& req,
                                  std::span<const std::size_t> slice,
                                  std::vector<serve::RowAccess>& out) const {
  const std::size_t first = out.size();
  const auto t0 = Clock::now();
  inner_.accesses_into(stage, req, slice, out);
  accesses_ns_ += ns_since(t0);
  for (std::size_t i = first;
       i < out.size() && captured_.size() < capture_limit_; ++i)
    captured_.push_back((static_cast<std::uint64_t>(out[i].table) << 32) |
                        out[i].row);
}

void LayerSink::on_stage(const serve::StageSpan& s) {
  auto it = nodes.find(s.name);
  if (it == nodes.end()) it = nodes.emplace(std::string(s.name), Node{}).first;
  Node& n = it->second;
  n.busy_ns += (s.end - s.start).value;
  n.unit_wait_ns += s.unit_wait.value;
  n.et_wait_ns += s.et_wait.value;
  et_busy_ns += s.et_busy.value;
}

void LayerSink::on_batch(const serve::BatchSpan& b) {
  ++batches;
  ++triggers.at(static_cast<std::size_t>(b.trigger));
  queue_wait_ns.record((b.close - b.first_enqueue).value);
  gate_wait_ns.record((b.release - b.close).value);
  service_ns.record((b.complete - b.release).value);
}

void LayerSink::on_cache_migrate(device::Ns, std::uint64_t to_warm,
                                 std::uint64_t to_cold) {
  migrations += to_warm + to_cold;
}

}  // namespace imars::bench
