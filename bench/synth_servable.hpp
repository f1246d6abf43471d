// The synthetic servable of the million-user scaling studies, shared by
// bench_scaling and the golden-digest test (tests/test_serve.cpp).
//
// Hash-scored candidates and ET-row traffic keyed by the candidate items,
// so host-path cost dominates and population scale is free — the engine,
// batcher, cache and session layers under it are the real ones. Also
// defines the scaling grid's base fabric and load: bench_scaling
// calibrates its open-loop rate on them, and the golden test serves its
// ten cells on them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/perf_model.hpp"
#include "device/profile.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"

namespace imars::bench {

/// splitmix64 — cheap deterministic scoring/item hash.
inline std::uint64_t synth_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Synthetic single-stage sharded servable: `candidates` hash-derived
/// items per query (rotated by the session's query sequence, so session
/// state is live personalization input), hash scores, and one ET row per
/// candidate for the hot cache — item popularity inherits the user Zipf
/// skew through the per-user candidate sets.
class SynthServable final : public serve::ServableBackend {
 public:
  SynthServable(std::size_t shards, std::size_t candidates,
                std::size_t item_space, recsys::OpCost row_cost,
                recsys::OpCost score_cost)
      : shards_(shards),
        candidates_(candidates),
        item_space_(item_space),
        row_cost_(row_cost),
        score_cost_(score_cost) {
    spec_.stages = {{"score", serve::StageKind::kSharded, {}}};
    spec_.merge_topk = true;
  }

  std::string_view name() const override { return "synth-scaling"; }
  const serve::PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return shards_; }

  std::vector<std::size_t> initial_items(
      const serve::Request& req) const override {
    std::vector<std::size_t> items(candidates_);
    // A session's candidate window drifts with its query sequence: repeat
    // visitors re-rank a partially fresh slate (per-session state feeding
    // request construction, not just telemetry).
    const std::uint64_t base =
        req.user * 0x9e3779b97f4a7c15ULL + (req.session_seq / 4u);
    for (std::size_t j = 0; j < candidates_; ++j)
      items[j] = synth_mix(base + j) % item_space_;
    return items;
  }

  std::vector<std::size_t> run_replicated(std::size_t, std::size_t,
                                          const serve::Request&,
                                          recsys::StageStats*) override {
    return {};  // the graph has no replicated stage
  }

  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t, std::size_t, const serve::Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) override {
    const double n = static_cast<double>(slice.size());
    auto& et = stats->at(recsys::OpKind::kEtLookup);
    et.latency.value += row_cost_.latency.value * n;
    et.energy.value += row_cost_.energy.value * n;
    auto& dnn = stats->at(recsys::OpKind::kDnn);
    dnn.latency.value += score_cost_.latency.value * n;
    dnn.energy.value += score_cost_.energy.value * n;

    std::vector<recsys::ScoredItem> out;
    out.reserve(slice.size());
    for (std::size_t item : slice)
      out.push_back({item, static_cast<float>(
                               synth_mix(item ^ (req.user << 1)) >> 40)});
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.score != b.score ? a.score > b.score : a.item < b.item;
    });
    if (out.size() > k) out.resize(k);
    return out;
  }

  void accesses_into(std::size_t, const serve::Request&,
                     std::span<const std::size_t> slice,
                     std::vector<serve::RowAccess>& out) const override {
    for (std::size_t item : slice)
      out.push_back({0, static_cast<std::uint32_t>(item), false, false});
  }

  /// An update writes the row of the request's first candidate.
  std::vector<serve::RowAccess> update_accesses(
      const serve::Request& req) const override {
    return {{0, static_cast<std::uint32_t>(initial_items(req).front()),
             false, false}};
  }

 private:
  std::size_t shards_;
  std::size_t candidates_;
  std::size_t item_space_;
  recsys::OpCost row_cost_;
  recsys::OpCost score_cost_;
  serve::PipelineSpec spec_;
};

/// A synthetic servable for `cfg`'s shard count over `lg`'s user space:
/// 24 candidates per query, each charged one ET row fetch (the
/// cache-creditable part) plus 25 ns / 40 pJ of scoring work.
inline std::unique_ptr<SynthServable> make_synth(
    const serve::ServingConfig& cfg, const serve::LoadGenConfig& lg,
    const core::ArchConfig& arch, const device::DeviceProfile& profile) {
  const auto fetch = core::PerfModel(arch, profile).row_fetch();
  return std::make_unique<SynthServable>(
      cfg.shards, 24, lg.num_users,
      recsys::OpCost{fetch.latency, fetch.energy},
      recsys::OpCost{device::Ns{25.0}, device::Pj{40.0}});
}

/// The scaling grid's fabric: 4 shards, global top-8, batches of 16 and a
/// 2048-row hot cache.
inline serve::ServingConfig grid_serving_config() {
  serve::ServingConfig cfg;
  cfg.shards = 4;
  cfg.k = 8;
  cfg.batcher.max_batch = 16;
  cfg.cache.capacity_rows = 2048;
  return cfg;
}

/// The scaling grid's load: `queries` from 16 closed-loop clients over
/// 20000 users, seed 11.
inline serve::LoadGenConfig grid_load_config(std::size_t queries) {
  serve::LoadGenConfig lg;
  lg.clients = 16;
  lg.total_queries = queries;
  lg.num_users = 20000;
  lg.seed = 11;
  return lg;
}

}  // namespace imars::bench
