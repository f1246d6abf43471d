// Placement tests: PlacementPolicy's hottest-first profile ordering, the
// runtime's static warm-tier pins (config validation, warmup-replay
// determinism), and the placement permutation-invariance property — ANY
// ShardMap must yield identical top-k/scores to uniform placement (timing
// may differ, results may not), across the overlap x loop x class grid.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend_factory.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"
#include "serve/shard_map.hpp"
#include "serve_test_util.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::ArrivalProcess;
using serve::HotKey;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::PlacementPolicy;
using serve::ServingConfig;
using serve::ServingRuntime;
using serve::ShardMap;

// --- PlacementPolicy -------------------------------------------------------

TEST(PlacementPolicy, TopKeysSortsHottestFirstDeterministically) {
  std::unordered_map<std::size_t, std::uint64_t> counts = {
      {10, 4}, {11, 9}, {12, 4}, {13, 0}, {14, 1}};
  const auto top = PlacementPolicy::top_keys(counts, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 11u);  // hottest
  EXPECT_EQ(top[1].key, 10u);  // freq tie at 4 -> lower key first
  EXPECT_EQ(top[2].key, 12u);
  // Zero-frequency keys never surface even when the cap allows them.
  const auto all = PlacementPolicy::top_keys(counts, 10);
  EXPECT_EQ(all.size(), 4u);
}

TEST(PlacementPolicy, OfflineHistogramOverloadMatchesCountsOverload) {
  std::unordered_map<std::size_t, std::uint64_t> counts = {
      {10, 4}, {11, 9}, {12, 4}, {13, 0}};
  std::vector<HotKey> profile;
  for (const auto& [k, f] : counts) profile.push_back({k, f});
  const auto a = PlacementPolicy::top_keys(counts, 8);
  const auto b = PlacementPolicy::top_keys(profile, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].freq, b[i].freq);
  }
}

// --- Runtime placement -----------------------------------------------------

struct PlacementFixture {
  PlacementFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 60;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 341;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 343;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(347);
    model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < ds->num_users(); ++u)
      users.push_back(model->make_context(*ds, u));

    cpu_cfg.candidates = 40;
    factory = core::cpu_backend_factory(*model, cpu_cfg);
  }

  /// One serving run; `mutate` tweaks the config (placement, maps, ...).
  template <class Fn>
  serve::ServeReport run(std::size_t classes, bool open, bool overlap,
                         Fn&& mutate) {
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache.capacity_rows = 256;
    cfg.overlap = overlap;
    if (classes > 1) {
      serve::QosClassConfig interactive;
      interactive.name = "interactive";
      interactive.max_batch = 2;
      interactive.max_wait = Ns{300000.0};
      interactive.weight = 2.0;
      interactive.deadline = Ns{150000.0};
      interactive.service_estimate = Ns{20000.0};
      serve::QosClassConfig bulk;
      bulk.name = "bulk";
      bulk.max_batch = 4;
      bulk.max_wait = Ns{300000.0};
      bulk.weight = 4.0;
      serve::QosClassConfig scavenger;
      scavenger.name = "scavenger";
      scavenger.max_batch = 4;
      scavenger.max_wait = Ns{300000.0};
      scavenger.weight = 0.0;
      cfg.qos.classes = {interactive, bulk, scavenger};
    }
    mutate(cfg);
    ServingRuntime rt(factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 40;
    lg.num_users = users.size();
    lg.user_zipf_s = 1.0;
    lg.seed = 371;
    if (classes > 1) lg.class_mix = {0.2, 0.7, 0.1};
    if (open) {
      lg.arrivals = ArrivalProcess::kOpenPoisson;
      lg.rate_qps = 2.0e5;
    }
    LoadGenerator gen(lg);
    return rt.run(gen, users);
  }

  std::unique_ptr<data::MovieLensSynth> ds;
  std::unique_ptr<recsys::YoutubeDnn> model;
  std::vector<recsys::UserContext> users;
  baseline::CpuBackendConfig cpu_cfg;
  core::BackendFactory factory;
};

// --- Static warm-tier pins ------------------------------------------------

/// A tiered cache that keeps only pinned blocks warm (migration off), with
/// a hot buffer small enough that row traffic reaches the tiers.
void tiered_cache(ServingConfig& cfg) {
  cfg.cache.capacity_rows = 16;
  cfg.cache.warm_capacity_rows = 64;
  cfg.cache.cold_block_rows = 4;
  cfg.cache.migrate = false;
}

TEST(RuntimePlacement, MisconfiguredWarmPinsRejected) {
  PlacementFixture fx;
  // Warm pins without a tiered cache have nowhere to live.
  EXPECT_THROW(fx.run(1, false, false,
                      [](ServingConfig& cfg) {
                        cfg.placement.warm_rows = 8;
                        cfg.placement.warmup_queries = 8;
                      }),
               imars::Error);
  // Warm pins with neither an offline histogram nor a warmup window.
  EXPECT_THROW(fx.run(1, false, false,
                      [](ServingConfig& cfg) {
                        tiered_cache(cfg);
                        cfg.placement.warm_rows = 8;
                      }),
               imars::Error);
}

TEST(RuntimePlacement, WarmupReplayWarmPinsAreSeedDeterministicAndHit) {
  PlacementFixture fx;
  auto pinned = [](ServingConfig& cfg) {
    tiered_cache(cfg);
    cfg.placement.warm_rows = 12;
    cfg.placement.warmup_queries = 20;
  };
  const auto a = fx.run(1, true, true, pinned);
  const auto b = fx.run(1, true, true, pinned);
  serve_test::expect_reports_identical(a, b);
  // With migration off only pinned blocks are warm, so every warm hit is
  // a pin's doing; without pins the same stream never hits warm.
  EXPECT_GT(a.cache.warm_hits, 0u);
  const auto unpinned = fx.run(1, true, true, tiered_cache);
  EXPECT_EQ(unpinned.cache.warm_hits, 0u);
  serve_test::expect_results_identical(a, unpinned);
}

// --- The permutation-invariance property ----------------------------------
// Any placement — capability weights from skewed measured costs, a map
// with a zero-weight shard, even every key slammed onto one shard — must
// yield identical per-query top-k/scores to uniform placement, across the
// overlap x loop x class grid. Timing may differ; results may not.

TEST(RuntimePlacement, PermutationInvarianceAcrossOverlapLoopClassGrid) {
  PlacementFixture fx;
  const std::vector<Ns> skewed_costs = {Ns{1.0}, Ns{4.0}, Ns{9.0}};
  const std::vector<double> zero_weight = {3.0, 0.0, 1.0};
  const std::vector<double> lopsided = {0.0, 0.0, 1.0};
  ASSERT_DOUBLE_EQ(ShardMap::weighted(lopsided).share(2), 1.0);
  for (const std::size_t classes : {std::size_t{1}, std::size_t{3}}) {
    for (const bool open : {false, true}) {
      for (const bool overlap : {false, true}) {
        const auto uniform =
            fx.run(classes, open, overlap, [](ServingConfig&) {});
        // Capability weights from skewed measured per-item costs.
        const auto costed =
            fx.run(classes, open, overlap, [&](ServingConfig& cfg) {
              cfg.shard_map = ShardMap::from_costs(skewed_costs);
            });
        // A zero-weight shard receives no items and no queries.
        const auto zeroed =
            fx.run(classes, open, overlap, [&](ServingConfig& cfg) {
              cfg.shard_map = ShardMap::weighted(zero_weight);
            });
        // Pathological map: every item and query lands on shard 2.
        const auto one_shard =
            fx.run(classes, open, overlap, [&](ServingConfig& cfg) {
              cfg.shard_map = ShardMap::weighted(lopsided);
            });
        for (const auto& q : zeroed.queries) EXPECT_NE(q.home_shard, 1u);
        for (const auto& q : one_shard.queries) EXPECT_EQ(q.home_shard, 2u);
        serve_test::expect_results_identical(uniform, costed);
        serve_test::expect_results_identical(uniform, zeroed);
        serve_test::expect_results_identical(uniform, one_shard);
      }
    }
  }
}

}  // namespace
}  // namespace imars
