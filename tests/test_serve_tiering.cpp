// Tiered embedding memory tests (hot periphery buffer / warm CMA banks /
// modeled cold bulk tier): unit-level tier mechanics in HotEmbeddingCache
// (block faults, warm hits, FIFO demotion with one reprieve, pins,
// degenerate knob combinations) and the runtime-level bit-parity
// contracts: a zero-capacity tier config degrades to the flat store
// bit-identically across the whole scheduling grid (overlap x open/closed
// x gated x class count), and enabled migration stays bit-identical under
// overlap on/off because commits happen at batch-dispatch boundaries.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend_factory.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/hot_cache.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"
#include "serve_test_util.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::ArrivalProcess;
using serve::HotCacheConfig;
using serve::HotEmbeddingCache;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::QosClassConfig;
using serve::ServingConfig;
using serve::ServingRuntime;

void expect_no_tier_traffic(const serve::CacheStats& st) {
  EXPECT_EQ(st.warm_hits, 0u);
  EXPECT_EQ(st.cold_faults, 0u);
  EXPECT_EQ(st.cold_rows_fetched, 0u);
  EXPECT_EQ(st.warm_evictions, 0u);
  EXPECT_EQ(st.promotions, 0u);
  EXPECT_EQ(st.flushes_warm, 0u);
  EXPECT_EQ(st.flushes_cold, 0u);
}

// --- HotEmbeddingCache tier unit tests -------------------------------------

TEST(TieredCache, DegenerateKnobCombinationsStayDisabled) {
  // Either knob at zero disables tiering outright: the store behaves like
  // the flat (pre-tier) cache and every tier counter stays zero.
  HotCacheConfig warm_only;
  warm_only.capacity_rows = 4;
  warm_only.warm_capacity_rows = 64;
  HotCacheConfig blocks_only;
  blocks_only.capacity_rows = 4;
  blocks_only.cold_block_rows = 8;
  EXPECT_FALSE(warm_only.tiering_enabled());
  EXPECT_FALSE(blocks_only.tiering_enabled());
  for (const auto& cfg : {warm_only, blocks_only}) {
    HotEmbeddingCache cache(cfg);
    EXPECT_FALSE(cache.tiering_enabled());
    for (std::uint32_t i = 0; i < 24; ++i) cache.access(0, i % 6);
    cache.update(0, 0);
    cache.commit_migrations(Ns{0.0});  // must be a no-op
    expect_no_tier_traffic(cache.stats());
    EXPECT_EQ(cache.take_block_faults(), 0u);
    const auto tf = cache.take_flushed_tiers();
    EXPECT_EQ(tf.warm, 0u);
    EXPECT_EQ(tf.cold, 0u);
    EXPECT_GT(cache.stats().hits, 0u);  // the flat cache still works
  }
}

TEST(TieredCache, ColdFaultAdmitsBlockAndWarmHitFollows) {
  HotCacheConfig cfg;
  cfg.capacity_rows = 0;  // hot buffer off: every access exercises the tiers
  cfg.warm_capacity_rows = 8;
  cfg.cold_block_rows = 4;  // 2 warm blocks
  HotEmbeddingCache cache(cfg);
  EXPECT_TRUE(cache.tiering_enabled());

  EXPECT_FALSE(cache.access(0, 0));  // block [0,4): cold fault
  EXPECT_EQ(cache.stats().cold_faults, 1u);
  EXPECT_EQ(cache.stats().cold_rows_fetched, 4u);  // block-granular pull
  EXPECT_TRUE(cache.warm_resident(0, 0));
  EXPECT_TRUE(cache.warm_resident(0, 3));   // whole block came in
  EXPECT_FALSE(cache.warm_resident(0, 4));  // next block did not

  EXPECT_FALSE(cache.access(0, 1));  // same block: warm hit, no new fault
  EXPECT_EQ(cache.stats().warm_hits, 1u);
  EXPECT_EQ(cache.stats().cold_faults, 1u);

  EXPECT_FALSE(cache.access(0, 5));  // block [4,8): second fault
  EXPECT_EQ(cache.stats().cold_faults, 2u);
  EXPECT_EQ(cache.take_block_faults(), 2u);
  EXPECT_EQ(cache.take_block_faults(), 0u);  // drained
}

TEST(TieredCache, CommitDemotesFifoOrderWithOneReprieve) {
  HotCacheConfig cfg;
  cfg.capacity_rows = 0;
  cfg.warm_capacity_rows = 8;  // 2 blocks of 4
  cfg.cold_block_rows = 4;
  HotEmbeddingCache cache(cfg);
  cache.access(0, 0);  // block 0
  cache.access(0, 5);  // block 4
  cache.access(0, 9);  // block 8 — one over capacity
  EXPECT_EQ(cache.stats().warm_evictions, 0u);  // demotion deferred
  cache.commit_migrations(Ns{0.0});
  // The FIFO front (block 0) is demoted — but only after every block used
  // its one reprieve (all are hotter than the zero hot-tier bound).
  EXPECT_EQ(cache.stats().warm_evictions, 1u);
  EXPECT_FALSE(cache.warm_resident(0, 0));
  EXPECT_TRUE(cache.warm_resident(0, 5));
  EXPECT_TRUE(cache.warm_resident(0, 9));
  // Re-touching the demoted block faults again.
  cache.access(0, 0);
  EXPECT_EQ(cache.stats().cold_faults, 4u);
}

TEST(TieredCache, MigrateOffStreamsUnpinnedTrafficThroughCold) {
  HotCacheConfig cfg;
  cfg.capacity_rows = 0;
  cfg.warm_capacity_rows = 8;
  cfg.cold_block_rows = 4;
  cfg.migrate = false;
  HotEmbeddingCache cache(cfg);
  for (int i = 0; i < 5; ++i) cache.access(0, 0);
  cache.commit_migrations(Ns{0.0});
  // Without migration nothing is ever admitted warm: every access to the
  // same block is a fresh fault.
  EXPECT_EQ(cache.stats().cold_faults, 5u);
  EXPECT_EQ(cache.stats().warm_hits, 0u);
  EXPECT_FALSE(cache.warm_resident(0, 0));
}

TEST(TieredCache, PinnedBlocksSurviveCommitPressure) {
  HotCacheConfig cfg;
  cfg.capacity_rows = 0;
  cfg.warm_capacity_rows = 8;  // 2 blocks
  cfg.cold_block_rows = 4;
  HotEmbeddingCache cache(cfg);
  const std::uint64_t pin_key = (0ULL << 32) | 1;  // pins block [0,4)
  cache.pin_warm(std::vector<std::uint64_t>{pin_key});
  EXPECT_TRUE(cache.warm_resident(0, 0));
  // Fault three more blocks past capacity and commit: demotions hit only
  // the FIFO (unpinned) blocks; the pin stays.
  cache.access(0, 4);
  cache.access(0, 8);
  cache.access(0, 12);
  cache.commit_migrations(Ns{0.0});
  EXPECT_TRUE(cache.warm_resident(0, 1));
  EXPECT_EQ(cache.stats().warm_evictions, 2u);  // 1 pin + 1 survivor remain
  // A pinned hit is a warm hit like any other.
  cache.access(0, 2);
  EXPECT_GT(cache.stats().warm_hits, 0u);
}

TEST(TieredCache, PinsBeyondCapacityDoNotHangCommit) {
  HotCacheConfig cfg;
  cfg.capacity_rows = 0;
  cfg.warm_capacity_rows = 4;  // 1 block
  cfg.cold_block_rows = 4;
  HotEmbeddingCache cache(cfg);
  const std::vector<std::uint64_t> pins = {(0ULL << 32) | 0, (0ULL << 32) | 4};
  cache.pin_warm(pins);  // 2 pinned blocks, capacity 1
  cache.commit_migrations(Ns{0.0});  // nothing unpinned to demote
  EXPECT_TRUE(cache.warm_resident(0, 0));
  EXPECT_TRUE(cache.warm_resident(0, 4));
  EXPECT_EQ(cache.stats().warm_evictions, 0u);
}

// --- Runtime-level fixtures ------------------------------------------------

struct TierFixture {
  TierFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 60;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 241;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 243;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(247);
    model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < ds->num_users(); ++u)
      users.push_back(model->make_context(*ds, u));

    cpu_cfg.candidates = 40;
    factory = core::cpu_backend_factory(*model, cpu_cfg);
  }

  serve::ServeReport run(const HotCacheConfig& cache, bool open, bool overlap,
                         bool gated, std::size_t classes) {
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache = cache;
    cfg.overlap = overlap;
    if (classes > 1) {
      QosClassConfig interactive;
      interactive.name = "interactive";
      interactive.max_batch = 2;
      interactive.max_wait = Ns{300000.0};
      interactive.weight = 2.0;
      QosClassConfig bulk;
      bulk.name = "bulk";
      bulk.max_batch = 4;
      bulk.max_wait = Ns{300000.0};
      bulk.weight = 1.0;
      cfg.qos.classes = {interactive, bulk};
    } else if (gated) {
      cfg.qos = serve::QosBatcherConfig::single(cfg.batcher);
    }
    if (gated) cfg.qos.admit_window = Ns{50000.0};
    ServingRuntime rt(factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 60;
    lg.num_users = users.size();
    lg.user_zipf_s = 1.1;
    lg.seed = 271;
    lg.update_fraction = 0.25;
    if (classes > 1) lg.class_mix = {0.7, 0.3};
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

// Disabled tiering (either knob 0) must be BIT-IDENTICAL to the flat
// cache across the full scheduling grid — the tier layer may not perturb
// a single timestamp, counter or result in any regime.
TEST(TieredRuntime, DisabledTiersBitIdenticalAcrossSchedulingGrid) {
  TierFixture fx;
  HotCacheConfig flat;
  flat.capacity_rows = 48;
  HotCacheConfig warm_only = flat;
  warm_only.warm_capacity_rows = 64;  // cold_block_rows = 0: disabled
  HotCacheConfig blocks_only = flat;
  blocks_only.cold_block_rows = 4;  // warm_capacity_rows = 0: disabled
  for (const bool overlap : {false, true})
    for (const bool open : {false, true})
      for (const bool gated : {false, true})
        for (const std::size_t classes : {std::size_t{1}, std::size_t{2}}) {
          SCOPED_TRACE(::testing::Message()
                       << "overlap=" << overlap << " open=" << open
                       << " gated=" << gated << " classes=" << classes);
          const auto base = fx.run(flat, open, overlap, gated, classes);
          const auto warm = fx.run(warm_only, open, overlap, gated, classes);
          const auto blocks =
              fx.run(blocks_only, open, overlap, gated, classes);
          serve_test::expect_reports_identical(base, warm);
          serve_test::expect_reports_identical(base, blocks);
          expect_no_tier_traffic(warm.cache);
          expect_no_tier_traffic(blocks.cache);
        }
}

// Zero hot-buffer capacity plus a degenerate tier config is still the pure
// write-through store of the write-back tests: nothing faults, nothing
// flushes, updates pay full array cost.
TEST(TieredRuntime, ZeroCapacityDegenerateTiersStayWriteThrough) {
  TierFixture fx;
  HotCacheConfig none;  // capacity 0, no tiers
  HotCacheConfig warm_only;
  warm_only.warm_capacity_rows = 64;
  const auto base =
      fx.run(none, /*open=*/false, /*overlap=*/false, /*gated=*/false, 1);
  const auto warm =
      fx.run(warm_only, /*open=*/false, /*overlap=*/false, /*gated=*/false, 1);
  serve_test::expect_reports_identical(base, warm);
  expect_no_tier_traffic(warm.cache);
  EXPECT_EQ(warm.cache.update_hits, 0u);
  EXPECT_GT(warm.cache.update_misses, 0u);
  EXPECT_EQ(warm.cache.flushes, 0u);
}

// Migration commits at batch-dispatch boundaries only, so the decision
// sequence — and with it every tier counter and every charged block fault
// — is identical whether batches overlap or drain phased.
TEST(TieredRuntime, MigrationDeterministicUnderOverlap) {
  TierFixture fx;
  HotCacheConfig tiered;
  tiered.capacity_rows = 48;
  tiered.warm_capacity_rows = 64;
  tiered.cold_block_rows = 4;
  for (const bool open : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "open=" << open);
    const auto phased =
        fx.run(tiered, open, /*overlap=*/false, /*gated=*/false, 1);
    const auto phased_again =
        fx.run(tiered, open, /*overlap=*/false, /*gated=*/false, 1);
    const auto overlapped =
        fx.run(tiered, open, /*overlap=*/true, /*gated=*/false, 1);
    serve_test::expect_reports_identical(phased, phased_again);
    serve_test::expect_reports_identical(phased, overlapped);
    // The machinery actually fired: faults were charged, blocks went warm
    // and were hit there, rows were admitted hot under the tier regime.
    EXPECT_GT(phased.cache.cold_faults, 0u);
    EXPECT_GT(phased.cache.warm_hits, 0u);
    EXPECT_GT(phased.cache.promotions, 0u);
    // With tiering on every flush has a destination tier.
    EXPECT_EQ(phased.cache.flushes,
              phased.cache.flushes_warm + phased.cache.flushes_cold);
    EXPECT_GT(phased.cache.flushes, 0u);
  }
}

}  // namespace
}  // namespace imars
