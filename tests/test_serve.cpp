// Tests for the concurrent serving runtime (src/serve/): dynamic batching
// triggers, shard-merge correctness against single-backend top-k, hot-cache
// admission and hit-rate monotonicity under Zipf skew, end-to-end
// closed-loop serving telemetry, and the golden report digests of the
// scaling grid.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend_factory.hpp"
#include "core/config.hpp"
#include "data/movielens.hpp"
#include "data/zipf.hpp"
#include "device/profile.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/batcher.hpp"
#include "serve/executor.hpp"
#include "serve/hot_cache.hpp"
#include "serve/load_gen.hpp"
#include "serve/request_queue.hpp"
#include "serve/runtime.hpp"
#include "serve/shard_router.hpp"
#include "serve/stage_pipeline.hpp"
#include "serve_test_util.hpp"
#include "synth_servable.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::Batch;
using serve::DynamicBatcherConfig;
using serve::HotCacheConfig;
using serve::HotEmbeddingCache;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::QosBatcher;
using serve::QosBatcherConfig;
using serve::Request;
using serve::ServingConfig;
using serve::ServingRuntime;
using serve::ShardRouter;
using serve::StagePipeline;

Request make_request(std::size_t id, double t, std::size_t user = 0) {
  Request r;
  r.id = id;
  r.user = user;
  r.client = id;
  r.enqueue = Ns{t};
  return r;
}

// --- Class-blind batching (QosBatcherConfig::single) ----------------------

TEST(DynamicBatcher, SizeTriggerClosesFullBatch) {
  DynamicBatcherConfig cfg;
  cfg.max_batch = 3;
  cfg.max_wait = Ns{1e9};  // deadline effectively off
  QosBatcher b(QosBatcherConfig::single(cfg));

  b.add(make_request(0, 0.0));
  b.add(make_request(1, 10.0));
  EXPECT_FALSE(b.poll(Ns{10.0}).has_value());  // neither trigger fired

  b.add(make_request(2, 20.0));
  auto batch = b.poll(Ns{20.0});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 3u);
  EXPECT_EQ(batch->dispatch.value, 20.0);
  EXPECT_TRUE(b.empty());
}

TEST(DynamicBatcher, DeadlineTriggerClosesPartialBatch) {
  DynamicBatcherConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = Ns{100.0};
  QosBatcher b(QosBatcherConfig::single(cfg));

  b.add(make_request(0, 50.0));
  b.add(make_request(1, 80.0));
  ASSERT_TRUE(b.deadline().has_value());
  EXPECT_EQ(b.deadline()->value, 150.0);  // oldest enqueue + max_wait

  EXPECT_FALSE(b.poll(Ns{149.0}).has_value());
  auto batch = b.poll(Ns{150.0});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);  // partial batch, deadline fired
}

TEST(DynamicBatcher, SizeTriggerLeavesExcessPending) {
  DynamicBatcherConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait = Ns{1e9};
  QosBatcher b(QosBatcherConfig::single(cfg));
  for (std::size_t i = 0; i < 5; ++i)
    b.add(make_request(i, static_cast<double>(i)));

  auto batch = b.poll(Ns{4.0});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);
  EXPECT_EQ(batch->requests[0].id, 0u);
  EXPECT_EQ(b.pending(), 3u);

  auto flushed = b.flush(Ns{5.0});
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->size(), 2u);  // flush also respects max_batch
  EXPECT_EQ(b.pending(), 1u);
}

// --- RequestQueue / executors ---------------------------------------------

TEST(RequestQueue, BlockingPopAndClose) {
  serve::RequestQueue<int> q;
  std::thread producer([&q] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  int sum = 0, count = 0;
  while (auto v = q.pop()) {
    sum += *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sum, 4950);
  EXPECT_FALSE(q.push(1));  // closed queue refuses new items
}

TEST(ShardExecutor, TasksRunInSubmissionOrder) {
  std::vector<int> order;
  std::promise<void> done;
  serve::ShardExecutor ex;
  for (int i = 0; i < 50; ++i)
    ex.submit([&order, i] { order.push_back(i); });
  ex.submit([&done] { done.set_value(); });
  done.get_future().wait();  // all 50 ran (FIFO) and are visible
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// --- HotEmbeddingCache -----------------------------------------------------

TEST(HotEmbeddingCache, DisabledCacheNeverHits) {
  HotEmbeddingCache cache(HotCacheConfig{0});
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(cache.access(0, 7));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 10u);
}

TEST(HotEmbeddingCache, RepeatAccessHitsOnceResident) {
  HotEmbeddingCache cache(HotCacheConfig{4});
  EXPECT_FALSE(cache.access(0, 1));  // cold miss, admitted (space free)
  EXPECT_TRUE(cache.access(0, 1));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(0, 2));
  // Distinct tables do not alias.
  EXPECT_FALSE(cache.access(1, 1));
  EXPECT_TRUE(cache.access(1, 1));
}

TEST(HotEmbeddingCache, FrequencyAdmissionResistsScans) {
  HotEmbeddingCache cache(HotCacheConfig{2});
  // Make rows 0 and 1 hot.
  for (int i = 0; i < 5; ++i) {
    cache.access(0, 0);
    cache.access(0, 1);
  }
  // A one-off scan over cold rows must not evict them.
  for (std::uint32_t r = 100; r < 200; ++r) EXPECT_FALSE(cache.access(0, r));
  EXPECT_TRUE(cache.access(0, 0));
  EXPECT_TRUE(cache.access(0, 1));
}

TEST(HotEmbeddingCache, HitRateMonotoneInZipfSkew) {
  const std::size_t rows = 4000, accesses = 40000, capacity = 256;
  double prev = -1.0;
  for (double s : {0.0, 0.5, 0.9, 1.3}) {
    HotEmbeddingCache cache(HotCacheConfig{capacity});
    data::ZipfSampler zipf(rows, s);
    util::Xoshiro256 rng(99);
    for (std::size_t i = 0; i < accesses; ++i)
      cache.access(0, static_cast<std::uint32_t>(zipf.sample(rng)));
    const double rate = cache.stats().hit_rate();
    EXPECT_GT(rate, prev) << "skew s=" << s;
    prev = rate;
  }
  EXPECT_GT(prev, 0.5);  // heavy skew concentrates traffic in the hot set
}

// Eager LFU reference for the cache's flat mode: residents sit in an
// ordered set keyed by (lifetime freq, key), so the coldest one is always
// begin(), and a miss on a full buffer replaces it only when strictly
// hotter. Updates bump the frequency and dirty a resident row; evicting a
// dirty row flushes it.
struct EagerLfu {
  explicit EagerLfu(std::size_t cap) : capacity(cap) {}

  std::size_t capacity;
  std::map<std::uint64_t, std::uint64_t> freq;
  std::set<std::pair<std::uint64_t, std::uint64_t>> resident;  // (freq, key)
  std::set<std::uint64_t> dirty;
  serve::CacheStats stats;
  std::uint64_t pending_flushes = 0;

  bool contains(std::uint64_t key) const {
    const auto it = freq.find(key);
    return it != freq.end() && resident.contains({it->second, key});
  }
  /// Bumps the lifetime frequency; returns {new freq, resident}.
  std::pair<std::uint64_t, bool> touch(std::uint64_t key) {
    std::uint64_t& f = freq[key];
    const bool res = resident.erase({f, key}) > 0;
    ++f;
    if (res) resident.insert({f, key});
    return {f, res};
  }
  bool access(std::uint64_t key) {
    const auto [f, res] = touch(key);
    if (res) {
      ++stats.hits;
      return true;
    }
    ++stats.misses;
    if (resident.size() == capacity) {
      const auto [min_freq, min_key] = *resident.begin();
      if (f <= min_freq) return false;
      resident.erase(resident.begin());
      if (dirty.erase(min_key) > 0) {
        ++stats.flushes;
        ++pending_flushes;
      }
    }
    resident.insert({f, key});
    return false;
  }
  bool update(std::uint64_t key) {
    const auto [f, res] = touch(key);
    if (!res) {
      ++stats.update_misses;
      return false;
    }
    dirty.insert(key);
    ++stats.update_hits;
    return true;
  }
};

// Pins every observable of the flat-mode cache to the eager reference on a
// Zipf stream with 10% updates. The keys straddle both levels of the
// history index: 512-row pages (rows 511/512/513) and 2^20-row spans
// (0xFFFFF/0x100000, a page edge inside span 1, the first and the last
// span), and the extremes of both key halves.
TEST(HotEmbeddingCache, MatchesEagerLfuReference) {
  constexpr std::uint32_t kTables[] = {0, 1, 0xFFFF, 0xFFFFFFFF};
  std::vector<std::uint32_t> rows = {
      0,          511,        512,        513,        1,
      1023,       1024,       0xFFFFFFFF, 4095,       4096,
      0xFFFFFE00, 0xFFFFFDFF, 0xFFFFF,    0x100000,   0x1001FF,
      0x100200,   0x1FFFFF,   0x200000,   0xFFEFFFFF, 0xFFF00000};
  util::Xoshiro256 row_rng(5);
  while (rows.size() < 48)
    rows.push_back(static_cast<std::uint32_t>(row_rng.below(1ULL << 32)));
  const auto key_of = [](std::uint32_t t, std::uint32_t r) {
    return (static_cast<std::uint64_t>(t) << 32) | r;
  };
  const std::size_t pool = std::size(kTables) * rows.size();

  std::uint64_t flushes = 0;
  for (const std::size_t capacity : {1, 7, 64}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    HotEmbeddingCache cache(HotCacheConfig{capacity});
    EagerLfu ref(capacity);
    const data::ZipfSampler zipf(pool, 0.9);
    util::Xoshiro256 rng(17 + capacity);
    const auto expect_same_residency = [&](std::uint32_t t, std::uint32_t r) {
      const std::uint64_t k = key_of(t, r);
      ASSERT_EQ(cache.contains(t, r), ref.contains(k)) << t << ":" << r;
      ASSERT_EQ(cache.dirty(t, r), ref.dirty.contains(k)) << t << ":" << r;
    };
    for (std::size_t op = 0; op < 20000; ++op) {
      const std::size_t i = zipf.sample(rng);
      const std::uint32_t t = kTables[i % std::size(kTables)];
      const std::uint32_t r = rows[i / std::size(kTables)];
      if (rng.bernoulli(0.1)) {
        ASSERT_EQ(cache.update(t, r), ref.update(key_of(t, r))) << "op " << op;
      } else {
        ASSERT_EQ(cache.access(t, r), ref.access(key_of(t, r))) << "op " << op;
      }
      if (rng.bernoulli(0.2)) {
        ASSERT_EQ(cache.take_flushed_tiers().rows, ref.pending_flushes)
            << "op " << op;
        ref.pending_flushes = 0;
      }
      ASSERT_EQ(cache.resident_rows(), ref.resident.size()) << "op " << op;
      ASSERT_EQ(cache.dirty_rows(), ref.dirty.size()) << "op " << op;
      expect_same_residency(t, r);
      if (op % 500 == 0)
        for (const std::uint32_t tt : kTables)
          for (const std::uint32_t rr : rows) expect_same_residency(tt, rr);
    }
    const serve::CacheStats& s = cache.stats();
    EXPECT_EQ(s.hits, ref.stats.hits);
    EXPECT_EQ(s.misses, ref.stats.misses);
    EXPECT_EQ(s.update_hits, ref.stats.update_hits);
    EXPECT_EQ(s.update_misses, ref.stats.update_misses);
    EXPECT_EQ(s.flushes, ref.stats.flushes);
    EXPECT_EQ(s.warm_hits + s.cold_faults + s.cold_rows_fetched +
                  s.warm_evictions + s.promotions + s.flushes_warm +
                  s.flushes_cold,
              0u);  // flat mode: the tier counters stay at zero
    EXPECT_EQ(cache.take_flushed_tiers().rows, ref.pending_flushes);
    EXPECT_GT(s.hits, 0u);
    flushes += s.flushes;
  }
  EXPECT_GT(flushes, 0u);  // the stream exercises dirty evictions
}

TEST(HotEmbeddingCache, FrequencyBumpSaturatesBelowTheResidentBit) {
  using C = HotEmbeddingCache;
  static_assert(C::bump(0) == 1);
  static_assert(C::bump(0x7FFFFFFE) == 0x7FFFFFFF);
  // At 2^31 - 1 the frequency stays put instead of carrying into bit 31,
  // which would make a non-resident row read as resident.
  static_assert(C::bump(0x7FFFFFFF) == 0x7FFFFFFF);
  static_assert(C::bump(0x80000000) == 0x80000001);
  static_assert(C::bump(0xFFFFFFFE) == 0xFFFFFFFF);
  static_assert(C::bump(0xFFFFFFFF) == 0xFFFFFFFF);
  EXPECT_EQ(C::bump(0x7FFFFFFF), 0x7FFFFFFFu);
  EXPECT_EQ(C::bump(0xFFFFFFFF), 0xFFFFFFFFu);
}

TEST(HotEmbeddingCache, HistoryCostsFourBytesPerRowAndNoIndexByKeyRange) {
  // Rows 0 and 2^32 - 1 of a table cost two 2 KiB pages, a list of 4096
  // span pointers (32 KiB) and two page lists: one pointer for row 0's span
  // and 2048 (16 KiB) for row 2^32 - 1's, whatever the table id: no array
  // is sized by a row or table value.
  HotEmbeddingCache sparse(HotCacheConfig{4});
  for (const std::uint32_t t : {0u, 0xFFFFFFFFu})
    for (const std::uint32_t r : {0u, 0xFFFFFFFFu}) sparse.access(t, r);
  EXPECT_TRUE(sparse.contains(0xFFFFFFFF, 0xFFFFFFFF));
  EXPECT_LE(sparse.history_bytes(), (2 * (32 + 16 + 2 * 2) + 1) * 1024u);
  // A dense table costs 4 B per row plus one 16 KiB page list per 2^20
  // rows.
  HotEmbeddingCache dense(HotCacheConfig{4});
  constexpr std::uint32_t kRows = 1u << 20;
  for (std::uint32_t r = 0; r < kRows; ++r) dense.access(7, r);
  EXPECT_GE(dense.history_bytes(), std::size_t{4} * kRows);
  EXPECT_LE(dense.history_bytes(), std::size_t{4} * kRows + 17 * 1024);
  // A 4,000-row table pays for its 8 pages and their pointers, not for a
  // 16 KiB page list.
  HotEmbeddingCache small(HotCacheConfig{4});
  for (std::uint32_t r = 0; r < 4000; ++r) small.access(3, r);
  EXPECT_GE(small.history_bytes(), std::size_t{4} * 4096);
  EXPECT_LE(small.history_bytes(), std::size_t{4} * 4096 + 256);
}

// --- Sharded serving over the CPU oracle ----------------------------------

struct ServeFixture {
  ServeFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 80;
    dcfg.num_items = 96;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 41;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 43;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(47);
    model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < ds->num_users(); ++u)
      users.push_back(model->make_context(*ds, u));

    cpu_cfg.candidates = 40;
    factory = core::cpu_backend_factory(*model, cpu_cfg);
  }

  std::unique_ptr<data::MovieLensSynth> ds;
  std::unique_ptr<recsys::YoutubeDnn> model;
  std::vector<recsys::UserContext> users;
  baseline::CpuBackendConfig cpu_cfg;
  core::BackendFactory factory;
};

TEST(ShardRouter, MergedTopkMatchesSingleBackend) {
  ServeFixture fx;
  const std::size_t k = 10;
  const auto profile = device::DeviceProfile::fefet45();
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(core::ArchConfig{}, profile));

  ShardRouter single(fx.factory, 1);
  ShardRouter sharded(fx.factory, 4);
  single.bind_users(fx.users);
  sharded.bind_users(fx.users);
  StagePipeline pipe1(single, profile);
  StagePipeline pipe4(sharded, profile);

  Batch batch;
  batch.dispatch = Ns{0.0};
  for (std::size_t u = 0; u < 12; ++u)
    batch.requests.push_back(make_request(u, 0.0, u));

  const auto ref = pipe1.execute(batch, k, nullptr, timing);
  const auto got = pipe4.execute(batch, k, nullptr, timing);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].work_items, got[i].work_items);
    ASSERT_EQ(ref[i].topk.size(), got[i].topk.size()) << "query " << i;
    for (std::size_t j = 0; j < ref[i].topk.size(); ++j) {
      EXPECT_EQ(ref[i].topk[j].item, got[i].topk[j].item)
          << "query " << i << " position " << j;
      EXPECT_FLOAT_EQ(ref[i].topk[j].score, got[i].topk[j].score);
    }
  }
}

TEST(ShardRouter, RoundRobinSpreadsFilterLoad) {
  ServeFixture fx;
  const auto profile = device::DeviceProfile::fefet45();
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(core::ArchConfig{}, profile));
  ShardRouter router(fx.factory, 4);
  router.bind_users(fx.users);
  StagePipeline pipe(router, profile);

  Batch batch;
  batch.dispatch = Ns{0.0};
  for (std::size_t u = 0; u < 8; ++u)
    batch.requests.push_back(make_request(u, 0.0, u));
  const auto res = pipe.execute(batch, 5, nullptr, timing);

  std::vector<std::size_t> per_shard(4, 0);
  for (const auto& r : res) ++per_shard[r.home_shard];
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(per_shard[s], 2u);
}

TEST(ServingRuntime, ClosedLoopServesWholeStream) {
  ServeFixture fx;
  ServingConfig cfg;
  cfg.shards = 2;
  cfg.k = 5;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = Ns{500000.0};
  cfg.cache.capacity_rows = 512;
  ServingRuntime rt(fx.factory, cfg, core::ArchConfig{},
                    device::DeviceProfile::fefet45());

  LoadGenConfig lg;
  lg.clients = 8;
  lg.total_queries = 48;
  lg.num_users = fx.users.size();
  lg.user_zipf_s = 0.8;
  LoadGenerator gen(lg);

  const auto report = rt.run(gen, fx.users);
  ASSERT_EQ(report.size(), 48u);
  EXPECT_GE(report.batches, 48u / cfg.batcher.max_batch);

  // Every request served exactly once, every latency causally ordered.
  std::vector<bool> seen(48, false);
  for (const auto& q : report.queries) {
    ASSERT_LT(q.id, 48u);
    EXPECT_FALSE(seen[q.id]);
    seen[q.id] = true;
    EXPECT_LE(q.enqueue.value, q.dispatch.value);
    EXPECT_LT(q.dispatch.value, q.complete.value);
    EXPECT_LE(q.batch_size, cfg.batcher.max_batch);
    EXPECT_LE(q.complete.value, report.makespan.value);
  }
  EXPECT_GT(report.qps(), 0.0);
  EXPECT_GE(report.p99_latency_ns(), report.p50_latency_ns());
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    EXPECT_GE(report.rank_utilization(s), 0.0);
    EXPECT_LE(report.rank_utilization(s), 1.0);
    EXPECT_LE(report.stage_utilization(s, "filter"), 1.0);
  }
  EXPECT_GT(report.cache.accesses(), 0u);
  EXPECT_GT(report.cache.hit_rate(), 0.0);  // Zipf users repeat hot rows
}

TEST(ServingRuntime, ShardingAndBatchingImproveThroughput) {
  ServeFixture fx;

  auto run_cfg = [&](std::size_t shards, std::size_t max_batch,
                     std::size_t clients) {
    ServingConfig cfg;
    cfg.shards = shards;
    cfg.k = 5;
    cfg.batcher.max_batch = max_batch;
    cfg.batcher.max_wait = Ns{500000.0};
    cfg.cache.capacity_rows = 0;
    ServingRuntime rt(fx.factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = clients;
    lg.total_queries = 32;
    lg.num_users = fx.users.size();
    lg.seed = 11;
    LoadGenerator gen(lg);
    return rt.run(gen, fx.users);
  };

  const auto serial = run_cfg(1, 1, 1);
  const auto scaled = run_cfg(4, 8, 16);
  EXPECT_GT(scaled.qps(), serial.qps());
}

TEST(ServingRuntime, CacheReducesLatencyAndEnergy) {
  ServeFixture fx;

  auto run_cache = [&](std::size_t capacity) {
    ServingConfig cfg;
    cfg.shards = 2;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{500000.0};
    cfg.cache.capacity_rows = capacity;
    ServingRuntime rt(fx.factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 32;
    lg.num_users = fx.users.size();
    lg.user_zipf_s = 1.0;
    lg.seed = 13;
    LoadGenerator gen(lg);
    return rt.run(gen, fx.users);
  };

  const auto cold = run_cache(0);
  const auto hot = run_cache(4096);
  EXPECT_EQ(cold.size(), hot.size());
  EXPECT_EQ(hot.cache.hits + hot.cache.misses, hot.cache.accesses());
  EXPECT_GT(hot.cache.hit_rate(), 0.0);
  // The CPU oracle charges no hardware ET cost, so the cache can only add
  // the (tiny) hit-side buffer cost to latency while the accounting stays
  // self-consistent; with a hardware-cost backend the adjustment is a
  // strict improvement (covered by the bench). Here: totals stay finite
  // and hits never *increase* the modeled ET occupancy beyond hit cost.
  EXPECT_GE(hot.filter_stats.total().latency.value, 0.0);
  EXPECT_GE(hot.rank_stats.total().latency.value, 0.0);
}

TEST(ServingRuntime, SameSeedReproducesReportBitIdentically) {
  ServeFixture fx;
  auto run_once = [&] {
    ServingConfig cfg;
    cfg.shards = 2;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{500000.0};
    cfg.cache.capacity_rows = 512;
    ServingRuntime rt(fx.factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 32;
    lg.num_users = fx.users.size();
    lg.seed = 19;
    LoadGenerator gen(lg);
    return rt.run(gen, fx.users);
  };
  serve_test::expect_reports_identical(run_once(), run_once());
}

// --- ServeReport percentiles on tiny samples --------------------------------
// A QoS class with little traffic serves a handful of queries; p99 on those
// streams must neither read past the sorted latency vector nor collapse to 0.

serve::ServedQuery tiny_query(std::size_t id, double latency_ns) {
  serve::ServedQuery q;
  q.id = id;
  q.enqueue = Ns{0.0};
  q.dispatch = Ns{0.0};
  q.complete = Ns{latency_ns};
  return q;
}

TEST(ServeReport, PercentilesOnTinySamples) {
  serve::ServeReport empty;
  EXPECT_DOUBLE_EQ(empty.p50_latency_ns(), 0.0);
  EXPECT_DOUBLE_EQ(empty.p99_latency_ns(), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_latency_ns(), 0.0);
  EXPECT_DOUBLE_EQ(empty.qps(), 0.0);

  serve::ServeReport one;
  one.queries.push_back(tiny_query(0, 1234.5));
  one.makespan = Ns{1234.5};
  EXPECT_DOUBLE_EQ(one.p50_latency_ns(), 1234.5);
  EXPECT_DOUBLE_EQ(one.p95_latency_ns(), 1234.5);
  EXPECT_DOUBLE_EQ(one.p99_latency_ns(), 1234.5);  // n=1: never 0

  serve::ServeReport few;
  for (std::size_t i = 0; i < 5; ++i)
    few.queries.push_back(tiny_query(i, 100.0 * static_cast<double>(i + 1)));
  EXPECT_DOUBLE_EQ(few.p50_latency_ns(), 300.0);
  // p99 interpolates inside the top gap: above every lower sample, at most
  // the max.
  EXPECT_GT(few.p99_latency_ns(), 400.0);
  EXPECT_LE(few.p99_latency_ns(), 500.0);
  EXPECT_GE(few.p99_latency_ns(), few.p95_latency_ns());
}

TEST(ServeReport, ClassViewsFilterByLabel) {
  serve::ServeReport report;
  for (std::size_t i = 0; i < 6; ++i) {
    auto q = tiny_query(i, 100.0 * static_cast<double>(i + 1));
    q.qos_class = i % 2;
    q.device_time = Ns{q.qos_class == 0 ? 10.0 : 30.0};
    report.queries.push_back(q);
  }
  report.makespan = Ns{600.0};
  EXPECT_EQ(report.class_latencies_ns(0).size(), 3u);
  EXPECT_DOUBLE_EQ(report.class_p50_latency_ns(0), 300.0);  // 100/300/500
  EXPECT_DOUBLE_EQ(report.class_p50_latency_ns(1), 400.0);  // 200/400/600
  EXPECT_DOUBLE_EQ(report.class_p99_latency_ns(7), 0.0);    // absent label
  // Shares: 30 vs 90 of 120 total device time.
  EXPECT_NEAR(report.device_share(0), 0.25, 1e-12);
  EXPECT_NEAR(report.device_share(1), 0.75, 1e-12);
  // Cutoff restricts to completions inside the window.
  EXPECT_NEAR(report.device_share(1, Ns{200.0}), 0.75, 1e-12);

  report.classes.resize(2);
  report.classes[0].weight = 1.0;
  report.classes[1].weight = 3.0;
  EXPECT_NEAR(report.fairness_error(), 0.0, 1e-12);
  report.classes[1].weight = 1.0;  // now entitled 50/50, measured 25/75
  EXPECT_NEAR(report.fairness_error(), 0.25, 1e-12);
}

TEST(LoadGenerator, ClosedLoopBudgetAndOrdering) {
  LoadGenConfig lg;
  lg.clients = 4;
  lg.total_queries = 10;
  lg.num_users = 100;
  LoadGenerator gen(lg);
  std::size_t issued = 0;
  for (std::size_t c = 0; c < lg.clients; ++c) {
    auto r = gen.next(c, Ns{0.0});
    ASSERT_TRUE(r.has_value());
    ++issued;
  }
  while (auto r = gen.next(0, Ns{1000.0 * static_cast<double>(issued)})) {
    EXPECT_LT(r->user, lg.num_users);
    ++issued;
  }
  EXPECT_EQ(issued, lg.total_queries);
}

TEST(LoadGenerator, RejectsNonFiniteOrNegativeThink) {
  // A NaN think time made every closed-loop arrival, and with them the
  // makespan and p99, NaN; a negative one issued a client's next query
  // before its previous one completed.
  for (const double think : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -1e6}) {
    LoadGenConfig lg;
    lg.think = Ns{think};
    try {
      LoadGenerator gen(lg);
      ADD_FAILURE() << "think " << think << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "think must be finite and non-negative"),
                std::string::npos)
          << e.what();
    }
  }
  LoadGenConfig lg;
  lg.think = Ns{40000.0};
  EXPECT_NO_THROW(LoadGenerator gen(lg));
}

TEST(LoadGenerator, RejectsNonFiniteClassMix) {
  // An infinite share used to label 0 of 1,000 draws as its class, and two
  // DBL_MAX shares overflowed the total to inf with the same result; a NaN
  // share was misreported as negative.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double big = std::numeric_limits<double>::max();
  const auto error_with = [](std::vector<double> mix) -> std::string {
    LoadGenConfig lg;
    lg.class_mix = std::move(mix);
    try {
      LoadGenerator gen(lg);
    } catch (const Error& e) {
      return e.what();
    }
    return {};
  };
  for (const double share : {inf, nan})
    EXPECT_NE(error_with({share, 1.0}).find("class_mix shares must be finite"),
              std::string::npos)
        << share;
  EXPECT_NE(error_with({big, big}).find("class_mix total must be finite"),
            std::string::npos);
  EXPECT_EQ(error_with({big, 1.0}), "");
}

TEST(LoadGenerator, RejectsNonFiniteTraceArrivals) {
  // The ordering check cannot see a non-finite arrival in a one-request
  // trace or among equal infinities; such traces were served with a NaN
  // p99 and an infinite makespan. A NaN behind finite arrivals was
  // rejected, but as out of order.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto error_with = [](std::vector<double> arrivals) -> std::string {
    LoadGenConfig lg;
    lg.arrivals = serve::ArrivalProcess::kTrace;
    for (std::size_t i = 0; i < arrivals.size(); ++i)
      lg.trace.push_back(make_request(i, arrivals[i]));
    try {
      LoadGenerator gen(lg);
    } catch (const Error& e) {
      return e.what();
    }
    return {};
  };
  for (const double bad : {inf, -inf, nan}) {
    for (const auto& trace : {std::vector<double>{bad},
                              std::vector<double>{bad, bad, bad},
                              std::vector<double>{0.0, 1e3, bad}})
      EXPECT_NE(error_with(trace).find("trace arrivals must be finite"),
                std::string::npos)
          << bad << " in a " << trace.size() << "-request trace";
  }
  EXPECT_EQ(error_with({0.0, 1e3, 1e3}), "");
}

// --- golden report digests --------------------------------------------------
// The scaling grid — phased/overlap x closed/open arrivals x one/two QoS
// classes — and two gated cells with tiered memory and update writes, on
// the synthetic servable, pinned as per-section report digests. A change
// anywhere in shared accounting (cache-adjusted stage costs, the event
// clocks, the tier stack, the batcher, the write path) moves at least
// one cell. The rows pin one toolchain's float results (GCC 12, glibc
// 2.36, x86-64); the library builds with -ffp-contract=off, so an
// FMA-capable -march does not move them. After an intended change, run
// this test: every moved cell prints its new row, ready to paste over the
// old one. Every cell also checks that no stage unit is busy for longer
// than the makespan.

serve::ServeReport serve_synth(const ServingConfig& cfg,
                               const LoadGenConfig& lg) {
  const core::ArchConfig arch;
  const auto profile = device::DeviceProfile::fefet45();
  ServingRuntime rt(bench::make_synth(cfg, lg, arch, profile), cfg, arch,
                    profile);
  LoadGenerator gen(lg);
  return rt.run(gen);
}

/// The scaling grid's two QoS classes: interactive (batch 8, wait
/// 100 us, weight 2) and bulk (batch 32, wait 400 us, weight 1).
std::vector<serve::QosClassConfig> grid_classes() {
  serve::QosClassConfig hi;
  hi.name = "interactive";
  hi.max_batch = 8;
  hi.max_wait = Ns{100000.0};
  hi.weight = 2.0;
  serve::QosClassConfig lo;
  lo.name = "bulk";
  lo.max_batch = 32;
  lo.max_wait = Ns{400000.0};
  lo.weight = 1.0;
  return {hi, lo};
}

TEST(ServeReport, GoldenDigestsPinTheScalingGrid) {
  // clang-format off
  static constexpr serve_test::GoldenRow kGolden[] = {
      {"phased:closed:c1", {{0xe0e5c2fbc01d7977ULL, 0x5d5e6b26af0b3b55ULL, 0x429ed30ee39394f0ULL, 0x7fcf285121116c09ULL}}},
      {"phased:closed:c2", {{0x90b2cb85ecb25e6aULL, 0x2f6f859be45b544bULL, 0xb0c6f4d7963573f2ULL, 0x7ce83168952701ebULL}}},
      {"phased:open:c1", {{0x913517762f7d4aeaULL, 0x5d5e6b26af0b3b55ULL, 0x429ed30ee39394f0ULL, 0x02a0ea0c8b9647ccULL}}},
      {"phased:open:c2", {{0xd3eb62c4bd7e7694ULL, 0x97061a1cbbd3dc37ULL, 0xa7559849f60786daULL, 0x00530ea96478a090ULL}}},
      {"overlap:closed:c1", {{0x5a1c6da73b068c59ULL, 0x3cc8ffad636b28fdULL, 0x737497d3cef2e580ULL, 0x9cc5368504537126ULL}}},
      {"overlap:closed:c2", {{0xd4ee24eb4bd567fbULL, 0xe8f1351234e08d45ULL, 0x5edcf50ad3e90576ULL, 0x23a78743a7c0f2b2ULL}}},
      {"overlap:open:c1", {{0x34a5af59bee17e27ULL, 0x3cc8ffad636b28fdULL, 0x737497d3cef2e580ULL, 0x843a0cd708fb66e1ULL}}},
      {"overlap:open:c2", {{0xbf5af40a47afba88ULL, 0x8060598235be1845ULL, 0x9dd34ea2deabacedULL, 0x362a7d68dfb4ea56ULL}}},
      {"gated:closed:c2", {{0x496e558cd96950d3ULL, 0x8d885967b115a99dULL, 0xb92be6fcae8a76afULL, 0xdfda00f748330c4eULL}}},
      {"gated:open:c2", {{0x527bffae0f9832d4ULL, 0x9ecd5755a6ea5174ULL, 0x1d6c14cf26eb40acULL, 0xf55754da85c5849aULL}}},
  };
  // clang-format on
  constexpr std::size_t kQueries = 160;
  // The open-loop cells arrive at the closed-loop grid fabric's throughput.
  const double open_rate =
      serve_synth(bench::grid_serving_config(),
                  bench::grid_load_config(kQueries))
          .qps();
  std::size_t i = 0;
  const auto expect_golden = [&](const std::string& cell,
                                 const serve::ServeReport& report) {
    ASSERT_LT(i, std::size(kGolden));
    serve_test::expect_golden(kGolden[i++], cell, report);
    serve_test::expect_stage_busy_within_makespan(cell, report);
  };
  for (const bool overlap : {false, true})
    for (const bool open : {false, true})
      for (const std::size_t classes : {std::size_t{1}, std::size_t{2}}) {
        ServingConfig cfg = bench::grid_serving_config();
        cfg.overlap = overlap;
        LoadGenConfig lg = bench::grid_load_config(kQueries);
        if (classes == 2) {
          cfg.qos.classes = grid_classes();
          lg.class_mix = {0.6, 0.4};
        }
        if (open) {
          lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
          lg.rate_qps = open_rate;
        }
        // The session layer is on in the overlap half of the grid.
        if (overlap) {
          lg.session_mode = true;
          lg.session_capacity = 4096;
          lg.session_churn = 0.01;
        }
        expect_golden(std::string(overlap ? "overlap" : "phased") +
                          (open ? ":open" : ":closed") + ":c" +
                          std::to_string(classes),
                      serve_synth(cfg, lg));
      }
  // The gated cells add what the grid never does: gated admission, a
  // three-tier cache and update writes, i.e. the update and tier-commit
  // fences of the event loop. Gating collects phased whatever `overlap`
  // says, so these cells have no overlap half.
  for (const bool open : {false, true}) {
    ServingConfig cfg = bench::grid_serving_config();
    cfg.qos.classes = grid_classes();
    cfg.qos.classes[0].deadline = Ns{400000.0};
    cfg.qos.admit_window = Ns{20000.0};
    cfg.cache.capacity_rows = 256;
    cfg.cache.warm_capacity_rows = 2048;
    cfg.cache.cold_block_rows = 8;
    LoadGenConfig lg = bench::grid_load_config(kQueries);
    lg.class_mix = {0.6, 0.4};
    lg.user_zipf_s = 1.2;
    lg.update_fraction = 0.1;
    if (open) {
      lg.arrivals = serve::ArrivalProcess::kOpenPoisson;
      lg.rate_qps = open_rate;
    }
    const std::string cell =
        std::string("gated") + (open ? ":open" : ":closed") + ":c2";
    const serve::ServeReport report = serve_synth(cfg, lg);
    expect_golden(cell, report);
    EXPECT_GT(report.updates, 0u) << cell;
    EXPECT_GT(report.cache.cold_faults, 0u) << cell;
    EXPECT_GT(report.cache.warm_evictions, 0u) << cell;
    EXPECT_GT(report.cache.update_hits, 0u) << cell;
    double write_busy = 0.0;
    for (const auto& shard : report.shards) write_busy += shard.write_busy.value;
    EXPECT_GT(write_busy, 0.0) << cell;
  }
  EXPECT_EQ(i, std::size(kGolden));
}

}  // namespace
}  // namespace imars
