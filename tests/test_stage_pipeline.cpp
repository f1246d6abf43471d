// Tests for the backend-agnostic staged-pipeline engine (src/serve/):
// ShardMap disjoint covers and capability weighting, heterogeneous-
// partition merge correctness against the single-backend oracle, CTR
// serving parity against serial ImarsCtrBackend::score, async stage-
// overlap determinism, Poisson open-loop arrivals, and the stage DAG:
// spec validation, diamond-graph fan-out/join timing, tower-parallel CTR
// graphs, graph-aware QoS service estimates, and the golden report
// digests of the servable graphs.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend_factory.hpp"
#include "core/calibration.hpp"
#include "data/criteo.hpp"
#include "data/movielens.hpp"
#include "harness.hpp"
#include "recsys/dlrm.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_ctr.hpp"
#include "serve/servable_funnel.hpp"
#include "serve/shard_map.hpp"
#include "serve/stage_pipeline.hpp"
#include "serve_test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::ArrivalProcess;
using serve::Batch;
using serve::CtrGraph;
using serve::CtrServable;
using serve::FunnelConfig;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::PipelineSpec;
using serve::Request;
using serve::RetrievalKind;
using serve::ServingConfig;
using serve::ServingRuntime;
using serve::ShardMap;
using serve::ShardRouter;
using serve::StageKind;
using serve::StagePipeline;
using serve::StageSpec;

Request make_request(std::size_t id, double t, std::size_t user = 0) {
  Request r;
  r.id = id;
  r.user = user;
  r.client = id;
  r.enqueue = Ns{t};
  return r;
}

// --- ShardMap --------------------------------------------------------------

TEST(ShardMap, UniformMatchesModulo) {
  const auto map = ShardMap::uniform(4);
  EXPECT_EQ(map.shards(), 4u);
  EXPECT_EQ(map.buckets(), 4u);
  for (std::size_t item = 0; item < 1000; ++item)
    EXPECT_EQ(map.shard_of(item), item % 4);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_DOUBLE_EQ(map.share(s), 0.25);
}

TEST(ShardMap, WeightedSharesProportionalToCapability) {
  const std::vector<double> w = {3.0, 1.0, 0.0, 2.0};
  const auto map = ShardMap::weighted(w, 64);
  EXPECT_EQ(map.shards(), 4u);
  EXPECT_NEAR(map.share(0), 0.5, 1e-9);
  EXPECT_NEAR(map.share(1), 1.0 / 6.0, 0.01);
  EXPECT_DOUBLE_EQ(map.share(2), 0.0);  // zero weight owns nothing
  EXPECT_NEAR(map.share(3), 1.0 / 3.0, 0.01);
  double total = 0.0;
  for (std::size_t s = 0; s < 4; ++s) total += map.share(s);
  EXPECT_DOUBLE_EQ(total, 1.0);
  // The zero-weight shard never receives an item.
  for (std::size_t item = 0; item < 4096; ++item)
    EXPECT_NE(map.shard_of(item), 2u);
}

TEST(ShardMap, PartitionIsDisjointCover) {
  const std::vector<double> w = {1.0, 4.0, 2.0};
  const auto map = ShardMap::weighted(w, 32);
  std::vector<std::size_t> items;
  for (std::size_t i = 0; i < 500; ++i) items.push_back(i * 7 + 3);

  // A reused buffer arrives holding stale slices (more of them than the
  // map has shards); partitioning must clear them, not append to them.
  std::vector<std::vector<std::size_t>> slices = {{1, 2}, {3}, {}, {4, 5}};
  map.partition_into(items, slices);
  ASSERT_EQ(slices.size(), 3u);
  std::multiset<std::size_t> covered;
  for (std::size_t s = 0; s < slices.size(); ++s)
    for (std::size_t item : slices[s]) {
      EXPECT_EQ(map.shard_of(item), s);
      covered.insert(item);
    }
  EXPECT_EQ(covered.size(), items.size());  // disjoint (no duplicates)
  for (std::size_t item : items) EXPECT_EQ(covered.count(item), 1u);
}

TEST(ShardMap, FromCostsFavorsFasterShards) {
  const std::vector<Ns> costs = {Ns{100.0}, Ns{50.0}, Ns{200.0}};
  const auto map = ShardMap::from_costs(costs, 64);
  // Capability = 1/cost: shares 2/7, 4/7, 1/7.
  EXPECT_NEAR(map.share(0), 2.0 / 7.0, 0.01);
  EXPECT_NEAR(map.share(1), 4.0 / 7.0, 0.01);
  EXPECT_NEAR(map.share(2), 1.0 / 7.0, 0.01);
  // Degenerate (zero-cost oracle) input falls back to uniform.
  const std::vector<Ns> zeros(3, Ns{0.0});
  const auto uniform = ShardMap::from_costs(zeros);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_DOUBLE_EQ(uniform.share(s), 1.0 / 3.0);
}

/// The imars::Error text `fn` throws, or empty when it returns.
template <class Fn>
std::string error_text(Fn&& fn) {
  try {
    (void)fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(ShardMap, RejectsNonFiniteWeightsAndCosts) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto weighted = [](std::vector<double> w) {
    return error_text([&] { return ShardMap::weighted(w); });
  };
  const auto from_costs = [](std::vector<Ns> c) {
    return error_text([&] { return ShardMap::from_costs(c); });
  };
  // An infinite weight would make every share NaN before the float->int
  // bucket cast; NaN fails every comparison.
  EXPECT_NE(weighted({inf, 1.0}).find("non-finite weight"), std::string::npos);
  EXPECT_NE(weighted({1.0, nan}).find("non-finite weight"), std::string::npos);
  // Finite weights whose sum overflows would zero every share and deal
  // the buckets out evenly whatever the weights say.
  EXPECT_NE(weighted({1e308, 1e308, 1.0}).find("sum overflows"),
            std::string::npos);
  // A non-finite cost is rejected, not treated as "unmeasured".
  EXPECT_NE(from_costs({Ns{inf}, Ns{1.0}}).find("non-finite cost"),
            std::string::npos);
  EXPECT_NE(from_costs({Ns{1.0}, Ns{nan}}).find("non-finite cost"),
            std::string::npos);
  EXPECT_NE(from_costs({Ns{-inf}, Ns{1.0}}).find("non-finite cost"),
            std::string::npos);
  // A subnormal cost's reciprocal overflows to an infinite weight.
  EXPECT_NE(from_costs({Ns{1e-320}, Ns{1.0}}).find("reciprocal overflows"),
            std::string::npos);
  // The documented fallbacks still hold: non-positive costs mean
  // "unmeasured", and large finite weights that sum finitely are fine.
  EXPECT_EQ(from_costs({Ns{0.0}, Ns{-1.0}, Ns{2.0}}), "");
  EXPECT_EQ(weighted({1e307, 1e307}), "");
}

// --- Heterogeneous partitions over the CPU oracle --------------------------

struct FilterRankFixture {
  FilterRankFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 60;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 51;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 53;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(57);
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

TEST(StagePipeline, SkewedPartitionMatchesSingleBackend) {
  FilterRankFixture fx;
  const std::size_t k = 10;
  const auto profile = device::DeviceProfile::fefet45();
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(core::ArchConfig{}, profile));

  ShardRouter single(fx.factory, 1);
  single.bind_users(fx.users);
  StagePipeline pipe1(single, profile);

  // Heavily skewed capabilities, including a zero-weight shard that must
  // receive empty slices and still merge correctly.
  const std::vector<double> weights = {3.0, 0.0, 1.0, 6.0};
  ShardRouter sharded(fx.factory, 4);
  sharded.bind_users(fx.users);
  StagePipeline pipe4(sharded, profile, ShardMap::weighted(weights, 16));

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
  // The zero-weight shard must have done no rank work at all.
  EXPECT_DOUBLE_EQ(pipe4.usage()[1].last_stage_busy().value, 0.0);
}

// --- Heterogeneous iMARS fabric (per-slot profiles) ------------------------

TEST(ShardRouter, MixedTechnologyFabricMatchesSingleBackend) {
  // Small trained model so the iMARS replicas are cheap to build.
  data::MovieLensConfig dcfg;
  dcfg.num_users = 40;
  dcfg.num_items = 64;
  dcfg.history_min = 3;
  dcfg.history_max = 6;
  dcfg.seed = 81;
  data::MovieLensSynth ds(dcfg);
  recsys::YoutubeDnnConfig mcfg;
  mcfg.seed = 83;
  recsys::YoutubeDnn model(ds.schema(), mcfg);
  util::Xoshiro256 rng(87);
  model.train_filter_epoch(ds, rng);
  model.train_rank_epoch(ds, rng);

  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ds.num_users(); ++u)
    users.push_back(model.make_context(ds, u));
  std::vector<recsys::UserContext> calib(users.begin(), users.begin() + 8);

  const core::ArchConfig arch;
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.nns_radius = 64;
  const auto sharded_factory =
      core::imars_sharded_backend_factory(model, arch, icfg, calib);

  // One fast FeFET-22 shard next to one FeFET-45 shard.
  const auto fefet45 = device::DeviceProfile::fefet45();
  const std::vector<device::DeviceProfile> profiles = {
      device::DeviceProfile::fefet22(), fefet45};
  ShardRouter hetero(sharded_factory, profiles);
  hetero.bind_users(users);

  // The probe sees the technology difference: the FeFET-22 replica ranks
  // the same slice strictly faster, so it earns the larger item share.
  std::vector<std::size_t> probe_items;
  for (std::size_t i = 0; i < 16; ++i) probe_items.push_back(i);
  const auto costs = hetero.probe_rank_cost(users.front(), probe_items);
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_LT(costs[0].value, costs[1].value);
  const auto map = serve::ShardMap::from_costs(costs, 16);
  EXPECT_GT(map.share(0), map.share(1));

  // Technology is functionally inert: under the SAME placement, a pure
  // FeFET-45 fabric and the mixed fabric produce identical merged top-k
  // (the per-slice hardware threshold top-k makes slicing itself part of
  // the result semantics, so the baseline shares the map, isolating the
  // per-slot profile as the only difference).
  const std::vector<device::DeviceProfile> homogeneous = {fefet45, fefet45};
  ShardRouter uniform_tech(sharded_factory, homogeneous);
  uniform_tech.bind_users(users);
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(arch, fefet45));
  StagePipeline pipe_ref(uniform_tech, fefet45, map);
  StagePipeline pipe_mix(hetero, fefet45, map);

  Batch batch;
  batch.dispatch = Ns{0.0};
  for (std::size_t u = 0; u < 6; ++u)
    batch.requests.push_back(make_request(u, 0.0, u));
  const auto ref = pipe_ref.execute(batch, 8, nullptr, timing);
  const auto got = pipe_mix.execute(batch, 8, nullptr, timing);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].work_items, got[i].work_items);
    ASSERT_EQ(ref[i].topk.size(), got[i].topk.size()) << "query " << i;
    for (std::size_t j = 0; j < ref[i].topk.size(); ++j) {
      EXPECT_EQ(ref[i].topk[j].item, got[i].topk[j].item);
      EXPECT_FLOAT_EQ(ref[i].topk[j].score, got[i].topk[j].score);
    }
  }
}

// --- CTR serving parity ----------------------------------------------------

struct CtrFixture {
  CtrFixture() {
    data::CriteoConfig dcfg;
    dcfg.num_samples = 64;
    dcfg.seed = 61;
    ds = std::make_unique<data::CriteoSynth>(dcfg);

    recsys::DlrmConfig mcfg;
    mcfg.seed = 63;
    model = std::make_unique<recsys::Dlrm>(ds->schema(), mcfg);

    for (std::size_t i = 0; i < 8; ++i) calib.push_back(ds->sample(i));
    factory = core::imars_ctr_backend_factory(
        *model, core::ArchConfig{}, core::TimingMode::kWorstCaseSameArray,
        calib);
  }

  std::unique_ptr<data::CriteoSynth> ds;
  std::unique_ptr<recsys::Dlrm> model;
  std::vector<data::CriteoSample> calib;
  core::CtrBackendFactory factory;
};

TEST(CtrServable, ShardedScoresMatchSerialBackend) {
  CtrFixture fx;
  const auto profile = device::DeviceProfile::fefet45();
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(core::ArchConfig{}, profile));

  // Three shards under a skewed weighting; replicas are functionally
  // identical, so any disjoint cover must reproduce the serial scores.
  const std::vector<device::DeviceProfile> profiles(3, profile);
  CtrServable servable(fx.factory, profiles);
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < fx.ds->size(); ++i)
    samples.push_back(fx.ds->sample(i));
  servable.bind_samples(samples);
  const std::vector<double> weights = {1.0, 3.0, 2.0};
  StagePipeline pipe(servable, profile, serve::ShardMap::weighted(weights, 16));

  Batch batch;
  batch.dispatch = Ns{0.0};
  const std::size_t n = 24;
  for (std::size_t i = 0; i < n; ++i)
    batch.requests.push_back(make_request(i, 0.0, i % samples.size()));

  const auto results = pipe.execute(batch, 1, nullptr, timing);
  ASSERT_EQ(results.size(), n);

  // Serial reference: one more replica from the same factory.
  const auto serial =
      fx.factory(core::ShardSlot{0, profile});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(results[i].topk.size(), 1u) << "query " << i;
    const auto& s = samples[batch.requests[i].user];
    const float want = serial->score(s.dense, s.sparse, nullptr);
    EXPECT_FLOAT_EQ(results[i].topk[0].score, want) << "query " << i;
    EXPECT_EQ(results[i].topk[0].item, batch.requests[i].user);
    EXPECT_GT(results[i].complete.value, 0.0);
  }
}

TEST(CtrServable, ServesThroughSharedRuntime) {
  CtrFixture fx;
  const auto profile = device::DeviceProfile::fefet45();
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < fx.ds->size(); ++i)
    samples.push_back(fx.ds->sample(i));

  const std::vector<device::DeviceProfile> profiles(2, profile);
  auto servable = std::make_unique<CtrServable>(fx.factory, profiles);
  servable->bind_samples(samples);

  ServingConfig cfg;
  cfg.k = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = Ns{500000.0};
  cfg.cache.capacity_rows = 2048;
  const std::vector<double> weights = {2.0, 1.0};
  cfg.shard_map = ShardMap::weighted(weights);
  ServingRuntime rt(std::move(servable), cfg, core::ArchConfig{}, profile);

  LoadGenConfig lg;
  lg.clients = 8;
  lg.total_queries = 32;
  lg.num_users = samples.size();
  lg.user_zipf_s = 1.0;
  lg.seed = 67;
  LoadGenerator gen(lg);

  const auto report = rt.run(gen);
  ASSERT_EQ(report.size(), 32u);
  EXPECT_GT(report.qps(), 0.0);
  EXPECT_GT(report.cache.accesses(), 0u);
  EXPECT_GT(report.cache.hit_rate(), 0.0);  // Zipf-hot feature rows repeat
  for (const auto& q : report.queries) {
    EXPECT_EQ(q.candidates, 1u);  // one impression per query
    EXPECT_LE(q.enqueue.value, q.dispatch.value);
    EXPECT_LT(q.dispatch.value, q.complete.value);
    EXPECT_DOUBLE_EQ(q.filter_latency.value, 0.0);  // single-stage graph
    EXPECT_GT(q.rank_latency.value, 0.0);
  }
  // Single-stage usage: the capable shard carries more of the stream.
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_GT(report.rank_utilization(0), 0.0);
  EXPECT_GT(report.shards[0].last_stage_busy().value,
            report.shards[1].last_stage_busy().value);
}

// --- Async overlap determinism ---------------------------------------------

TEST(ServingRuntime, OverlapPreservesHardwareTimeReport) {
  FilterRankFixture fx;

  auto run_once = [&](bool overlap) {
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache.capacity_rows = 1024;
    cfg.overlap = overlap;
    ServingRuntime rt(fx.factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 40;
    lg.num_users = fx.users.size();
    lg.arrivals = ArrivalProcess::kOpenPoisson;
    lg.rate_qps = 2.0e5;  // well into the knee for the oracle's zero cost
    lg.seed = 71;
    LoadGenerator gen(lg);
    return rt.run(gen, fx.users);
  };

  const auto phased = run_once(false);
  const auto overlapped = run_once(true);
  serve_test::expect_reports_identical(phased, overlapped);
  EXPECT_DOUBLE_EQ(phased.p99_latency_ns(), overlapped.p99_latency_ns());
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_DOUBLE_EQ(phased.rank_utilization(s),
                     overlapped.rank_utilization(s));
}

// --- Poisson open-loop arrivals --------------------------------------------

TEST(LoadGenerator, PoissonArrivalsAreSeededAndRateConsistent) {
  LoadGenConfig lg;
  lg.clients = 4;
  lg.total_queries = 4000;
  lg.num_users = 50;
  lg.arrivals = ArrivalProcess::kOpenPoisson;
  lg.rate_qps = 1.0e6;  // mean gap 1 us
  lg.seed = 73;

  LoadGenerator gen(lg);
  std::vector<Request> stream;
  while (auto r = gen.next_arrival()) stream.push_back(*r);
  ASSERT_EQ(stream.size(), lg.total_queries);

  double prev = -1.0;
  for (const auto& r : stream) {
    EXPECT_GE(r.enqueue.value, prev);  // non-decreasing arrival times
    EXPECT_LT(r.user, lg.num_users);
    prev = r.enqueue.value;
  }
  // Mean inter-arrival within 5% of 1/rate (4000 draws).
  const double mean_gap_ns =
      stream.back().enqueue.value / static_cast<double>(stream.size());
  EXPECT_NEAR(mean_gap_ns, 1000.0, 50.0);

  // Same seed reproduces the stream bit-for-bit.
  LoadGenerator gen2(lg);
  for (const auto& r : stream) {
    const auto r2 = gen2.next_arrival();
    ASSERT_TRUE(r2.has_value());
    EXPECT_DOUBLE_EQ(r.enqueue.value, r2->enqueue.value);
    EXPECT_EQ(r.user, r2->user);
  }
}

TEST(LoadGenerator, ClassMixLabelsWithoutShiftingUserDraws) {
  LoadGenConfig plain;
  plain.clients = 4;
  plain.total_queries = 600;
  plain.num_users = 40;
  plain.arrivals = ArrivalProcess::kOpenPoisson;
  plain.rate_qps = 1.0e6;
  plain.seed = 31;
  LoadGenConfig mixed = plain;
  mixed.class_mix = {0.1, 0.6, 0.3};

  LoadGenerator a(plain), b(mixed);
  std::vector<std::size_t> counts(3, 0);
  while (auto ra = a.next_arrival()) {
    const auto rb = b.next_arrival();
    ASSERT_TRUE(rb.has_value());
    // The class draw uses its own stream: users and arrival times are
    // bit-identical with and without a mix.
    EXPECT_EQ(ra->user, rb->user);
    EXPECT_DOUBLE_EQ(ra->enqueue.value, rb->enqueue.value);
    EXPECT_EQ(ra->qos_class, 0u);
    ASSERT_LT(rb->qos_class, 3u);
    ++counts[rb->qos_class];
  }
  // Labels roughly follow the configured shares (600 draws).
  EXPECT_NEAR(static_cast<double>(counts[1]) / 600.0, 0.6, 0.1);
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[2], 0u);

  // Same seed reproduces the labels bit-for-bit.
  LoadGenerator c(mixed), d(mixed);
  while (auto rc = c.next_arrival())
    EXPECT_EQ(rc->qos_class, d.next_arrival()->qos_class);
}

TEST(LoadGenerator, TraceReplayIsVerbatim) {
  std::vector<Request> trace;
  for (std::size_t i = 0; i < 5; ++i) {
    Request r;
    r.id = 100 + i;
    r.user = i % 3;
    r.qos_class = i % 2;
    r.enqueue = Ns{10.0 * static_cast<double>(i)};
    trace.push_back(r);
  }
  LoadGenConfig lg;
  lg.num_users = 3;
  lg.arrivals = ArrivalProcess::kTrace;
  lg.trace = trace;
  LoadGenerator gen(lg);
  for (const auto& want : trace) {
    const auto got = gen.next_arrival();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, want.id);
    EXPECT_EQ(got->user, want.user);
    EXPECT_EQ(got->qos_class, want.qos_class);
    EXPECT_DOUBLE_EQ(got->enqueue.value, want.enqueue.value);
  }
  EXPECT_FALSE(gen.next_arrival().has_value());

  // Out-of-order traces are rejected at construction.
  std::swap(lg.trace[0], lg.trace[4]);
  EXPECT_THROW(LoadGenerator bad(lg), std::runtime_error);
}

// --- Stage-DAG spec validation ---------------------------------------------

/// A one-shard servable that only declares a stage graph: enough to build
/// a pipeline over it, whose constructor validates the graph.
class SpecOnlyServable final : public serve::ServableBackend {
 public:
  explicit SpecOnlyServable(PipelineSpec spec) : spec_(std::move(spec)) {}

  std::string_view name() const override { return "spec-only"; }
  const PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return 1; }
  std::vector<std::size_t> run_replicated(std::size_t, std::size_t,
                                          const Request&,
                                          recsys::StageStats*) override {
    return {};
  }
  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t, std::size_t, const Request&, std::span<const std::size_t>,
      std::size_t, recsys::StageStats*) override {
    return {};
  }
  void accesses_into(std::size_t, const Request&,
                     std::span<const std::size_t>,
                     std::vector<serve::RowAccess>&) const override {}

 private:
  PipelineSpec spec_;
};

TEST(PipelineSpec, RejectsMalformedGraphs) {
  PipelineSpec empty;
  EXPECT_THROW(empty.resolve(), Error);

  PipelineSpec cycle;
  cycle.stages = {{"a", StageKind::kReplicated, {"b"}},
                  {"b", StageKind::kSharded, {"a"}}};
  EXPECT_THROW(cycle.resolve(), Error);

  PipelineSpec self_dep;
  self_dep.stages = {{"a", StageKind::kReplicated, {"a"}}};
  EXPECT_THROW(self_dep.resolve(), Error);

  PipelineSpec unknown;
  unknown.stages = {{"a", StageKind::kReplicated, {}},
                    {"b", StageKind::kSharded, {"nope"}}};
  EXPECT_THROW(unknown.resolve(), Error);

  PipelineSpec duplicate;
  duplicate.stages = {{"a", StageKind::kReplicated, {}},
                      {"a", StageKind::kSharded, {"a"}}};
  EXPECT_THROW(duplicate.resolve(), Error);

  PipelineSpec unnamed;
  unnamed.stages = {{"", StageKind::kReplicated, {}},
                    {"b", StageKind::kSharded, {""}}};
  EXPECT_THROW(unnamed.resolve(), Error);

  // Every stage is named, even a lone source that no edge refers to.
  PipelineSpec unnamed_source;
  unnamed_source.stages = {{"", StageKind::kSharded, {}}};
  EXPECT_THROW(unnamed_source.resolve(), Error);

  PipelineSpec no_sharded_merge;
  no_sharded_merge.stages = {{"a", StageKind::kReplicated, {}}};
  no_sharded_merge.merge_topk = true;
  EXPECT_THROW(no_sharded_merge.resolve(), Error);

  // A servable with a malformed graph is rejected at pipeline construction.
  SpecOnlyServable cyclic(cycle);
  EXPECT_THROW(StagePipeline(cyclic, device::DeviceProfile::fefet45()), Error);
}

TEST(PipelineSpec, FilterRankSpecResolvesToFilterFeedingRank) {
  const auto a = ShardRouter::pipeline_spec().resolve();
  ASSERT_EQ(a.order.size(), 2u);
  EXPECT_EQ(a.order[0], 0u);
  EXPECT_EQ(a.order[1], 1u);
  ASSERT_EQ(a.preds[1].size(), 1u);
  EXPECT_EQ(a.preds[1][0], 0u);
  // The rank stage partitions the filter stage's candidate output.
  ASSERT_EQ(a.item_sources[1].size(), 1u);
  EXPECT_EQ(a.item_sources[1][0], 0u);
  EXPECT_EQ(a.output_stage, 1u);
}

TEST(PipelineSpec, CriticalPathFollowsLongestBranch) {
  PipelineSpec diamond;
  diamond.stages = {{"prep", StageKind::kReplicated, {}},
                    {"left", StageKind::kReplicated, {"prep"}},
                    {"right", StageKind::kReplicated, {"prep"}},
                    {"join", StageKind::kSharded, {"left", "right"}}};
  const std::vector<Ns> costs = {Ns{100.0}, Ns{50.0}, Ns{80.0}, Ns{40.0}};
  // prep + max(left, right) + join.
  EXPECT_DOUBLE_EQ(diamond.critical_path(costs).value, 220.0);

  // The same stages as a chain sum serially.
  PipelineSpec chain = diamond;
  for (std::size_t s = 1; s < chain.stages.size(); ++s)
    chain.stages[s].deps = {chain.stages[s - 1].name};
  EXPECT_DOUBLE_EQ(chain.critical_path(costs).value, 270.0);
}

// --- Adversarial spec fuzzing (ISSUE satellite) ----------------------------
// A seeded random DAG generator drives resolve() through every rejection
// class, asserting the imars::Error text NAMES the offending stage (specs
// are assembled from config — the error must be debuggable standalone), and
// through accepted graphs, asserting the topological order is valid,
// reproducible, and exactly the deterministic min-index Kahn order.

std::string stage_name(std::size_t i) { return "s" + std::to_string(i); }

/// Random acyclic spec: stages s0..s{n-1}, forward edges only.
PipelineSpec random_dag(util::Xoshiro256& rng, std::size_t n) {
  PipelineSpec spec;
  for (std::size_t i = 0; i < n; ++i)
    spec.stages.push_back({stage_name(i),
                           rng.below(2) == 0 ? StageKind::kReplicated
                                             : StageKind::kSharded,
                           {}});
  for (std::size_t j = 1; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i)
      if (rng.below(5) < 2) spec.stages[j].deps.push_back(stage_name(i));
  return spec;
}

/// resolve()'s error text, or empty when the spec is accepted.
std::string resolve_error(const PipelineSpec& spec) {
  return error_text([&] { return spec.resolve(); });
}

TEST(PipelineSpecFuzz, RejectedGraphsNameTheOffendingStage) {
  util::Xoshiro256 rng(0xDA6F00D);
  for (int iter = 0; iter < 150; ++iter) {
    const std::size_t n = 2 + rng.below(6);
    PipelineSpec spec = random_dag(rng, n);
    std::vector<std::string> expect_tokens;
    switch (iter % 5) {
      case 0: {  // unknown dependency: must name both ends of the edge
        const std::size_t j = rng.below(n);
        spec.stages[j].deps.push_back("ghost");
        expect_tokens = {stage_name(j), "ghost"};
        break;
      }
      case 1: {  // duplicate stage name
        const std::size_t i = rng.below(n - 1);
        const std::size_t j = i + 1 + rng.below(n - 1 - i);
        spec.stages[j].name = spec.stages[i].name;
        expect_tokens = {"duplicate", stage_name(i)};
        break;
      }
      case 2: {  // self-dependency
        const std::size_t j = rng.below(n);
        spec.stages[j].deps.push_back(spec.stages[j].name);
        expect_tokens = {stage_name(j), "itself"};
        break;
      }
      case 3: {  // cycle: a chain plus one back edge i -> j (j > i)
        for (std::size_t s = 0; s < n; ++s) spec.stages[s].deps.clear();
        for (std::size_t s = 1; s < n; ++s)
          spec.stages[s].deps.push_back(stage_name(s - 1));
        const std::size_t i = rng.below(n - 1);
        const std::size_t j = i + 1 + rng.below(n - 1 - i);
        spec.stages[i].deps.push_back(stage_name(j));
        // Kahn gets stuck exactly at the back edge's tail: the error must
        // name a stage ON the cycle, and stage i is the first stuck one.
        expect_tokens = {"cycle", stage_name(i)};
        break;
      }
      case 4: {  // unnamed stage: named by index
        const std::size_t j = rng.below(n);
        spec.stages[j].name.clear();
        expect_tokens = {"stage #" + std::to_string(j)};
        break;
      }
    }
    const std::string msg = resolve_error(spec);
    ASSERT_FALSE(msg.empty()) << "iter " << iter << ": spec was accepted";
    for (const auto& token : expect_tokens)
      EXPECT_NE(msg.find(token), std::string::npos)
          << "iter " << iter << ": error '" << msg
          << "' does not mention '" << token << "'";
  }
}

TEST(PipelineSpecFuzz, MergeWithoutShardedStageIsRejected) {
  util::Xoshiro256 rng(0xBEEF);
  for (int iter = 0; iter < 20; ++iter) {
    PipelineSpec spec = random_dag(rng, 2 + rng.below(5));
    for (auto& s : spec.stages) s.kind = StageKind::kReplicated;
    spec.merge_topk = true;
    const std::string msg = resolve_error(spec);
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("merge_topk"), std::string::npos) << msg;
  }
}

TEST(PipelineSpecFuzz, AcceptedGraphsTopoOrderDeterministically) {
  util::Xoshiro256 rng(0xCAFE);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 1 + rng.below(7);
    PipelineSpec spec = n == 1 ? PipelineSpec{{{stage_name(0),
                                               StageKind::kSharded,
                                               {}}},
                                              false}
                               : random_dag(rng, n);
    // merge_topk only when legal — rejection is covered above.
    bool has_sharded = false;
    for (const auto& s : spec.stages)
      has_sharded |= s.kind == StageKind::kSharded;
    spec.merge_topk = has_sharded && rng.below(2) == 0;

    const PipelineSpec::Graph g = spec.resolve();
    ++accepted;
    // Reproducible: a second resolution is structurally identical.
    EXPECT_TRUE(g == spec.resolve()) << "iter " << iter;

    // The order is a valid topological sort...
    ASSERT_EQ(g.order.size(), spec.stage_count());
    std::vector<std::size_t> position(spec.stage_count());
    for (std::size_t pos = 0; pos < g.order.size(); ++pos)
      position[g.order[pos]] = pos;
    for (std::size_t s = 0; s < spec.stage_count(); ++s)
      for (std::size_t p : g.preds[s])
        EXPECT_LT(position[p], position[s]) << "iter " << iter;

    // ...and exactly the min-index Kahn order: at every step the placed
    // stage is the LOWEST-index ready one (the determinism contract the
    // event-model accounting relies on).
    std::vector<std::size_t> pending(spec.stage_count());
    for (std::size_t s = 0; s < spec.stage_count(); ++s)
      pending[s] = g.preds[s].size();
    std::vector<bool> placed(spec.stage_count(), false);
    for (std::size_t step = 0; step < g.order.size(); ++step) {
      std::size_t lowest = spec.stage_count();
      for (std::size_t s = 0; s < spec.stage_count(); ++s)
        if (!placed[s] && pending[s] == 0) {
          lowest = s;
          break;
        }
      ASSERT_EQ(g.order[step], lowest) << "iter " << iter << " step " << step;
      placed[lowest] = true;
      for (std::size_t succ : g.succs[lowest]) --pending[succ];
    }
  }
  EXPECT_EQ(accepted, 200u);  // the generator never produces invalid graphs
}

// --- Diamond-graph fan-out/join execution ----------------------------------

/// Synthetic four-stage diamond servable with scripted per-stage costs:
///   prep (replicated) -> {left, right} (replicated towers) -> join
///   (sharded over the concatenation of both towers' items); `chained`
///   declares the same stages as the chain prep -> left -> right -> join.
/// Stage costs are split into an ET part (contends for the shard's shared
/// banks) and a bank-free part, so join/fan-out timing is hand-checkable.
class DiamondServable final : public serve::ServableBackend {
 public:
  struct StageCost {
    double total = 0.0;  ///< stage-unit occupancy (ns)
    double et = 0.0;     ///< ET-bank share of `total` (ns)
  };

  DiamondServable(std::size_t shards, std::vector<StageCost> costs,
                  bool chained = false)
      : shards_(shards), costs_(std::move(costs)) {
    spec_.stages = {{"prep", StageKind::kReplicated, {}},
                    {"left", StageKind::kReplicated, {"prep"}},
                    {"right", StageKind::kReplicated, {"prep"}},
                    {"join", StageKind::kSharded, {"left", "right"}}};
    if (chained) {
      spec_.stages[2].deps = {"left"};
      spec_.stages[3].deps = {"right"};
    }
    spec_.merge_topk = true;
  }

  std::string_view name() const override { return "diamond"; }
  const PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return shards_; }

  std::vector<std::size_t> run_replicated(
      std::size_t stage, std::size_t /*shard*/, const Request& /*req*/,
      recsys::StageStats* stats) override {
    fill(stage, stats);
    if (stage == 1) return {0, 1};  // left tower's work items
    if (stage == 2) return {2, 3};  // right tower's work items
    return {};
  }

  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t stage, std::size_t /*shard*/, const Request& /*req*/,
      std::span<const std::size_t> slice, std::size_t /*k*/,
      recsys::StageStats* stats) override {
    fill(stage, stats);
    std::vector<recsys::ScoredItem> out;
    for (std::size_t item : slice)
      out.push_back({item, static_cast<float>(item)});
    return out;
  }

  void accesses_into(std::size_t, const Request&,
                     std::span<const std::size_t>,
                     std::vector<serve::RowAccess>&) const override {}

 private:
  void fill(std::size_t stage, recsys::StageStats* stats) const {
    const StageCost& c = costs_.at(stage);
    stats->at(recsys::OpKind::kEtLookup).latency = Ns{c.et};
    stats->at(recsys::OpKind::kDnn).latency = Ns{c.total - c.et};
  }

  std::size_t shards_;
  std::vector<StageCost> costs_;
  PipelineSpec spec_;
};

TEST(StagePipeline, DiamondJoinWaitsOnLastArrivingTower) {
  const auto profile = device::DeviceProfile::fefet45();
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(core::ArchConfig{}, profile));
  // Towers are ET-free (pure crossbar work), so they genuinely overlap;
  // prep and join carry ET traffic.
  DiamondServable servable(
      1, {{100.0, 10.0}, {50.0, 0.0}, {80.0, 0.0}, {40.0, 5.0}});
  StagePipeline pipe(servable, profile);

  Batch batch;
  batch.dispatch = Ns{0.0};
  batch.requests.push_back(make_request(0, 0.0));
  const auto results = pipe.execute(batch, 4, nullptr, timing);
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];

  // prep ends at 100; both towers start there and overlap (the slower one
  // ends at 180); the join runs 180..220 plus the merge-unit cost.
  const double merge =
      r.stage_stats[3].at(recsys::OpKind::kComm).latency.value;
  EXPECT_GT(merge, 0.0);
  ASSERT_EQ(r.stage_latency.size(), 4u);
  EXPECT_DOUBLE_EQ(r.stage_latency[0].value, 100.0);
  EXPECT_DOUBLE_EQ(r.stage_latency[1].value, 50.0);
  EXPECT_DOUBLE_EQ(r.stage_latency[2].value, 80.0);
  EXPECT_DOUBLE_EQ(r.stage_latency[3].value, 40.0 + merge);
  EXPECT_DOUBLE_EQ(r.complete.value, 220.0 + merge);

  // The join consumed both towers' items (concatenated, deduplicated by
  // construction) and merged all four scored results, best first.
  EXPECT_EQ(r.work_items, 4u);
  ASSERT_EQ(r.topk.size(), 4u);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_EQ(r.topk[j].item, 3 - j) << "position " << j;

  // The same stages as a chain serialize: 270 + merge. (The chain also
  // differs functionally: the join's only producing predecessor is the
  // right tower, so it ranks the right tower's items alone — the
  // diamond's multi-feeder concatenation is not just a timing change.)
  DiamondServable chained(
      1, {{100.0, 10.0}, {50.0, 0.0}, {80.0, 0.0}, {40.0, 5.0}},
      /*chained=*/true);
  StagePipeline chain_pipe(chained, profile);
  const auto chain = chain_pipe.execute(batch, 4, nullptr, timing);
  EXPECT_DOUBLE_EQ(chain[0].complete.value, 270.0 + merge);
  ASSERT_EQ(chain[0].topk.size(), 2u);
  EXPECT_EQ(chain[0].topk[0].item, 3u);
  EXPECT_EQ(chain[0].topk[1].item, 2u);
}

TEST(StagePipeline, ParallelTowersWithEtTrafficSerializeOnSharedBanks) {
  const auto profile = device::DeviceProfile::fefet45();
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(core::ArchConfig{}, profile));
  // Both towers read the ET banks: the fabric can overlap their compute
  // units but the shared banks serialize the lookups (left claims them
  // 100..105, so right cannot start before 105).
  DiamondServable servable(
      1, {{100.0, 10.0}, {50.0, 5.0}, {80.0, 5.0}, {40.0, 5.0}});
  StagePipeline pipe(servable, profile);

  Batch batch;
  batch.dispatch = Ns{0.0};
  batch.requests.push_back(make_request(0, 0.0));
  const auto results = pipe.execute(batch, 4, nullptr, timing);
  const auto& r = results[0];
  const double merge =
      r.stage_stats[3].at(recsys::OpKind::kComm).latency.value;
  // left: 100..150; right: 105..185 (bank wait); join: 185..225.
  EXPECT_DOUBLE_EQ(r.stage_latency[1].value, 50.0);
  EXPECT_DOUBLE_EQ(r.stage_latency[2].value, 85.0);
  EXPECT_DOUBLE_EQ(r.complete.value, 225.0 + merge);
}

// --- Tower-parallel CTR graphs ---------------------------------------------

TEST(CtrServable, TowerGraphsMatchFusedScores) {
  CtrFixture fx;
  const auto profile = device::DeviceProfile::fefet45();
  const serve::CacheTiming timing = serve::CacheTiming::from_model(
      core::PerfModel(core::ArchConfig{}, profile));
  const std::vector<device::DeviceProfile> profiles(2, profile);
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < fx.ds->size(); ++i)
    samples.push_back(fx.ds->sample(i));

  Batch batch;
  batch.dispatch = Ns{0.0};
  const std::size_t n = 12;
  for (std::size_t i = 0; i < n; ++i)
    batch.requests.push_back(make_request(i, 0.0, i % samples.size()));

  auto run_graph = [&](CtrGraph graph) {
    CtrServable servable(fx.factory, profiles, graph);
    servable.bind_samples(samples);
    StagePipeline pipe(servable, profile);
    return pipe.execute(batch, 1, nullptr, timing);
  };
  const auto fused = run_graph(CtrGraph::kFused);
  const auto chain = run_graph(CtrGraph::kTowerChain);
  const auto dag = run_graph(CtrGraph::kTowerDag);

  const auto serial = fx.factory(core::ShardSlot{0, profile});
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = samples[batch.requests[i].user];
    const float want = serial->score(s.dense, s.sparse, nullptr);
    for (const auto* r : {&fused[i], &chain[i], &dag[i]}) {
      ASSERT_EQ(r->topk.size(), 1u) << "query " << i;
      EXPECT_EQ(r->topk[0].item, batch.requests[i].user);
      EXPECT_FLOAT_EQ(r->topk[0].score, want) << "query " << i;
    }
    // The tower DAG overlaps the gather and dense towers, so it strictly
    // beats the serialized chain on every query's completion.
    EXPECT_LT(dag[i].complete.value, chain[i].complete.value)
        << "query " << i;

    // Stage attribution: gather carries the ET traffic, the dense tower is
    // pure crossbar work, and the three tower stages sum to the fused
    // stage's cost.
    const auto& gather = dag[i].stage_stats[0];
    const auto& dense = dag[i].stage_stats[1];
    const auto& interact = dag[i].stage_stats[2];
    EXPECT_GT(gather.at(recsys::OpKind::kEtLookup).latency.value, 0.0);
    EXPECT_DOUBLE_EQ(gather.at(recsys::OpKind::kDnn).latency.value, 0.0);
    EXPECT_GT(dense.at(recsys::OpKind::kDnn).latency.value, 0.0);
    EXPECT_DOUBLE_EQ(dense.at(recsys::OpKind::kEtLookup).latency.value, 0.0);
    EXPECT_GT(interact.at(recsys::OpKind::kDnn).latency.value, 0.0);
    const double tower_total = gather.total().latency.value +
                               dense.total().latency.value +
                               interact.total().latency.value;
    EXPECT_DOUBLE_EQ(tower_total, fused[i].stage_stats[0].total().latency.value)
        << "query " << i;
  }
}

TEST(CtrServable, TowerGraphServesThroughRuntimeWithNamedUtilization) {
  CtrFixture fx;
  const auto profile = device::DeviceProfile::fefet45();
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < fx.ds->size(); ++i)
    samples.push_back(fx.ds->sample(i));
  const std::vector<device::DeviceProfile> profiles(2, profile);
  auto servable = std::make_unique<CtrServable>(fx.factory, profiles,
                                                CtrGraph::kTowerDag);
  servable->bind_samples(samples);

  ServingConfig cfg;
  cfg.k = 1;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = Ns{500000.0};
  cfg.cache.capacity_rows = 2048;
  ServingRuntime rt(std::move(servable), cfg, core::ArchConfig{}, profile);

  LoadGenConfig lg;
  lg.clients = 8;
  lg.total_queries = 24;
  lg.num_users = samples.size();
  lg.user_zipf_s = 1.0;
  lg.seed = 67;
  LoadGenerator gen(lg);
  const auto report = rt.run(gen);
  ASSERT_EQ(report.size(), 24u);
  EXPECT_GT(report.cache.hit_rate(), 0.0);

  // Per-stage utilization is keyed by graph node.
  EXPECT_EQ(report.stage_names,
            (std::vector<std::string>{"gather", "dense", "interact"}));
  double gather_busy = 0.0, interact_busy = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    gather_busy += report.stage_utilization(s, "gather");
    interact_busy += report.stage_utilization(s, "interact");
    EXPECT_GE(report.stage_utilization(s, "dense"), 0.0);
    // The interact node is the last stage, so the legacy helper agrees.
    EXPECT_DOUBLE_EQ(report.stage_utilization(s, "interact"),
                     report.rank_utilization(s));
  }
  EXPECT_GT(gather_busy, 0.0);
  EXPECT_GT(interact_busy, 0.0);
  EXPECT_THROW(report.stage_utilization(0, "nope"), Error);
}

// --- Graph-aware QoS service estimates -------------------------------------

TEST(ServingRuntime, DefaultsServiceEstimateFromGraphCriticalPath) {
  const auto profile = device::DeviceProfile::fefet45();
  // Only the interactive class has a deadline; its service_estimate 0
  // defaults it from the servable's graph.
  const auto config_with = [](Ns deadline, Ns service_estimate) {
    ServingConfig cfg;
    cfg.shards = 2;
    cfg.k = 5;
    serve::QosClassConfig interactive;
    interactive.name = "interactive";
    interactive.max_batch = 2;
    interactive.max_wait = Ns{300000.0};
    interactive.deadline = deadline;
    interactive.service_estimate = service_estimate;
    serve::QosClassConfig bulk;
    bulk.name = "bulk";
    bulk.max_batch = 4;
    bulk.max_wait = Ns{300000.0};
    bulk.weight = 3.0;
    cfg.qos.classes = {interactive, bulk};
    return cfg;
  };
  const auto load_for = [](std::size_t users) {
    LoadGenConfig lg;
    lg.clients = 6;
    lg.total_queries = 30;
    lg.num_users = users;
    lg.class_mix = {0.4, 0.6};
    lg.arrivals = ArrivalProcess::kOpenPoisson;
    lg.rate_qps = 2.0e5;
    lg.seed = 205;
    return lg;
  };

  // Filter -> rank: the defaulted estimate equals the hand-computed graph
  // service estimate, so both runs make identical close decisions.
  FilterRankFixture fx;
  auto run_with = [&](Ns service_estimate) {
    ServingRuntime rt(fx.factory, config_with(Ns{150000.0}, service_estimate),
                      core::ArchConfig{}, profile);
    LoadGenerator gen(load_for(fx.users.size()));
    return rt.run(gen, fx.users);
  };
  ShardRouter probe(fx.factory, 2);
  probe.bind_users(fx.users);
  const auto costs = probe.stage_cost_estimate(5);  // the runtime's cfg.k
  ASSERT_EQ(costs.size(), 2u);  // {filter, rank}
  StagePipeline pipe(probe, profile);
  const Ns expected = pipe.service_estimate(costs, 5, 2);
  EXPECT_GT(expected.value, 0.0);  // merge cost at minimum (CPU oracle)

  serve_test::expect_reports_identical(run_with(Ns{0.0}), run_with(expected));
  // An explicit estimate is never overridden: a different constant changes
  // the preemptive close (sanity that the default actually engages).
  // (Close decisions only shift if the slack changes the trigger order, so
  // just assert determinism of the defaulted run.)
  serve_test::expect_reports_identical(run_with(Ns{0.0}), run_with(Ns{0.0}));

  // The CTR tower DAG (gather || dense -> interact) probes three stage
  // costs on its first replica. Its 20 us deadline leaves a slack the
  // estimate moves.
  CtrFixture ctr;
  std::vector<data::CriteoSample> samples;
  for (std::size_t i = 0; i < ctr.ds->size(); ++i)
    samples.push_back(ctr.ds->sample(i));
  const std::vector<device::DeviceProfile> profiles(2, profile);
  const auto make_tower = [&] {
    auto servable = std::make_unique<CtrServable>(ctr.factory, profiles,
                                                  CtrGraph::kTowerDag);
    servable->bind_samples(samples);
    return servable;
  };
  auto run_tower = [&](Ns service_estimate) {
    ServingRuntime rt(make_tower(), config_with(Ns{20000.0}, service_estimate),
                      core::ArchConfig{}, profile);
    LoadGenerator gen(load_for(samples.size()));
    return rt.run(gen);
  };
  const auto tower = make_tower();
  const auto tower_costs = tower->stage_cost_estimate(5);
  ASSERT_EQ(tower_costs.size(), 3u);  // {gather, dense, interact}
  const Ns tower_expected =
      StagePipeline(*tower, profile).service_estimate(tower_costs, 5, 2);
  EXPECT_GT(tower_expected.value, 0.0);
  const auto defaulted = run_tower(Ns{0.0});
  serve_test::expect_reports_identical(defaulted, run_tower(tower_expected));
  // The default engages: a 1 ns estimate closes batches differently.
  EXPECT_TRUE(
      bench::first_difference(defaulted, run_tower(Ns{1.0})).has_value());
}

TEST(StagePipeline, ServiceEstimateComposesCriticalPathAndBatch) {
  const auto profile = device::DeviceProfile::fefet45();
  DiamondServable servable(
      1, {{100.0, 10.0}, {50.0, 0.0}, {80.0, 0.0}, {40.0, 5.0}});
  StagePipeline pipe(servable, profile);
  const std::vector<Ns> costs = {Ns{100.0}, Ns{50.0}, Ns{80.0}, Ns{40.0}};
  const Ns one = pipe.service_estimate(costs, 4, 1);
  const Ns four = pipe.service_estimate(costs, 4, 4);
  // Batch 1: the 220 ns critical path plus the merge; each further query
  // adds one bottleneck-stage (100 ns) occupancy.
  EXPECT_GT(one.value, 220.0);
  EXPECT_DOUBLE_EQ(four.value - one.value, 3.0 * 100.0);
}

// --- golden report digests of the servable graphs ---------------------------
// ServeReport.GoldenDigestsPinTheScalingGrid serves one sharded stage. These
// cells serve the multi-stage graphs on trained models: a replicated filter
// feeding a sharded rank (ShardRouter, open and gated), the funnel's fed
// filter and emit_topk rank merge (FunnelServable over IVF retrieval), and
// DLRM's tower chain and tower DAG join with parallel-bank lookups on a
// mixed FeFET/ReRAM fabric with a cost-weighted ShardMap. Same contract as
// the scaling grid: after an intended change, paste the printed rows; no
// stage unit may be busy for longer than the makespan.

TEST(StagePipeline, GoldenDigestsPinTheServableGraphs) {
  // clang-format off
  static constexpr serve_test::GoldenRow kGolden[] = {
      {"filter_rank:open", {{0xc43237619c79fa6fULL, 0x79c43d090eaf2465ULL, 0x9d8eb8a6c8dadd29ULL, 0xeb8a738c8453d70eULL}}},
      {"filter_rank:gated", {{0x05ab6459e6369211ULL, 0x8a58c44302440016ULL, 0x6aef0c7d16275596ULL, 0x8f68cb8c0cd61f7dULL}}},
      {"funnel:open", {{0x5a913480c39dc896ULL, 0x1a238824606edb5fULL, 0x7983545d7b845839ULL, 0x8ab0e7d3693cc642ULL}}},
      {"ctr_chain:open", {{0xfff1431efc8c1cecULL, 0xc3dd5e31cd02772eULL, 0xeda8046fb51b348cULL, 0xe203db1e20a5609dULL}}},
      {"ctr_dag:open", {{0xa6a7aaae2672dea2ULL, 0xc3dd5e31cd02772eULL, 0xeda8046fb51b348cULL, 0xf7edcbe290571ae2ULL}}},
  };
  // clang-format on
  const core::ArchConfig arch;
  const auto fefet45 = device::DeviceProfile::fefet45();

  // YouTubeDNN on three FeFET-45 iMARS replicas.
  auto ml = bench::make_movielens(0.02, 1, 1, 505);
  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ml.ds->num_users(); ++u)
    users.push_back(ml.model->make_context(*ml.ds, u));
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;
  icfg.max_candidates = core::kEndToEndCandidates;
  icfg.nns_radius = 64;
  const std::vector<recsys::UserContext> calib(users.begin(),
                                               users.begin() + 8);
  const auto factory =
      core::imars_backend_factory(*ml.model, arch, fefet45, icfg, calib);
  const std::vector<device::DeviceProfile> profiles(3, fefet45);

  ServingConfig yt;
  yt.shards = 3;
  yt.k = 5;
  yt.batcher.max_batch = 4;
  yt.batcher.max_wait = Ns{300000.0};
  yt.cache.capacity_rows = 256;
  yt.overlap = true;
  yt.traffic.filter_features = ml.model->filter_features();
  yt.traffic.rank_features = ml.model->rank_features();
  serve::QosClassConfig interactive;
  interactive.name = "interactive";
  interactive.max_batch = 2;
  interactive.max_wait = Ns{100000.0};
  interactive.weight = 2.0;
  interactive.deadline = Ns{300000.0};
  serve::QosClassConfig bulk;
  bulk.name = "bulk";
  bulk.max_batch = 4;
  bulk.max_wait = Ns{300000.0};
  bulk.weight = 1.0;
  yt.qos.classes = {interactive, bulk};
  LoadGenConfig yt_load;
  yt_load.clients = 6;
  yt_load.total_queries = 48;
  yt_load.num_users = users.size();
  yt_load.user_zipf_s = 0.9;
  yt_load.seed = 909;
  yt_load.class_mix = {0.4, 0.6};
  LoadGenConfig yt_open = yt_load;
  yt_open.arrivals = ArrivalProcess::kOpenPoisson;
  yt_open.rate_qps = 2.0e4;

  std::size_t i = 0;
  const auto expect_golden = [&](std::string_view cell,
                                 const serve::ServeReport& report) {
    ASSERT_LT(i, std::size(kGolden));
    serve_test::expect_golden(kGolden[i++], cell, report);
    serve_test::expect_stage_busy_within_makespan(cell, report);
  };
  const auto serve_yt = [&](std::unique_ptr<ServingRuntime> rt,
                            const LoadGenConfig& lg) {
    LoadGenerator gen(lg);
    return rt->run(gen, users);
  };

  expect_golden("filter_rank:open",
                serve_yt(std::make_unique<ServingRuntime>(factory, yt, arch,
                                                          fefet45),
                         yt_open));
  {
    ServingConfig gated = yt;
    gated.qos.admit_window = Ns{20000.0};
    gated.cache.capacity_rows = 64;
    gated.cache.warm_capacity_rows = 512;
    gated.cache.cold_block_rows = 8;
    LoadGenConfig lg = yt_load;
    lg.update_fraction = 0.1;
    const auto report = serve_yt(
        std::make_unique<ServingRuntime>(factory, gated, arch, fefet45), lg);
    expect_golden("filter_rank:gated", report);
    EXPECT_GT(report.updates, 0u);
    EXPECT_GT(report.cache.cold_faults, 0u);
  }
  {
    FunnelConfig fc;
    fc.retrieval = RetrievalKind::kIvf;
    fc.retrieve_k = 40;
    fc.filter_radius = 120;
    fc.rank_keep = 16;
    fc.ivf.nlist = 8;
    fc.ivf.nprobe = 6;
    const auto report = serve_yt(
        std::make_unique<ServingRuntime>(
            std::make_unique<serve::FunnelServable>(*ml.model, arch, factory,
                                                    profiles, fc, yt.traffic),
            yt, arch, fefet45),
        yt_open);
    expect_golden("funnel:open", report);
    EXPECT_EQ(report.stage_names.size(), 4u);
  }

  // DLRM on a FeFET-45 / FeFET-22 / ReRAM-45 fabric.
  auto cr = bench::make_criteo(400, 1);
  std::vector<data::CriteoSample> samples;
  for (std::size_t s = 0; s < cr.ds->size(); ++s)
    samples.push_back(cr.ds->sample(s));
  const std::vector<data::CriteoSample> ctr_calib(samples.begin(),
                                                  samples.begin() + 8);
  const auto ctr_factory = core::imars_ctr_backend_factory(
      *cr.model, arch, core::TimingMode::kWorstCaseSameArray, ctr_calib);
  const std::vector<device::DeviceProfile> ctr_profiles = {
      fefet45, device::DeviceProfile::fefet22(),
      device::DeviceProfile::reram45()};
  for (const auto& [cell, graph] :
       {std::pair{"ctr_chain:open", CtrGraph::kTowerChain},
        std::pair{"ctr_dag:open", CtrGraph::kTowerDag}}) {
    auto servable =
        std::make_unique<CtrServable>(ctr_factory, ctr_profiles, graph);
    servable->bind_samples(samples);
    ServingConfig cfg;
    cfg.k = 1;
    cfg.batcher.max_batch = 8;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache.capacity_rows = 512;
    cfg.overlap = true;
    cfg.shard_map =
        ShardMap::from_costs(servable->probe_score_cost(samples.front()));
    ServingRuntime rt(std::move(servable), cfg, arch, fefet45, ctr_profiles);
    LoadGenConfig lg;
    lg.total_queries = 200;
    lg.num_users = samples.size();
    lg.arrivals = ArrivalProcess::kOpenPoisson;
    lg.rate_qps = 1.0e6;
    lg.seed = 77;
    lg.update_fraction = 0.1;
    LoadGenerator gen(lg);
    const auto report = rt.run(gen);
    expect_golden(cell, report);
    EXPECT_GT(report.cache.hits, 0u) << cell;
  }
  EXPECT_EQ(i, std::size(kGolden));
}

TEST(LoadGenerator, ModesRejectWrongEntryPoint) {
  LoadGenConfig closed;
  closed.num_users = 4;
  LoadGenerator cgen(closed);
  EXPECT_THROW(cgen.next_arrival(), std::runtime_error);

  LoadGenConfig open = closed;
  open.arrivals = ArrivalProcess::kOpenPoisson;
  open.rate_qps = 1e5;
  LoadGenerator ogen(open);
  EXPECT_THROW(ogen.next(0, Ns{0.0}), std::runtime_error);
}

}  // namespace
}  // namespace imars
