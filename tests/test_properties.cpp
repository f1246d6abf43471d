// Cross-module property tests: randomized sweeps (parameterized gtest) that
// pin down invariants rather than example values. Each property names the
// paper mechanism it protects.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <map>
#include <numeric>
#include <vector>

#include "adder/adder_tree.hpp"
#include "baseline/cpu_backend.hpp"
#include "baseline/exact_nns.hpp"
#include "baseline/gpu_model.hpp"
#include "cma/cma.hpp"
#include "core/accelerator.hpp"
#include "core/backend_factory.hpp"
#include "core/mapping.hpp"
#include "core/perf_model.hpp"
#include "data/movielens.hpp"
#include "nn/mlp.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"
#include "util/bitvec.hpp"
#include "util/quant.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace imars {
namespace {

using device::DeviceProfile;
using tensor::Matrix;
using tensor::QMatrix;
using tensor::Vector;

// ---------- BitVec vs std::bitset oracle ------------------------------------

class BitVecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitVecProperty, MatchesStdBitsetSemantics) {
  util::Xoshiro256 rng(GetParam());
  constexpr std::size_t kBits = 192;
  util::BitVec a(kBits), b(kBits);
  std::bitset<kBits> ra, rb;
  for (std::size_t i = 0; i < kBits; ++i) {
    const bool ba = rng.bernoulli(0.5);
    const bool bb = rng.bernoulli(0.5);
    a.set(i, ba);
    ra[i] = ba;
    b.set(i, bb);
    rb[i] = bb;
  }
  EXPECT_EQ(a.popcount(), ra.count());
  EXPECT_EQ(a.hamming(b), (ra ^ rb).count());

  // Random single-bit operations keep agreement.
  for (int step = 0; step < 100; ++step) {
    const std::size_t i = rng.below(kBits);
    a.flip(i);
    ra.flip(i);
  }
  EXPECT_EQ(a.popcount(), ra.count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVecProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- Quantization roundtrip -------------------------------------------

class QuantProperty : public ::testing::TestWithParam<double> {};

TEST_P(QuantProperty, RoundTripErrorWithinHalfStep) {
  const double range = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(range * 1000));
  std::vector<float> xs(512);
  for (auto& x : xs) x = static_cast<float>(rng.uniform(-range, range));
  const auto p = util::choose_symmetric(xs);
  for (float x : xs) {
    const float back = p.dequantize(p.quantize(x));
    EXPECT_LE(std::abs(back - x), p.scale * 0.5f + 1e-6f);
  }
  // Quantization is monotone: x <= y => q(x) <= q(y).
  std::vector<float> sorted(xs);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_LE(p.quantize(sorted[i - 1]), p.quantize(sorted[i]));
}

INSTANTIATE_TEST_SUITE_P(Ranges, QuantProperty,
                         ::testing::Values(0.01, 0.5, 1.0, 7.3, 100.0,
                                           12345.0));

// ---------- CMA pooled lookup == integer oracle (Sec III-A1 pooling) ---------

class PoolingProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolingProperty, AcceleratorPoolingMatchesOracleAnyPattern) {
  const std::size_t n_lookups = GetParam();
  const DeviceProfile profile = DeviceProfile::fefet45();
  core::ImarsAccelerator acc(core::ArchConfig{}, profile);
  util::Xoshiro256 rng(n_lookups * 31 + 7);
  const QMatrix table =
      QMatrix::quantize(Matrix::randn(1500, 32, 0.4f, rng));
  const auto id = acc.load_uiet("t", table);

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::size_t> idx(n_lookups);
    for (auto& i : idx) i = rng.below(1500);

    const core::LookupRequest req{id, idx, false};
    for (auto mode : {core::TimingMode::kActualPlacement,
                      core::TimingMode::kWorstCaseSameArray}) {
      const auto out = acc.lookup_pooled(std::span(&req, 1), mode, nullptr);
      std::vector<std::int32_t> expected(32, 0);
      for (auto i : idx)
        for (std::size_t c = 0; c < 32; ++c)
          expected[c] += static_cast<std::int32_t>(table.at(i, c));
      EXPECT_EQ(out[0].lanes, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lookups, PoolingProperty,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 200));

// ---------- TCAM threshold search == Hamming filter at scale ------------------

class TcamScaleProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcamScaleProperty, FullBankSearchMatchesOracle) {
  const std::size_t rows = GetParam();
  const DeviceProfile profile = DeviceProfile::fefet45();
  core::ImarsAccelerator acc(core::ArchConfig{}, profile);
  util::Xoshiro256 rng(rows);

  const QMatrix table =
      QMatrix::quantize(Matrix::randn(rows, 32, 0.4f, rng));
  std::vector<util::BitVec> sigs;
  for (std::size_t r = 0; r < rows; ++r) {
    util::BitVec s(256);
    for (std::size_t i = 0; i < 256; ++i) s.set(i, rng.bernoulli(0.5));
    sigs.push_back(s);
  }
  const auto id = acc.load_itet("ItET", table, sigs);

  for (std::size_t radius : {90ul, 110ul, 128ul}) {
    util::BitVec q(256);
    for (std::size_t i = 0; i < 256; ++i) q.set(i, rng.bernoulli(0.5));
    const auto got = acc.nns(id, q, radius, nullptr);
    const auto expected = baseline::radius_hamming(sigs, q, radius);
    EXPECT_EQ(got, expected) << "rows=" << rows << " radius=" << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(TableSizes, TcamScaleProperty,
                         ::testing::Values(1, 255, 256, 257, 1000, 4000));

// ---------- Mapping invariants (Sec III-B) -----------------------------------

class MappingProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MappingProperty, CapacityAndMonotonicity) {
  const std::size_t rows = GetParam();
  const core::EtMapping m(core::ArchConfig{});
  const std::size_t cmas = m.cmas_for_rows(rows);

  // Capacity: the allocated arrays hold the table, minimally.
  EXPECT_GE(cmas * 256, rows);
  EXPECT_LT((cmas - 1) * 256, rows);

  // Monotone in rows.
  EXPECT_LE(m.cmas_for_rows(std::max<std::size_t>(1, rows - 1)), cmas);
  EXPECT_GE(m.cmas_for_rows(rows + 1), cmas);

  // Mats cover the arrays at fan-out C=32.
  const std::size_t mats = m.mats_for_cmas(cmas);
  EXPECT_GE(mats * 32, cmas);
  EXPECT_LT((mats - 1) * 32, cmas);

  // Power-of-two rounding only grows the count, at most 2x - 1.
  const core::EtMapping rounded(core::ArchConfig{}, true);
  const std::size_t r = rounded.cmas_for_rows(rows);
  EXPECT_GE(r, cmas);
  EXPECT_LT(r, 2 * cmas);
}

INSTANTIATE_TEST_SUITE_P(Rows, MappingProperty,
                         ::testing::Values(1, 3, 255, 256, 257, 3000, 6040,
                                           28000, 30000, 32768));

// ---------- Adder trees: arbitrary k equals the plain sum ---------------------

class AdderProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdderProperty, MultiRoundSumEqualsOracle) {
  const std::size_t k = GetParam();
  const DeviceProfile profile = DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  const adder::IntraBankAdderTree tree(profile, &ledger, 4);
  util::Xoshiro256 rng(k * 13 + 1);

  std::vector<adder::Lanes> in;
  adder::Lanes expected(32, 0);
  for (std::size_t i = 0; i < k; ++i) {
    adder::Lanes l(32);
    for (auto& v : l)
      v = static_cast<std::int32_t>(rng.below(5001)) - 2500;
    for (std::size_t c = 0; c < 32; ++c) expected[c] += l[c];
    in.push_back(std::move(l));
  }
  device::Ns lat{0.0};
  EXPECT_EQ(tree.sum(in, &lat), expected);
  // Latency is rounds * Table II figure, and rounds grows ~k/3.
  EXPECT_DOUBLE_EQ(lat.value,
                   44.2 * static_cast<double>(tree.rounds_for(k)));
}

INSTANTIATE_TEST_SUITE_P(Inputs, AdderProperty,
                         ::testing::Values(1, 4, 5, 9, 26, 104, 333));

// ---------- Crossbar tiling: shape-independent correctness --------------------

class XbarShapeProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(XbarShapeProperty, TilingNeverChangesResult) {
  const auto [out_dim, in_dim] = GetParam();
  const DeviceProfile profile = DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  util::Xoshiro256 rng(out_dim * 7919 + in_dim);
  const QMatrix w = QMatrix::quantize(
      Matrix::randn(out_dim, in_dim, 1.0f, rng));
  const xbar::TiledMatVec tiled(profile, &ledger, w);

  std::vector<std::int8_t> in(in_dim);
  for (auto& v : in)
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
  std::vector<std::int32_t> out(out_dim);
  tiled.gemv(in, out, nullptr);
  EXPECT_EQ(out, tensor::gemv_i8(w, in));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XbarShapeProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{127, 255},
                      std::pair<std::size_t, std::size_t>{128, 256},
                      std::pair<std::size_t, std::size_t>{129, 257},
                      std::pair<std::size_t, std::size_t>{256, 512},
                      std::pair<std::size_t, std::size_t>{383, 383},
                      std::pair<std::size_t, std::size_t>{1, 1000}));

// ---------- GPU model linearity ------------------------------------------------

TEST(GpuModelProperty, EtLookupIsAffineInTables) {
  const baseline::GpuModel gpu;
  const double l1 = gpu.et_lookup(1).latency.value;
  const double l2 = gpu.et_lookup(2).latency.value;
  const double step = l2 - l1;
  for (std::size_t t = 3; t <= 40; ++t) {
    EXPECT_NEAR(gpu.et_lookup(t).latency.value,
                l1 + step * static_cast<double>(t - 1), 1e-6);
  }
}

TEST(GpuModelProperty, EnergyProportionalToLatencyEverywhere) {
  const baseline::GpuModel gpu;
  const double w = gpu.calibration().power_w;
  for (std::size_t t : {1ul, 7ul, 26ul}) {
    const auto c = gpu.et_lookup(t);
    // 1 W x 1 ns = 1000 pJ.
    EXPECT_NEAR(c.energy.value, c.latency.value * w * 1e3, 1.0);
  }
  for (std::size_t n : {10ul, 3952ul, 100000ul}) {
    const auto c = gpu.nns(baseline::GpuNnsKind::kBruteCosine, n);
    EXPECT_NEAR(c.energy.uj(), c.latency.us() * w, 1e-9);
  }
}

// ---------- PerfModel: latency decomposition sanity ----------------------------

class PerfModelProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PerfModelProperty, LatencyStrictlyIncreasesWithLookups) {
  const std::size_t tables = GetParam();
  const core::PerfModel pm(core::ArchConfig{}, DeviceProfile::fefet45());
  double prev = 0.0;
  for (std::size_t L = 1; L <= 32; L *= 2) {
    core::EtLookupParams p;
    p.tables = tables;
    p.lookups_per_table = L;
    p.mats_per_table = 1;
    p.active_cmas = tables * 4;
    const double lat = pm.et_lookup(p).latency.value;
    EXPECT_GT(lat, prev);
    prev = lat;
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, PerfModelProperty,
                         ::testing::Values(1, 6, 7, 26));

// ---------- Cross-tenant QoS isolation (serving) ------------------------------
// Under a seeded adversarial bulk flood, (a) the interactive class's tail
// latency stays under its configured deadline bound, and (b) every query's
// merged results — for BOTH classes — are identical to running that class
// alone on a dedicated runtime. Score parity, not timing parity: co-tenancy
// may shift timestamps, never results.

class QosIsolationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(QosIsolationProperty, BulkFloodNeverPerturbsInteractiveResults) {
  data::MovieLensConfig dcfg;
  dcfg.num_users = 50;
  dcfg.num_items = 80;
  dcfg.history_min = 3;
  dcfg.history_max = 7;
  dcfg.seed = 211;
  data::MovieLensSynth ds(dcfg);
  recsys::YoutubeDnnConfig mcfg;
  mcfg.seed = 213;
  recsys::YoutubeDnn model(ds.schema(), mcfg);
  util::Xoshiro256 train_rng(217);
  model.train_filter_epoch(ds, train_rng);
  model.train_rank_epoch(ds, train_rng);
  std::vector<recsys::UserContext> users;
  for (std::size_t u = 0; u < ds.num_users(); ++u)
    users.push_back(model.make_context(ds, u));
  baseline::CpuBackendConfig cpu_cfg;
  cpu_cfg.candidates = 30;
  const auto factory = core::cpu_backend_factory(model, cpu_cfg);

  // Adversarial schedule: a sparse interactive stream (one request every
  // 50 us) inside a bulk flood (a request every ~0.4 us, jittered by the
  // seed). Ids are globally unique; users are seeded draws.
  util::Xoshiro256 rng(GetParam());
  const device::Ns kDeadline{300000.0};  // 300 us SLO
  std::vector<serve::Request> interactive, bulk;
  std::size_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    serve::Request r;
    r.id = id++;
    r.user = rng.below(users.size());
    r.qos_class = 0;
    r.enqueue = device::Ns{50000.0 * static_cast<double>(i + 1)};
    interactive.push_back(r);
  }
  double t = 0.0;
  for (std::size_t i = 0; i < 150; ++i) {
    serve::Request r;
    r.id = id++;
    r.user = rng.below(users.size());
    r.qos_class = 1;
    t += rng.uniform(100.0, 700.0);
    r.enqueue = device::Ns{t};
    bulk.push_back(r);
  }
  std::vector<serve::Request> mixed;
  std::merge(interactive.begin(), interactive.end(), bulk.begin(), bulk.end(),
             std::back_inserter(mixed),
             [](const serve::Request& a, const serve::Request& b) {
               return a.enqueue.value < b.enqueue.value;
             });

  serve::QosClassConfig icls;
  icls.name = "interactive";
  icls.max_batch = 2;
  icls.max_wait = device::Ns{500000.0};
  icls.deadline = kDeadline;
  icls.service_estimate = device::Ns{20000.0};
  icls.weight = 1.0;
  serve::QosClassConfig bcls;
  bcls.name = "bulk";
  bcls.max_batch = 8;
  bcls.max_wait = device::Ns{500000.0};
  bcls.weight = 4.0;

  auto run_trace = [&](std::vector<serve::Request> trace,
                       std::vector<serve::QosClassConfig> classes,
                       device::Ns admit_window) {
    serve::ServingConfig cfg;
    cfg.shards = 2;
    cfg.k = 5;
    cfg.qos.classes = std::move(classes);
    cfg.qos.admit_window = admit_window;
    cfg.cache.capacity_rows = 0;  // isolation must not rely on cache state
    serve::ServingRuntime rt(factory, cfg, core::ArchConfig{},
                             device::DeviceProfile::fefet45());
    serve::LoadGenConfig lg;
    lg.num_users = users.size();
    lg.arrivals = serve::ArrivalProcess::kTrace;
    lg.trace = std::move(trace);
    serve::LoadGenerator gen(lg);
    return rt.run(gen, users);
  };

  const auto mixed_report =
      run_trace(mixed, {icls, bcls}, device::Ns{50000.0});
  // Dedicated runtimes: each class alone, class-blind single-queue config.
  const auto inter_alone = run_trace(interactive, {icls}, device::Ns{0.0});
  const auto bulk_alone = run_trace(bulk, {bcls}, device::Ns{0.0});

  ASSERT_EQ(mixed_report.size(), mixed.size());
  // (a) Interactive tail latency holds its deadline bound despite the
  // flood, and the report agrees with the raw latencies.
  EXPECT_LE(mixed_report.class_p99_latency_ns(0), kDeadline.value);
  EXPECT_EQ(mixed_report.classes[0].slo_violations, 0u);
  EXPECT_EQ(mixed_report.classes[0].queries, interactive.size());

  // (b) Result parity per request id against the dedicated runtimes.
  auto topk_by_id = [](const serve::ServeReport& report) {
    std::map<std::size_t, const serve::ServedQuery*> out;
    for (const auto& q : report.queries) out.emplace(q.id, &q);
    return out;
  };
  const auto mixed_by_id = topk_by_id(mixed_report);
  for (const auto* alone : {&inter_alone, &bulk_alone}) {
    for (const auto& q : alone->queries) {
      const auto it = mixed_by_id.find(q.id);
      ASSERT_NE(it, mixed_by_id.end()) << "request " << q.id;
      const auto& m = *it->second;
      ASSERT_EQ(m.topk.size(), q.topk.size()) << "request " << q.id;
      EXPECT_EQ(m.candidates, q.candidates);
      for (std::size_t j = 0; j < q.topk.size(); ++j) {
        EXPECT_EQ(m.topk[j].item, q.topk[j].item)
            << "request " << q.id << " position " << j;
        EXPECT_FLOAT_EQ(m.topk[j].score, q.topk[j].score);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QosIsolationProperty,
                         ::testing::Values(1, 17, 4242));

// ---------- NNS oracles agree with each other ---------------------------------

TEST(NnsOracleProperty, TopkIsPrefixOfExpandingRadius) {
  util::Xoshiro256 rng(99);
  std::vector<util::BitVec> sigs;
  for (int i = 0; i < 300; ++i) {
    util::BitVec s(128);
    for (std::size_t b = 0; b < 128; ++b) s.set(b, rng.bernoulli(0.5));
    sigs.push_back(s);
  }
  util::BitVec q(128);
  for (std::size_t b = 0; b < 128; ++b) q.set(b, rng.bernoulli(0.5));

  // Every radius-set is a superset of all smaller radius-sets, and top-k
  // members always appear once the radius reaches their distance.
  std::vector<std::size_t> prev;
  for (std::size_t radius = 0; radius <= 128; radius += 8) {
    const auto cur = baseline::radius_hamming(sigs, q, radius);
    EXPECT_TRUE(std::includes(cur.begin(), cur.end(), prev.begin(),
                              prev.end()));
    prev = cur;
  }
  const auto top = baseline::topk_hamming(sigs, q, 10);
  const auto all = baseline::radius_hamming(sigs, q, 128);
  for (auto t : top)
    EXPECT_NE(std::find(all.begin(), all.end(), t), all.end());
}

}  // namespace
}  // namespace imars
