// Tests for the baselines: exact NNS oracles, GPU cost-model calibration
// against every published GPU data point, CPU/GPU backend behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baseline/cpu_backend.hpp"
#include "util/error.hpp"
#include "baseline/exact_nns.hpp"
#include "baseline/gpu_model.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using baseline::CpuBackend;
using baseline::CpuBackendConfig;
using baseline::FilterVariant;
using baseline::GpuModel;
using baseline::GpuModelBackend;
using baseline::GpuNnsKind;
using data::MovieLensConfig;
using data::MovieLensSynth;
using recsys::YoutubeDnn;
using recsys::YoutubeDnnConfig;
using tensor::Matrix;
using tensor::Vector;

// ---------- exact NNS ---------------------------------------------------------

TEST(ExactNns, TopkCosineOrdersByAngle) {
  Matrix items(3, 2, {1.0f, 0.0f,    // 0 degrees to query
                      0.0f, 1.0f,    // 90
                      -1.0f, 0.0f}); // 180
  const Vector q = {1.0f, 0.0f};
  const auto top = baseline::topk_cosine(items, q, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(ExactNns, TopkCosineIgnoresMagnitude) {
  Matrix items(2, 2, {10.0f, 0.0f,   // large magnitude, same direction
                      1.0f, 0.1f});
  const Vector q = {1.0f, 0.0f};
  // Row 0 is exactly aligned and wins whatever its length.
  EXPECT_EQ(baseline::topk_cosine(items, q, 1)[0], 0u);
}

TEST(ExactNns, TopkClampsKAndBreaksTiesByIndex) {
  Matrix items(3, 2, {1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 0.0f});
  const Vector q = {1.0f, 0.0f};
  const auto top = baseline::topk_cosine(items, q, 10);
  EXPECT_EQ(top, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ExactNns, RadiusHammingMatchesDefinition) {
  std::vector<util::BitVec> sigs;
  sigs.push_back(util::BitVec::from_string("0000"));
  sigs.push_back(util::BitVec::from_string("0011"));
  sigs.push_back(util::BitVec::from_string("1111"));
  const auto q = util::BitVec::from_string("0001");
  EXPECT_EQ(baseline::radius_hamming(sigs, q, 1),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(baseline::radius_hamming(sigs, q, 0), std::vector<std::size_t>{});
  EXPECT_EQ(baseline::radius_hamming(sigs, q, 4),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ExactNns, TopkHammingOrdersByDistance) {
  std::vector<util::BitVec> sigs;
  sigs.push_back(util::BitVec::from_string("1111"));  // d=3 to q
  sigs.push_back(util::BitVec::from_string("0001"));  // d=0
  sigs.push_back(util::BitVec::from_string("0011"));  // d=1
  const auto q = util::BitVec::from_string("0001");
  EXPECT_EQ(baseline::topk_hamming(sigs, q, 2),
            (std::vector<std::size_t>{1, 2}));
}

// ---------- GPU model calibration ----------------------------------------------
// Each expectation below is a data point the paper reports; the model must
// reproduce all of them simultaneously (within 2%).

TEST(GpuModel, EtLookupMatchesTableIII) {
  const GpuModel gpu;
  // MovieLens filtering: 6 tables -> 9.27 us / 203.97 uJ.
  EXPECT_NEAR(gpu.et_lookup(6).latency.us(), 9.27, 0.1);
  EXPECT_NEAR(gpu.et_lookup(6).energy.uj(), 203.97, 4.0);
  // MovieLens ranking: 7 tables -> 9.60 us / 211.26 uJ.
  EXPECT_NEAR(gpu.et_lookup(7).latency.us(), 9.60, 0.1);
  EXPECT_NEAR(gpu.et_lookup(7).energy.uj(), 211.26, 4.0);
  // Criteo ranking: 26 tables -> 14.97 us / 329.34 uJ.
  EXPECT_NEAR(gpu.et_lookup(26).latency.us(), 14.97, 0.15);
  EXPECT_NEAR(gpu.et_lookup(26).energy.uj(), 329.34, 7.0);
}

TEST(GpuModel, NnsMatchesSecIVC2) {
  const GpuModel gpu;
  // MovieLens ItET has 3952 items.
  EXPECT_NEAR(gpu.nns(GpuNnsKind::kBruteCosine, 3952).latency.us(), 13.6, 0.3);
  EXPECT_NEAR(gpu.nns(GpuNnsKind::kBruteCosine, 3952).energy.uj(), 340.0, 50.0);
  EXPECT_NEAR(gpu.nns(GpuNnsKind::kLsh256, 3952).latency.us(), 6.97, 0.15);
  EXPECT_NEAR(gpu.nns(GpuNnsKind::kLsh256, 3952).energy.uj(), 150.0, 10.0);
  // FAISS ANN (the Fig. 2 breakdown) is far cheaper than brute cosine.
  EXPECT_LT(gpu.nns(GpuNnsKind::kFaissAnn, 3952).latency.us(), 2.5);
}

TEST(GpuModel, CostsScaleWithSize) {
  const GpuModel gpu;
  EXPECT_LT(gpu.et_lookup(2).latency.value, gpu.et_lookup(20).latency.value);
  EXPECT_LT(gpu.nns(GpuNnsKind::kBruteCosine, 100).latency.value,
            gpu.nns(GpuNnsKind::kBruteCosine, 100000).latency.value);
  EXPECT_LT(gpu.dnn(1, 1000).latency.value, gpu.dnn(5, 1000).latency.value);
}

TEST(GpuModel, EnergyEqualsPowerTimesLatency) {
  const GpuModel gpu;
  const auto c = gpu.et_lookup(10);
  EXPECT_NEAR(c.energy.uj(), c.latency.us() * gpu.calibration().power_w, 1e-6);
}

TEST(GpuModel, EndToEndReproducesPaperQps) {
  // Composition: filtering (ET 6 tables + 3-layer DNN + FAISS NNS) +
  // 20 candidates x (ET 7 tables + 2-layer DNN + pair overhead) + topk.
  const GpuModel gpu;
  double total_us = gpu.et_lookup(6).latency.us() +
                    gpu.dnn(3, 196 * 128 + 128 * 64 + 64 * 32).latency.us() +
                    gpu.nns(GpuNnsKind::kFaissAnn, 3952).latency.us();
  const double rank_per_candidate =
      gpu.et_lookup(7).latency.us() +
      gpu.dnn(2, 260 * 128 + 128).latency.us() +
      gpu.rank_pair_overhead().latency.us();
  total_us += 20 * rank_per_candidate + gpu.topk(20).latency.us();

  const double qps = 1e6 / total_us;
  // Paper: 1311 queries/second on the GTX 1080.
  EXPECT_NEAR(qps, 1311.0, 150.0);
}

// ---------- CPU backend ----------------------------------------------------------

struct TrainedFixture {
  TrainedFixture() {
    MovieLensConfig dcfg;
    dcfg.num_users = 120;
    dcfg.num_items = 100;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 13;
    ds = std::make_unique<MovieLensSynth>(dcfg);

    YoutubeDnnConfig mcfg;
    mcfg.emb_dim = 16;
    mcfg.filter_hidden = {32, 16};
    mcfg.rank_hidden = {16};
    mcfg.negatives = 4;
    mcfg.seed = 17;
    model = std::make_unique<YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(19);
    for (int e = 0; e < 3; ++e) model->train_filter_epoch(*ds, rng);
  }
  std::unique_ptr<MovieLensSynth> ds;
  std::unique_ptr<YoutubeDnn> model;
};

TEST(CpuBackend, Fp32FilterReturnsRequestedCandidateCount) {
  TrainedFixture f;
  CpuBackendConfig cfg;
  cfg.variant = FilterVariant::kFp32Cosine;
  cfg.candidates = 12;
  CpuBackend backend(*f.model, cfg);
  const auto ctx = f.model->make_context(*f.ds, 0);
  EXPECT_EQ(backend.filter(ctx, nullptr).size(), 12u);
  // The CPU oracle carries no cost model: both stages charge nothing.
  recsys::StageStats fs, rs;
  const auto candidates = backend.filter(ctx, &fs);
  (void)backend.rank(ctx, candidates, 5, &rs);
  EXPECT_DOUBLE_EQ(fs.total().latency.value, 0.0);
  EXPECT_DOUBLE_EQ(rs.total().latency.value, 0.0);
  EXPECT_DOUBLE_EQ(fs.total().energy.value + rs.total().energy.value, 0.0);
}

TEST(CpuBackend, Int8CosineApproximatesFp32) {
  TrainedFixture f;
  CpuBackendConfig a;
  a.variant = FilterVariant::kFp32Cosine;
  a.candidates = 20;
  CpuBackendConfig b = a;
  b.variant = FilterVariant::kInt8Cosine;
  CpuBackend fa(*f.model, a), fb(*f.model, b);

  // Quantization barely moves the candidate set: expect high overlap.
  double overlap = 0.0;
  const int users = 30;
  for (int u = 0; u < users; ++u) {
    const auto ctx = f.model->make_context(*f.ds, u);
    const auto ca = fa.filter(ctx, nullptr);
    auto cb = fb.filter(ctx, nullptr);
    std::sort(cb.begin(), cb.end());
    int inter = 0;
    for (auto c : ca)
      if (std::binary_search(cb.begin(), cb.end(), c)) ++inter;
    overlap += static_cast<double>(inter) / static_cast<double>(ca.size());
  }
  EXPECT_GT(overlap / users, 0.85);
}

TEST(CpuBackend, LshVariantMatchesBruteForceRadius) {
  TrainedFixture f;
  CpuBackendConfig cfg;
  cfg.variant = FilterVariant::kInt8LshHamming;
  cfg.lsh_bits = 128;
  cfg.lsh_radius = 50;
  CpuBackend backend(*f.model, cfg);

  const auto ctx = f.model->make_context(*f.ds, 5);
  const auto got = backend.filter(ctx, nullptr);

  const auto u = f.model->user_embedding(ctx);
  const auto q = backend.signature_of(u);
  const auto expected =
      baseline::radius_hamming(backend.item_signatures(), q, cfg.lsh_radius);
  EXPECT_EQ(got, expected);
}

TEST(CpuBackend, RankSortsByCtrDescending) {
  TrainedFixture f;
  CpuBackend backend(*f.model, CpuBackendConfig{});
  const auto ctx = f.model->make_context(*f.ds, 2);
  const std::vector<std::size_t> candidates = {1, 5, 9, 13, 17, 21};
  const auto ranked = backend.rank(ctx, candidates, 4, nullptr);
  ASSERT_EQ(ranked.size(), 4u);
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  // Scores equal the float model's CTR.
  for (const auto& r : ranked)
    EXPECT_FLOAT_EQ(r.score, f.model->ctr(ctx, r.item));
}

TEST(CpuBackend, SignatureOfRequiresLshVariant) {
  TrainedFixture f;
  CpuBackend backend(*f.model, CpuBackendConfig{});  // fp32 variant
  EXPECT_THROW((void)backend.signature_of(Vector(16, 0.0f)), Error);
}

// ---------- GPU backend -----------------------------------------------------------

TEST(GpuBackend, FunctionalResultMatchesCpuFp32) {
  TrainedFixture f;
  CpuBackendConfig ccfg;
  ccfg.variant = FilterVariant::kFp32Cosine;
  ccfg.candidates = 20;
  CpuBackend cpu(*f.model, ccfg);

  const GpuModel gpu;
  baseline::GpuBackendConfig gcfg;
  gcfg.candidates = 20;
  GpuModelBackend gbe(*f.model, gpu, gcfg);

  const auto ctx = f.model->make_context(*f.ds, 7);
  EXPECT_EQ(gbe.filter(ctx, nullptr), cpu.filter(ctx, nullptr));
}

TEST(GpuBackend, StatsFollowCalibratedModel) {
  TrainedFixture f;
  const GpuModel gpu;
  GpuModelBackend backend(*f.model, gpu, baseline::GpuBackendConfig{});
  const auto ctx = f.model->make_context(*f.ds, 1);

  recsys::StageStats fs;
  const auto candidates = backend.filter(ctx, &fs);
  // Filtering ET lookup = 6 tables (5 UIETs + ItET).
  EXPECT_NEAR(fs.at(recsys::OpKind::kEtLookup).latency.us(),
              gpu.et_lookup(6).latency.us(), 1e-9);
  EXPECT_GT(fs.at(recsys::OpKind::kDnn).latency.value, 0.0);
  EXPECT_GT(fs.at(recsys::OpKind::kNns).latency.value, 0.0);

  recsys::StageStats rs;
  (void)backend.rank(ctx, candidates, 10, &rs);
  // Ranking ET cost scales with the candidate count (7 tables each).
  EXPECT_NEAR(rs.at(recsys::OpKind::kEtLookup).latency.us(),
              gpu.et_lookup(7).latency.us() *
                  static_cast<double>(candidates.size()),
              1e-6);
  EXPECT_GT(rs.at(recsys::OpKind::kTopK).latency.value, 0.0);
}

}  // namespace
}  // namespace imars
