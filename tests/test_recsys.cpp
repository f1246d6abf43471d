// Tests for the RecSys models: YouTubeDNN and DLRM construction, feature
// assembly, training signal, metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "data/criteo.hpp"
#include "data/movielens.hpp"
#include "nn/loss.hpp"
#include "recsys/dlrm.hpp"
#include "recsys/metrics.hpp"
#include "recsys/types.hpp"
#include "recsys/youtube_dnn.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace imars {
namespace {

using data::CriteoConfig;
using data::CriteoSynth;
using data::MovieLensConfig;
using data::MovieLensSynth;
using recsys::Dlrm;
using recsys::DlrmConfig;
using recsys::YoutubeDnn;
using recsys::YoutubeDnnConfig;

MovieLensConfig small_ml() {
  MovieLensConfig cfg;
  cfg.num_users = 150;
  cfg.num_items = 120;
  cfg.history_min = 3;
  cfg.history_max = 10;
  cfg.seed = 5;
  return cfg;
}

YoutubeDnnConfig small_model() {
  YoutubeDnnConfig cfg;
  cfg.emb_dim = 16;
  cfg.filter_hidden = {32, 16};
  cfg.rank_hidden = {32};
  cfg.negatives = 4;
  cfg.lr = 0.05f;
  cfg.seed = 31;
  return cfg;
}

// ---------- OpKind / StageStats ----------------------------------------------

TEST(StageStats, TotalsAndMerge) {
  recsys::StageStats s;
  s.at(recsys::OpKind::kEtLookup) += {device::Ns{10.0}, device::Pj{100.0}};
  s.at(recsys::OpKind::kDnn) += {device::Ns{5.0}, device::Pj{50.0}};
  EXPECT_DOUBLE_EQ(s.total().latency.value, 15.0);
  EXPECT_DOUBLE_EQ(s.total().energy.value, 150.0);

  recsys::StageStats t;
  t.at(recsys::OpKind::kDnn) += {device::Ns{1.0}, device::Pj{1.0}};
  s.merge(t);
  EXPECT_DOUBLE_EQ(s.at(recsys::OpKind::kDnn).latency.value, 6.0);
}

TEST(OpKind, NamesMatchFig2Categories) {
  EXPECT_EQ(recsys::op_name(recsys::OpKind::kEtLookup), "ET Lookup");
  EXPECT_EQ(recsys::op_name(recsys::OpKind::kDnn), "DNN Stack");
  EXPECT_EQ(recsys::op_name(recsys::OpKind::kNns), "NNS");
  EXPECT_EQ(recsys::op_name(recsys::OpKind::kTopK), "TopK");
}

// ---------- YoutubeDnn --------------------------------------------------------

TEST(YoutubeDnn, ConstructionMatchesSchema) {
  const MovieLensSynth ds(small_ml());
  const YoutubeDnn model(ds.schema(), small_model());

  EXPECT_EQ(model.filter_features().size(), 5u);  // Table I filtering UIETs
  EXPECT_EQ(model.rank_features().size(), 6u);    // Table I ranking UIETs
  EXPECT_EQ(model.item_table().rows(), ds.num_items());
  EXPECT_EQ(model.item_table().dim(), 16u);
  // Tower output dim = emb_dim (needed for NNS against the ItET).
  EXPECT_EQ(model.filter_mlp().out_dim(), 16u);
  EXPECT_EQ(model.rank_mlp().out_dim(), 1u);
}

TEST(YoutubeDnn, PaperDnnDimensions) {
  // The default config carries the paper's 128-64-32 / 128-1 networks.
  const YoutubeDnnConfig cfg;
  EXPECT_EQ(cfg.filter_hidden, (std::vector<std::size_t>{128, 64, 32}));
  EXPECT_EQ(cfg.rank_hidden, (std::vector<std::size_t>{128}));
  EXPECT_EQ(cfg.emb_dim, 32u);
}

TEST(YoutubeDnn, RejectsBadLearningRate) {
  const MovieLensSynth ds(small_ml());
  for (const float lr : {0.0f, -0.01f, std::nanf(""),
                         std::numeric_limits<float>::infinity()}) {
    YoutubeDnnConfig bad = small_model();
    bad.lr = lr;
    EXPECT_THROW(YoutubeDnn(ds.schema(), bad), Error) << lr;
  }
}

TEST(YoutubeDnn, FilterInputLayout) {
  const MovieLensSynth ds(small_ml());
  const YoutubeDnn model(ds.schema(), small_model());
  const auto ctx = model.make_context(ds, 3);
  const auto in = model.filter_input(ctx);
  // 5 pooled UIET segments + history segment + dense features.
  EXPECT_EQ(in.size(), 5u * 16 + 16 + MovieLensSynth::kDenseDim);
  EXPECT_EQ(in.size(), model.filter_input_dim());
  for (float x : in) EXPECT_TRUE(std::isfinite(x));
}

TEST(YoutubeDnn, RankInputLayout) {
  const MovieLensSynth ds(small_ml());
  const YoutubeDnn model(ds.schema(), small_model());
  const auto ctx = model.make_context(ds, 3);
  const auto in = model.rank_input(ctx, 7);
  // 6 pooled UIETs + item + history + dense.
  EXPECT_EQ(in.size(), 6u * 16 + 16 + 16 + MovieLensSynth::kDenseDim);
  EXPECT_EQ(in.size(), model.rank_input_dim());
}

TEST(YoutubeDnn, CtrInUnitInterval) {
  const MovieLensSynth ds(small_ml());
  const YoutubeDnn model(ds.schema(), small_model());
  const auto ctx = model.make_context(ds, 0);
  for (std::size_t item = 0; item < 20; ++item) {
    const float p = model.ctr(ctx, item);
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(YoutubeDnn, FilterTrainingReducesLoss) {
  const MovieLensSynth ds(small_ml());
  YoutubeDnn model(ds.schema(), small_model());
  util::Xoshiro256 rng(77);
  const float first = model.train_filter_epoch(ds, rng);
  float last = first;
  for (int e = 0; e < 4; ++e) last = model.train_filter_epoch(ds, rng);
  EXPECT_LT(last, first);
}

TEST(YoutubeDnn, RankTrainingReducesLoss) {
  const MovieLensSynth ds(small_ml());
  YoutubeDnn model(ds.schema(), small_model());
  util::Xoshiro256 rng(78);
  const float first = model.train_rank_epoch(ds, rng);
  float last = first;
  for (int e = 0; e < 4; ++e) last = model.train_rank_epoch(ds, rng);
  EXPECT_LT(last, first);
}

TEST(YoutubeDnn, TrainedTowerSeparatesHeldoutFromRandom) {
  const MovieLensSynth ds(small_ml());
  YoutubeDnn model(ds.schema(), small_model());
  util::Xoshiro256 rng(79);
  for (int e = 0; e < 8; ++e) model.train_filter_epoch(ds, rng);

  // Score(heldout) should exceed score(random item) on average.
  util::RunningStats held, rnd;
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    const auto ctx = model.make_context(ds, u);
    const auto ue = model.user_embedding(ctx);
    tensor::Vector item(model.item_table().dim());
    model.item_table().copy_row(ds.user(u).heldout, item);
    held.add(tensor::dot(ue, item));
    model.item_table().copy_row(rng.below(ds.num_items()), item);
    rnd.add(tensor::dot(ue, item));
  }
  EXPECT_GT(held.mean(), rnd.mean());
}

// ---------- Dlrm ---------------------------------------------------------------

CriteoConfig small_criteo() {
  CriteoConfig cfg;
  cfg.num_samples = 2000;
  cfg.seed = 3;
  return cfg;
}

DlrmConfig small_dlrm() {
  DlrmConfig cfg;
  cfg.emb_dim = 8;
  cfg.bottom_hidden = {32, 8};
  cfg.top_hidden = {32};
  cfg.lr = 0.05f;
  cfg.seed = 21;
  return cfg;
}

TEST(Dlrm, ConstructionMatchesSchema) {
  const CriteoSynth ds(small_criteo());
  const Dlrm model(ds.schema(), small_dlrm());
  EXPECT_EQ(model.table_count(), 26u);
  EXPECT_EQ(model.bottom_mlp().in_dim(), 13u);
  EXPECT_EQ(model.bottom_mlp().out_dim(), 8u);
  // Top input: 27*26/2 pair dots + emb_dim.
  EXPECT_EQ(model.top_input_dim(), 27u * 26 / 2 + 8);
  EXPECT_EQ(model.top_mlp().out_dim(), 1u);
}

TEST(Dlrm, PaperDnnDimensions) {
  const DlrmConfig cfg;
  EXPECT_EQ(cfg.bottom_hidden, (std::vector<std::size_t>{256, 128, 32}));
  EXPECT_EQ(cfg.top_hidden, (std::vector<std::size_t>{256, 64}));
}

TEST(Dlrm, BottomMustEndAtEmbDim) {
  const CriteoSynth ds(small_criteo());
  DlrmConfig bad = small_dlrm();
  bad.bottom_hidden = {32, 16};  // != emb_dim 8
  EXPECT_THROW(Dlrm(ds.schema(), bad), Error);
}

TEST(Dlrm, RejectsBadLearningRate) {
  const CriteoSynth ds(small_criteo());
  for (const float lr : {0.0f, -0.01f, std::nanf(""),
                         std::numeric_limits<float>::infinity()}) {
    DlrmConfig bad = small_dlrm();
    bad.lr = lr;
    EXPECT_THROW(Dlrm(ds.schema(), bad), Error) << lr;
  }
}

TEST(Dlrm, InteractLayoutAndSymmetry) {
  const CriteoSynth ds(small_criteo());
  const Dlrm model(ds.schema(), small_dlrm());
  util::Xoshiro256 rng(4);
  std::vector<tensor::Vector> embs(26, tensor::Vector(8));
  for (auto& e : embs)
    for (auto& x : e) x = static_cast<float>(rng.normal());
  tensor::Vector b(8);
  for (auto& x : b) x = static_cast<float>(rng.normal());

  const auto z = model.interact(embs, b);
  EXPECT_EQ(z.size(), model.top_input_dim());
  // First pair dot is emb0 . emb1.
  EXPECT_NEAR(z[0], tensor::dot(embs[0], embs[1]), 1e-5f);
  // The last emb_dim entries are the bottom output.
  for (std::size_t c = 0; c < 8; ++c)
    EXPECT_FLOAT_EQ(z[z.size() - 8 + c], b[c]);
}

// The interaction as plain pair loops: the reference the gemv form must
// match bit for bit.
tensor::Vector naive_interact(const std::vector<tensor::Vector>& embs,
                              const tensor::Vector& bottom) {
  std::vector<tensor::Vector> v = embs;
  v.push_back(bottom);
  tensor::Vector out;
  for (std::size_t i = 0; i < v.size(); ++i)
    for (std::size_t j = i + 1; j < v.size(); ++j)
      out.push_back(tensor::dot(v[i], v[j]));
  out.insert(out.end(), bottom.begin(), bottom.end());
  return out;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<tensor::Vector> random_embs(std::size_t n, std::size_t d,
                                        util::Xoshiro256& rng) {
  std::vector<tensor::Vector> embs(n, tensor::Vector(d));
  for (auto& e : embs)
    for (auto& x : e)
      x = rng.below(8) == 0 ? 0.0f : static_cast<float>(rng.normal());
  return embs;
}

TEST(Dlrm, InteractMatchesPairLoopsBitForBit) {
  const CriteoSynth ds(small_criteo());
  for (const DlrmConfig& cfg : {small_dlrm(), DlrmConfig{}}) {
    const Dlrm model(ds.schema(), cfg);
    util::Xoshiro256 rng(cfg.emb_dim);
    for (int t = 0; t < 5; ++t) {
      const auto embs = random_embs(26, cfg.emb_dim, rng);
      const auto b = random_embs(1, cfg.emb_dim, rng).front();
      EXPECT_TRUE(same_bits(model.interact(embs, b), naive_interact(embs, b)))
          << "emb_dim " << cfg.emb_dim << " trial " << t;
    }
  }
}

TEST(Dlrm, InteractRejectsWrongEmbeddingWidth) {
  const CriteoSynth ds(small_criteo());
  const Dlrm model(ds.schema(), small_dlrm());
  util::Xoshiro256 rng(6);
  const auto b = random_embs(1, 8, rng).front();
  for (const std::size_t width : {7, 9}) {
    auto embs = random_embs(26, 8, rng);
    embs[13].resize(width, 0.5f);
    try {
      (void)model.interact(embs, b);
      ADD_FAILURE() << "width " << width << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("embedding width"),
                std::string::npos)
          << e.what();
    }
  }
}

// Dlrm::train_step as it was written before the interaction became gemv
// and gevm calls: the forward pair dots and the backward double loop, on
// copies of the model's parameters.
struct ReferenceDlrm {
  nn::Mlp bottom;
  nn::Mlp top;
  std::vector<nn::EmbeddingTable> tables;
  float lr;

  explicit ReferenceDlrm(const Dlrm& m)
      : bottom(m.bottom_mlp()), top(m.top_mlp()), lr(m.config().lr) {
    for (std::size_t f = 0; f < m.table_count(); ++f)
      tables.push_back(m.table(f));
  }

  float train_step(const data::CriteoSample& s) {
    const std::size_t nf = tables.size();
    const tensor::Vector b = bottom.forward(s.dense);
    std::vector<tensor::Vector> embs;
    for (std::size_t f = 0; f < nf; ++f)
      tables[f].copy_row(s.sparse[f], embs.emplace_back(tables[f].dim()));
    const float p = top.forward(naive_interact(embs, b))[0];
    float gp = 0.0f;
    const float loss = nn::bce_loss(p, static_cast<float>(s.label), &gp);
    const tensor::Vector grad_x = top.backward(tensor::Vector{gp}, lr);

    const std::size_t n = nf + 1;
    const std::size_t d = b.size();
    std::vector<tensor::Vector> grad_v(n, tensor::Vector(d, 0.0f));
    std::size_t z = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++z) {
        const float g = grad_x[z];
        const auto& vi = (i < nf) ? embs[i] : b;
        const auto& vj = (j < nf) ? embs[j] : b;
        for (std::size_t c = 0; c < d; ++c) {
          grad_v[i][c] += g * vj[c];
          grad_v[j][c] += g * vi[c];
        }
      }
    }
    for (std::size_t c = 0; c < d; ++c) grad_v[n - 1][c] += grad_x[z + c];
    for (std::size_t f = 0; f < nf; ++f) {
      const std::size_t idx[1] = {s.sparse[f]};
      tables[f].sgd(idx, nn::Pooling::kSum, grad_v[f], lr);
    }
    bottom.backward(grad_v[n - 1], lr);
    return loss;
  }
};

void expect_same_mlp(const nn::Mlp& a, const nn::Mlp& b, const char* what) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  for (std::size_t i = 0; i < a.layer_count(); ++i) {
    EXPECT_TRUE(
        same_bits(a.layer(i).weight().data(), b.layer(i).weight().data()))
        << what << " layer " << i << " weight";
    EXPECT_TRUE(same_bits(a.layer(i).bias(), b.layer(i).bias()))
        << what << " layer " << i << " bias";
  }
}

TEST(Dlrm, TrainStepMatchesPairLoopReferenceBitForBit) {
  const CriteoSynth ds(small_criteo());
  for (const DlrmConfig& cfg : {small_dlrm(), DlrmConfig{}}) {
    Dlrm model(ds.schema(), cfg);
    ReferenceDlrm ref(model);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& sample = ds.sample(i);
      const float got = model.train_step(sample);
      const float want = ref.train_step(sample);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "emb_dim " << cfg.emb_dim << " step " << i << " loss";
    }
    expect_same_mlp(model.bottom_mlp(), ref.bottom, "bottom");
    expect_same_mlp(model.top_mlp(), ref.top, "top");
    for (std::size_t f = 0; f < model.table_count(); ++f)
      EXPECT_TRUE(same_bits(model.table(f).dense().data(),
                            ref.tables[f].dense().data()))
          << "emb_dim " << cfg.emb_dim << " table " << f;
  }
}

TEST(Dlrm, InferInUnitInterval) {
  const CriteoSynth ds(small_criteo());
  const Dlrm model(ds.schema(), small_dlrm());
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& s = ds.sample(i);
    const float p = model.infer(s.dense, s.sparse);
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(Dlrm, TrainingImprovesAuc) {
  const CriteoSynth ds(small_criteo());
  Dlrm model(ds.schema(), small_dlrm());
  util::Xoshiro256 rng(5);

  const auto auc_of = [&] {
    std::vector<int> labels;
    std::vector<double> scores;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      labels.push_back(ds.sample(i).label);
      scores.push_back(model.infer(ds.sample(i).dense, ds.sample(i).sparse));
    }
    return util::auc(labels, scores);
  };

  const double before = auc_of();
  for (int e = 0; e < 3; ++e) model.train_epoch(ds, rng);
  const double after = auc_of();
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.6);  // learns real signal from the synthetic oracle
}

// ---------- Metrics --------------------------------------------------------------

TEST(Metrics, HitRateCountsMembership) {
  const auto retrieve = [](std::size_t u) {
    return std::vector<std::size_t>{u, u + 1};
  };
  const auto heldout_hit = [](std::size_t u) { return u + 1; };
  const auto heldout_miss = [](std::size_t) { return std::size_t{999}; };
  EXPECT_DOUBLE_EQ(recsys::hit_rate(10, retrieve, heldout_hit), 1.0);
  EXPECT_DOUBLE_EQ(recsys::hit_rate(10, retrieve, heldout_miss), 0.0);
}

}  // namespace
}  // namespace imars
