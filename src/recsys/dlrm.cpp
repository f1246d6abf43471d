#include "recsys/dlrm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/loss.hpp"
#include "util/error.hpp"

namespace imars::recsys {

namespace {
std::vector<std::size_t> make_dims(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  if (dims.back() != out) dims.push_back(out);
  return dims;
}
}  // namespace

Dlrm::Dlrm(const data::DatasetSchema& schema, const DlrmConfig& cfg)
    : cfg_(cfg),
      schema_(schema),
      top_in_dim_((schema.user_item.size() + 1) * schema.user_item.size() / 2 +
                  cfg.emb_dim),
      bottom_([&] {
        IMARS_REQUIRE(!cfg.bottom_hidden.empty() &&
                          cfg.bottom_hidden.back() == cfg.emb_dim,
                      "Dlrm: bottom MLP must end at emb_dim for interactions");
        util::Xoshiro256 rng(cfg.seed);
        return nn::Mlp(make_dims(schema.dense_dim, cfg.bottom_hidden,
                                 cfg.emb_dim),
                       nn::Activation::kRelu, rng);
      }()),
      top_([&] {
        util::Xoshiro256 rng(cfg.seed + 1);
        return nn::Mlp(make_dims(top_in_dim_, cfg.top_hidden, 1),
                       nn::Activation::kSigmoid, rng);
      }()) {
  IMARS_REQUIRE(!schema.user_item.empty(), "Dlrm: need sparse features");
  IMARS_REQUIRE(std::isfinite(cfg.lr) && cfg.lr > 0.0f,
                "Dlrm: lr must be finite and positive");
  util::Xoshiro256 rng(cfg.seed + 2);
  tables_.reserve(schema.user_item.size());
  for (const auto& spec : schema.user_item)
    tables_.emplace_back(spec.cardinality, cfg.emb_dim, rng);
}

const nn::EmbeddingTable& Dlrm::table(std::size_t f) const {
  IMARS_REQUIRE(f < tables_.size(), "Dlrm::table out of range");
  return tables_[f];
}

tensor::Matrix Dlrm::stack(std::span<const tensor::Vector> embs,
                           std::span<const float> bottom_out) const {
  IMARS_REQUIRE(embs.size() == tables_.size(), "Dlrm::interact: feature count");
  IMARS_REQUIRE(bottom_out.size() == cfg_.emb_dim,
                "Dlrm::interact: bottom width");
  tensor::Matrix v(embs.size() + 1, cfg_.emb_dim);
  for (std::size_t f = 0; f < embs.size(); ++f) {
    IMARS_REQUIRE(embs[f].size() == cfg_.emb_dim,
                  "Dlrm::interact: embedding width");
    std::copy(embs[f].begin(), embs[f].end(), v.row(f).begin());
  }
  std::copy(bottom_out.begin(), bottom_out.end(), v.row(embs.size()).begin());
  return v;
}

tensor::Vector Dlrm::interact_stacked(const tensor::Matrix& v) const {
  // z = [V_i . V_j for i < j] ++ bottom. Row i's dots with the rows below
  // it are one gemv over that row range; V_j . V_i == V_i . V_j bit for bit.
  const std::size_t n = v.rows();
  const std::size_t d = v.cols();
  tensor::Vector out(top_in_dim_);
  const std::span<float> z(out);
  std::size_t at = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t below = n - 1 - i;
    tensor::gemv(v.data().subspan((i + 1) * d, below * d), v.row(i),
                 z.subspan(at, below));
    at += below;
  }
  const auto bottom_out = v.row(n - 1);
  std::copy(bottom_out.begin(), bottom_out.end(), z.subspan(at).begin());
  return out;
}

tensor::Vector Dlrm::interact(std::span<const tensor::Vector> embs,
                              std::span<const float> bottom_out) const {
  return interact_stacked(stack(embs, bottom_out));
}

float Dlrm::infer(const tensor::Vector& dense,
                  std::span<const std::size_t> sparse) const {
  IMARS_REQUIRE(sparse.size() == tables_.size(), "Dlrm::infer: sparse count");
  const tensor::Vector b = bottom_.infer(dense);
  std::vector<tensor::Vector> embs;
  embs.reserve(tables_.size());
  for (std::size_t f = 0; f < tables_.size(); ++f)
    tables_[f].copy_row(sparse[f], embs.emplace_back(cfg_.emb_dim));
  return top_.infer(interact(embs, b))[0];
}

float Dlrm::train_step(const data::CriteoSample& sample) {
  const std::size_t nf = tables_.size();
  IMARS_REQUIRE(sample.sparse.size() == nf, "Dlrm::train_step: sparse count");

  // Forward.
  const tensor::Vector b = bottom_.forward(sample.dense);
  std::vector<tensor::Vector> embs;
  embs.reserve(nf);
  for (std::size_t f = 0; f < nf; ++f)
    tables_[f].copy_row(sample.sparse[f], embs.emplace_back(cfg_.emb_dim));
  const tensor::Matrix v = stack(embs, b);
  const float p = top_.forward(interact_stacked(v))[0];

  float gp = 0.0f;
  const float loss = nn::bce_loss(p, static_cast<float>(sample.label), &gp);

  // Backward through the top MLP, which steps its weights in place; each
  // part of the model moves once its own gradient is known.
  const tensor::Vector grad_x = top_.backward(tensor::Vector{gp}, cfg_.lr);

  // Backward through the interaction layer. G is the symmetric pair
  // gradient (zero diagonal), so feature k's gradient is the sum over
  // m != k, in ascending m, of G[k][m] * V_m: one gevm over G's row k.
  const std::size_t n = nf + 1;
  tensor::Matrix g(n, n);
  std::size_t z = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j, ++z)
      g.at(i, j) = g.at(j, i) = grad_x[z];

  // Embedding updates (v holds copies of the rows as they were).
  for (std::size_t f = 0; f < nf; ++f) {
    const std::size_t idx[1] = {sample.sparse[f]};
    tables_[f].sgd(idx, nn::Pooling::kSum, tensor::gevm(g.row(f), v),
                   cfg_.lr);
  }
  // Bottom MLP update, plus the direct concat path of the bottom output.
  tensor::Vector grad_b = tensor::gevm(g.row(nf), v);
  for (std::size_t c = 0; c < cfg_.emb_dim; ++c) grad_b[c] += grad_x[z + c];
  bottom_.backward(grad_b, cfg_.lr);
  return loss;
}

float Dlrm::train_epoch(const data::CriteoSynth& ds, util::Xoshiro256& rng) {
  std::vector<std::size_t> order(ds.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  double total = 0.0;
  for (auto i : order) total += train_step(ds.sample(i));
  return static_cast<float>(total / static_cast<double>(order.size()));
}

}  // namespace imars::recsys
