// Facebook DLRM ranking model (Naumov et al., 2019), as configured in the
// paper's Table I for Criteo Kaggle:
//   * bottom MLP 256-128-32 processes the 13 dense features,
//   * 26 embedding tables (one per categorical feature, 32-d int8 on chip),
//   * pairwise dot-product feature interactions over the 26 embeddings plus
//     the bottom-MLP output,
//   * top MLP 256-64-1 maps interactions + bottom output to the CTR.
#pragma once

#include <cstddef>
#include <vector>

#include "data/criteo.hpp"
#include "data/schema.hpp"
#include "nn/embedding.hpp"
#include "nn/mlp.hpp"
#include "recsys/types.hpp"

namespace imars::recsys {

/// Hyper-parameters. Defaults mirror Table I.
struct DlrmConfig {
  std::size_t emb_dim = 32;
  std::vector<std::size_t> bottom_hidden = {256, 128, 32};  ///< paper config
  std::vector<std::size_t> top_hidden = {256, 64};          ///< paper: 256-64-1
  float lr = 0.02f;
  std::uint64_t seed = 99;
};

/// Trainable DLRM.
class Dlrm {
 public:
  Dlrm(const data::DatasetSchema& schema, const DlrmConfig& cfg);

  const DlrmConfig& config() const noexcept { return cfg_; }
  const data::DatasetSchema& schema() const noexcept { return schema_; }

  std::size_t table_count() const noexcept { return tables_.size(); }
  const nn::EmbeddingTable& table(std::size_t f) const;
  const nn::Mlp& bottom_mlp() const noexcept { return bottom_; }
  const nn::Mlp& top_mlp() const noexcept { return top_; }

  /// Feature-interaction layer: pairwise dots of {emb_0..emb_25, bottom}
  /// concatenated with the bottom output. Exposed so hardware backends can
  /// reproduce the exact same arithmetic. Every embedding must be emb_dim
  /// wide.
  tensor::Vector interact(std::span<const tensor::Vector> embs,
                          std::span<const float> bottom_out) const;

  /// Top-MLP input width (= 27*26/2 pair dots + emb_dim).
  std::size_t top_input_dim() const noexcept { return top_in_dim_; }

  /// Predicted CTR (float reference path).
  float infer(const tensor::Vector& dense,
              std::span<const std::size_t> sparse) const;

  /// One SGD step on one sample; returns the BCE loss.
  float train_step(const data::CriteoSample& sample);

  /// One epoch over the dataset; returns mean loss.
  float train_epoch(const data::CriteoSynth& ds, util::Xoshiro256& rng);

 private:
  /// V = [emb_0, ..., emb_25, bottom], one feature per row (checks widths).
  tensor::Matrix stack(std::span<const tensor::Vector> embs,
                       std::span<const float> bottom_out) const;
  /// interact() over the stacked features.
  tensor::Vector interact_stacked(const tensor::Matrix& v) const;

  DlrmConfig cfg_;
  data::DatasetSchema schema_;
  std::vector<nn::EmbeddingTable> tables_;
  std::size_t top_in_dim_ = 0;
  nn::Mlp bottom_;
  nn::Mlp top_;
};

}  // namespace imars::recsys
