// Synthetic Criteo-Kaggle-style CTR dataset (substitution for the real
// dataset, which is not bundled).
//
// Matches the statistics the iMARS evaluation depends on:
//   * 13 dense (continuous) features + 26 categorical features,
//   * per-feature cardinalities spanning a few entries to the 30,000-entry
//     cap the paper quotes as the maximum ET size (Table I / Sec IV),
//   * click labels drawn from a logistic ground-truth model so a trained
//     DLRM reaches non-trivial AUC.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/schema.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace imars::data {

/// Generation parameters.
struct CriteoConfig {
  std::size_t num_samples = 20000;
  std::uint64_t seed = 7;
  double base_ctr = 0.25;  ///< marginal click probability target
};

/// One impression: 13 dense values, 26 categorical indices, click label.
struct CriteoSample {
  tensor::Vector dense;               ///< size 13
  std::vector<std::size_t> sparse;    ///< size 26, one index per feature
  int label = 0;                      ///< 1 = click
};

/// Synthetic Criteo dataset with logistic ground truth.
class CriteoSynth {
 public:
  static constexpr std::size_t kDenseDim = 13;
  static constexpr std::size_t kSparseCount = 26;
  static constexpr std::size_t kMaxCardinality = 30000;  // Table I cap

  explicit CriteoSynth(const CriteoConfig& config);

  const CriteoConfig& config() const noexcept { return config_; }
  const DatasetSchema& schema() const noexcept { return schema_; }

  std::size_t size() const noexcept { return samples_.size(); }
  const CriteoSample& sample(std::size_t i) const;

  /// Ground-truth click probability for a sample (used by oracle tests).
  double true_ctr(const CriteoSample& s) const;

  /// Cardinality of sparse feature f (matches schema()).
  std::size_t cardinality(std::size_t f) const;

 private:
  CriteoConfig config_;
  DatasetSchema schema_;
  std::vector<CriteoSample> samples_;
  // Ground-truth model: per-(feature, bucketized index) logit contribution
  // and dense-feature weights.
  std::vector<std::vector<float>> sparse_logits_;  // [feature][index bucket]
  tensor::Vector dense_weights_;                   // size 13
  float bias_ = 0.0f;
};

}  // namespace imars::data
