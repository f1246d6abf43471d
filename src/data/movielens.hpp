// Synthetic MovieLens-1M-style dataset (substitution for the real dataset,
// which is not bundled).
//
// Matches the statistics iMARS' evaluation depends on:
//   * 6040 users, 3952 movies (MovieLens-1M counts),
//   * 5 filtering UIETs / 6 ranking UIETs with 5 shared (Table I),
//   * per-feature cardinalities spanning 3 ("min 3 entries") to 6040
//     ("maximum of 6040 entries"),
//   * one ItET over all movies used by the filtering NNS,
//   * Zipf item popularity and a latent-factor ground truth so a trained
//     model achieves non-trivial hit rate (needed for the Sec IV-B accuracy
//     experiment).
//
// Ground truth: user u and movie i carry latent vectors z_u, w_i in R^16;
// u watches i with probability proportional to softmax-ish affinity
// sigmoid(z_u . w_i + popularity bias). Sparse user features are noisy
// quantizations of z_u so the trainable embeddings can recover signal.
#pragma once

#include <cstddef>
#include <vector>

#include "data/schema.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace imars::data {

/// Generation parameters. Defaults reproduce the MovieLens-1M shape; tests
/// shrink the counts for speed.
struct MovieLensConfig {
  std::size_t num_users = 6040;
  std::size_t num_items = 3952;
  std::size_t latent_dim = 16;
  std::size_t history_min = 4;    ///< min watched movies per user
  std::size_t history_max = 40;   ///< max watched movies per user
  double zipf_s = 1.05;           ///< item popularity skew
  std::uint64_t seed = 42;
};

/// One user's features and interaction history.
struct MovieLensUser {
  // Sparse feature values, in schema order:
  //   [0] gender (3), [1] age bucket (7), [2] occupation (21),
  //   [3] zip region (3439), [4] user id (6040)  -- the 5 shared UIETs
  //   [5] favourite genre (18)                   -- ranking-only UIET
  std::vector<std::size_t> sparse;
  std::vector<std::size_t> history;  ///< watched item ids (train)
  std::size_t heldout = 0;           ///< leave-one-out test item
};

/// Synthetic MovieLens dataset with ground-truth latent factors.
class MovieLensSynth {
 public:
  explicit MovieLensSynth(const MovieLensConfig& config);

  const MovieLensConfig& config() const noexcept { return config_; }

  /// Schema matching Table I (5 filtering / 6 ranking UIETs, 1 ItET).
  const DatasetSchema& schema() const noexcept { return schema_; }

  std::size_t num_users() const noexcept { return users_.size(); }
  std::size_t num_items() const noexcept { return config_.num_items; }

  const MovieLensUser& user(std::size_t u) const;

  /// Ground-truth item latent vector (used to seed item embeddings and to
  /// build oracle comparisons in tests).
  std::span<const float> item_latent(std::size_t i) const;

  /// Ground-truth user latent vector.
  std::span<const float> user_latent(std::size_t u) const;

  /// Ground-truth affinity score (higher = more likely watched).
  float affinity(std::size_t u, std::size_t i) const;

  /// Item popularity distribution used during generation.
  double item_popularity(std::size_t i) const;

  /// Dense feature vector for a user (log history length, mean popularity
  /// of history, recency proxy, activity rate) — the "continuous" inputs of
  /// Fig. 1(c).
  tensor::Vector dense_features(std::size_t u) const;

  /// Number of dense features produced by dense_features().
  static constexpr std::size_t kDenseDim = 4;

 private:
  MovieLensConfig config_;
  DatasetSchema schema_;
  tensor::Matrix user_latent_;  // users x latent
  tensor::Matrix item_latent_;  // items x latent
  std::vector<double> item_pop_;
  std::vector<MovieLensUser> users_;
};

}  // namespace imars::data
