#include "data/movielens.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "data/zipf.hpp"
#include "util/error.hpp"

namespace imars::data {

namespace {

// MovieLens-1M real cardinalities: gender {M,F,unknown}, 7 age buckets,
// 21 occupations, 3439 zip prefixes, 6040 users, 18 genres.
constexpr std::size_t kGenderCard = 3;
constexpr std::size_t kAgeCard = 7;
constexpr std::size_t kOccupationCard = 21;
constexpr std::size_t kZipCard = 3439;
constexpr std::size_t kGenreCard = 18;

DatasetSchema make_schema(const MovieLensConfig& cfg) {
  DatasetSchema s;
  s.name = "movielens-1m-synth";
  s.dense_dim = MovieLensSynth::kDenseDim;
  s.user_item = {
      {"gender", kGenderCard, 1, StageUse::kShared},
      {"age", kAgeCard, 1, StageUse::kShared},
      {"occupation", kOccupationCard, 1, StageUse::kShared},
      {"zip", kZipCard, 1, StageUse::kShared},
      {"user_id", cfg.num_users, 1, StageUse::kShared},
      {"fav_genre", kGenreCard, 1, StageUse::kRankingOnly},
  };
  s.has_item_table = true;
  s.item_count = cfg.num_items;
  s.embedding_dim = 32;
  return s;
}

// Maps a latent coordinate to a bucket in [0, card) with additive noise, so
// sparse features correlate with (but do not fully reveal) the latent space.
std::size_t bucketize(float value, std::size_t card, util::Xoshiro256& rng,
                      double noise_prob) {
  if (rng.bernoulli(noise_prob)) return rng.below(card);
  const double u = 0.5 * (1.0 + std::erf(value / std::numbers::sqrt2));
  auto b = static_cast<std::size_t>(u * static_cast<double>(card));
  return std::min(b, card - 1);
}

}  // namespace

MovieLensSynth::MovieLensSynth(const MovieLensConfig& config)
    : config_(config), schema_(make_schema(config)) {
  IMARS_REQUIRE(config.num_users > 0 && config.num_items > 1,
                "MovieLensSynth: need users and >=2 items");
  IMARS_REQUIRE(config.history_min >= 1 &&
                    config.history_max >= config.history_min,
                "MovieLensSynth: invalid history bounds");
  IMARS_REQUIRE(config.history_max + 1 < config.num_items,
                "MovieLensSynth: history larger than catalogue");

  util::Xoshiro256 rng(config.seed);

  user_latent_ = tensor::Matrix::randn(config.num_users, config.latent_dim,
                                       1.0f, rng);
  item_latent_ = tensor::Matrix::randn(config.num_items, config.latent_dim,
                                       1.0f, rng);

  const ZipfSampler zipf(config.num_items, config.zipf_s);
  item_pop_.resize(config.num_items);
  for (std::size_t i = 0; i < config.num_items; ++i)
    item_pop_[i] = zipf.pmf(i);

  users_.resize(config.num_users);
  for (std::size_t u = 0; u < config.num_users; ++u) {
    auto& rec = users_[u];
    const auto z = user_latent_.row(u);

    // Sparse features as noisy projections of the latent vector. user_id is
    // exact; zip mixes two latent coordinates for higher entropy.
    rec.sparse = {
        bucketize(z[0], kGenderCard, rng, 0.1),
        bucketize(z[1], kAgeCard, rng, 0.1),
        bucketize(z[2], kOccupationCard, rng, 0.1),
        bucketize(0.7f * z[3] + 0.3f * z[4], kZipCard, rng, 0.05),
        u,
        bucketize(z[5], kGenreCard, rng, 0.1),
    };

    // Watch history: candidate items from the Zipf popularity prior,
    // accepted with probability sigmoid(affinity). Guarantees history_min
    // by falling back to best-affinity popular items.
    const std::size_t target =
        config.history_min +
        rng.below(config.history_max - config.history_min + 1);
    rec.history.reserve(target);  // the held-out item is the only slack
    std::unordered_set<std::size_t> seen;
    std::size_t attempts = 0;
    const std::size_t max_attempts = target * 50;
    while (rec.history.size() < target && attempts < max_attempts) {
      ++attempts;
      const std::size_t i = zipf.sample(rng);
      if (seen.contains(i)) continue;
      const float a = affinity(u, i);
      if (rng.bernoulli(1.0 / (1.0 + std::exp(-a)))) {
        seen.insert(i);
        rec.history.push_back(i);
      }
    }
    while (rec.history.size() < config.history_min) {
      const std::size_t i = rng.below(config.num_items);
      if (!seen.contains(i)) {
        seen.insert(i);
        rec.history.push_back(i);
      }
    }

    // Leave-one-out: the most recent (last) interaction becomes the test
    // item; it is removed from the training history.
    rec.heldout = rec.history.back();
    rec.history.pop_back();
  }
}

const MovieLensUser& MovieLensSynth::user(std::size_t u) const {
  IMARS_REQUIRE(u < users_.size(), "MovieLensSynth::user out of range");
  return users_[u];
}

std::span<const float> MovieLensSynth::item_latent(std::size_t i) const {
  IMARS_REQUIRE(i < config_.num_items, "item_latent out of range");
  return item_latent_.row(i);
}

std::span<const float> MovieLensSynth::user_latent(std::size_t u) const {
  IMARS_REQUIRE(u < users_.size(), "user_latent out of range");
  return user_latent_.row(u);
}

float MovieLensSynth::affinity(std::size_t u, std::size_t i) const {
  const auto z = user_latent(u);
  const auto w = item_latent(i);
  // Scaled dot product keeps sigmoids away from saturation for latent_dim 16.
  return tensor::dot(z, w) / std::sqrt(static_cast<float>(config_.latent_dim));
}

double MovieLensSynth::item_popularity(std::size_t i) const {
  IMARS_REQUIRE(i < item_pop_.size(), "item_popularity out of range");
  return item_pop_[i];
}

tensor::Vector MovieLensSynth::dense_features(std::size_t u) const {
  const auto& rec = user(u);
  const auto n = static_cast<float>(rec.history.size());
  double mean_pop = 0.0;
  for (auto i : rec.history) mean_pop += item_pop_[i];
  if (!rec.history.empty()) mean_pop /= static_cast<double>(rec.history.size());
  return {
      std::log1p(n),
      static_cast<float>(std::log1p(mean_pop * 1e3)),
      n / static_cast<float>(config_.history_max),
      static_cast<float>(rec.sparse[1]) / static_cast<float>(kAgeCard),
  };
}

}  // namespace imars::data
