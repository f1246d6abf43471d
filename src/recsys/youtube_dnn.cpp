#include "recsys/youtube_dnn.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "nn/loss.hpp"
#include "util/error.hpp"

namespace imars::recsys {

namespace {

std::vector<std::size_t> stage_features(const data::DatasetSchema& schema,
                                        bool filtering) {
  std::vector<std::size_t> out;
  for (std::size_t f = 0; f < schema.user_item.size(); ++f) {
    const auto use = schema.user_item[f].use;
    const bool in_stage =
        use == data::StageUse::kShared ||
        (filtering ? use == data::StageUse::kFilteringOnly
                   : use == data::StageUse::kRankingOnly);
    if (in_stage) out.push_back(f);
  }
  return out;
}

std::vector<std::size_t> make_dims(std::size_t in,
                                   const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  if (dims.back() != out) dims.push_back(out);
  return dims;
}

// The items of one user's history, for negative sampling: marking a new
// history stamps its items with a new step number, so a step allocates
// and clears nothing. One per epoch.
class HistoryMarks {
 public:
  explicit HistoryMarks(std::size_t items) : stamp_(items, 0) {}

  void mark(std::span<const std::size_t> history) {
    ++step_;
    for (const std::size_t item : history) {
      IMARS_REQUIRE(item < stamp_.size(),
                    "YoutubeDnn: history item out of range");
      stamp_[item] = step_;
    }
  }

  bool contains(std::size_t item) const { return stamp_[item] == step_; }

 private:
  std::vector<std::size_t> stamp_;
  std::size_t step_ = 0;
};

}  // namespace

YoutubeDnn::YoutubeDnn(const data::DatasetSchema& schema,
                       const YoutubeDnnConfig& cfg)
    : cfg_(cfg),
      schema_(schema),
      filter_features_(stage_features(schema, /*filtering=*/true)),
      rank_features_(stage_features(schema, /*filtering=*/false)),
      item_table_([&] {
        IMARS_REQUIRE(schema.has_item_table,
                      "YoutubeDnn: schema needs an item table");
        util::Xoshiro256 rng(cfg.seed);
        return nn::EmbeddingTable(schema.item_count, cfg.emb_dim, rng);
      }()),
      filter_in_dim_(filter_features_.size() * cfg.emb_dim + cfg.emb_dim +
                     schema.dense_dim),
      rank_in_dim_(rank_features_.size() * cfg.emb_dim + 2 * cfg.emb_dim +
                   schema.dense_dim),
      filter_mlp_([&] {
        util::Xoshiro256 rng(cfg.seed + 1);
        // Tower output = the last hidden width (the 32-d user embedding).
        auto dims = make_dims(filter_in_dim_, cfg.filter_hidden,
                              cfg.filter_hidden.back());
        return nn::Mlp(dims, nn::Activation::kIdentity, rng);
      }()),
      rank_mlp_([&] {
        util::Xoshiro256 rng(cfg.seed + 2);
        return nn::Mlp(make_dims(rank_in_dim_, cfg.rank_hidden, 1),
                       nn::Activation::kSigmoid, rng);
      }()) {
  IMARS_REQUIRE(cfg.emb_dim > 0, "YoutubeDnn: emb_dim must be positive");
  IMARS_REQUIRE(std::isfinite(cfg.lr) && cfg.lr > 0.0f,
                "YoutubeDnn: lr must be finite and positive");
  IMARS_REQUIRE(filter_mlp_.out_dim() == cfg.emb_dim,
                "YoutubeDnn: tower output must equal emb_dim for the NNS");
  util::Xoshiro256 rng(cfg.seed + 3);
  uiets_.reserve(schema.user_item.size());
  for (const auto& spec : schema.user_item)
    uiets_.emplace_back(spec.cardinality, cfg.emb_dim, rng);
}

const nn::EmbeddingTable& YoutubeDnn::uiet(std::size_t f) const {
  IMARS_REQUIRE(f < uiets_.size(), "YoutubeDnn::uiet out of range");
  return uiets_[f];
}

UserContext YoutubeDnn::make_context(const data::MovieLensSynth& ds,
                                     std::size_t user) const {
  const auto& rec = ds.user(user);
  UserContext ctx;
  ctx.dense = ds.dense_features(user);
  ctx.sparse.resize(schema_.user_item.size());
  for (std::size_t f = 0; f < schema_.user_item.size(); ++f)
    ctx.sparse[f] = {rec.sparse[f]};
  ctx.history = rec.history;
  return ctx;
}

tensor::Vector YoutubeDnn::filter_input(const UserContext& user) const {
  IMARS_REQUIRE(user.sparse.size() == uiets_.size(),
                "YoutubeDnn: context/schema feature count mismatch");
  tensor::Vector in;
  in.reserve(filter_in_dim_);
  for (auto f : filter_features_) {
    const auto pooled =
        uiets_[f].lookup_pooled(user.sparse[f], nn::Pooling::kMean);
    in.insert(in.end(), pooled.begin(), pooled.end());
  }
  const auto hist =
      item_table_.lookup_pooled(user.history, nn::Pooling::kMean);
  in.insert(in.end(), hist.begin(), hist.end());
  in.insert(in.end(), user.dense.begin(), user.dense.end());
  IMARS_REQUIRE(in.size() == filter_in_dim_, "filter_input: size mismatch");
  return in;
}

tensor::Vector YoutubeDnn::user_embedding(const UserContext& user) const {
  return filter_mlp_.infer(filter_input(user));
}

tensor::Vector YoutubeDnn::rank_input(const UserContext& user,
                                      std::size_t item) const {
  tensor::Vector in;
  in.reserve(rank_in_dim_);
  for (auto f : rank_features_) {
    const auto pooled =
        uiets_[f].lookup_pooled(user.sparse[f], nn::Pooling::kMean);
    in.insert(in.end(), pooled.begin(), pooled.end());
  }
  const std::size_t at = in.size();
  in.resize(at + cfg_.emb_dim);
  item_table_.copy_row(item, std::span(in).subspan(at));
  const auto hist =
      item_table_.lookup_pooled(user.history, nn::Pooling::kMean);
  in.insert(in.end(), hist.begin(), hist.end());
  in.insert(in.end(), user.dense.begin(), user.dense.end());
  IMARS_REQUIRE(in.size() == rank_in_dim_, "rank_input: size mismatch");
  return in;
}

float YoutubeDnn::ctr(const UserContext& user, std::size_t item) const {
  return rank_mlp_.infer(rank_input(user, item))[0];
}

float YoutubeDnn::train_filter_epoch(const data::MovieLensSynth& ds,
                                     util::Xoshiro256& rng) {
  std::vector<std::size_t> order(ds.num_users());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  double total_loss = 0.0;
  std::size_t steps = 0;
  HistoryMarks hist(ds.num_items());
  for (auto u : order) {
    const UserContext ctx = make_context(ds, u);
    if (ctx.history.empty()) continue;

    const auto in = filter_input(ctx);
    const auto user_emb = filter_mlp_.forward(in);

    // One positive drawn from history, cfg.negatives uniform negatives.
    const std::size_t pos = ctx.history[rng.below(ctx.history.size())];
    hist.mark(ctx.history);
    std::vector<std::size_t> neg_ids;
    std::vector<tensor::Vector> negs;
    while (neg_ids.size() < cfg_.negatives) {
      const std::size_t cand = rng.below(ds.num_items());
      if (hist.contains(cand)) continue;
      neg_ids.push_back(cand);
      item_table_.copy_row(cand, negs.emplace_back(cfg_.emb_dim));
    }
    tensor::Vector pos_emb(cfg_.emb_dim);
    item_table_.copy_row(pos, pos_emb);

    tensor::Vector grad_user, grad_pos;
    std::vector<tensor::Vector> grad_negs;
    total_loss += nn::sampled_softmax_loss(user_emb, pos_emb, negs, &grad_user,
                                           &grad_pos, &grad_negs);
    ++steps;

    // Step the tower, then route its input gradient to the embedding
    // tables segment by segment. Every gradient is known by now, so each
    // table row moves in place as its gradient arrives.
    const auto grad_in = filter_mlp_.backward(grad_user, cfg_.lr);
    std::size_t off = 0;
    for (auto f : filter_features_) {
      uiets_[f].sgd(ctx.sparse[f], nn::Pooling::kMean,
                    std::span(grad_in).subspan(off, cfg_.emb_dim), cfg_.lr);
      off += cfg_.emb_dim;
    }
    item_table_.sgd(ctx.history, nn::Pooling::kMean,
                    std::span(grad_in).subspan(off, cfg_.emb_dim), cfg_.lr);

    // Item-side gradients from the sampled softmax.
    const std::size_t pos_idx[1] = {pos};
    item_table_.sgd(pos_idx, nn::Pooling::kSum, grad_pos, cfg_.lr);
    for (std::size_t i = 0; i < neg_ids.size(); ++i) {
      const std::size_t neg_idx[1] = {neg_ids[i]};
      item_table_.sgd(neg_idx, nn::Pooling::kSum, grad_negs[i], cfg_.lr);
    }
  }
  return steps == 0 ? 0.0f : static_cast<float>(total_loss / static_cast<double>(steps));
}

float YoutubeDnn::train_rank_epoch(const data::MovieLensSynth& ds,
                                   util::Xoshiro256& rng) {
  std::vector<std::size_t> order(ds.num_users());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);

  double total_loss = 0.0;
  std::size_t steps = 0;
  HistoryMarks hist(ds.num_items());
  for (auto u : order) {
    const UserContext ctx = make_context(ds, u);
    if (ctx.history.empty()) continue;
    hist.mark(ctx.history);

    // label 1: a history item; label 0: a random unseen item.
    const std::array<std::pair<std::size_t, float>, 2> samples = {{
        {ctx.history[rng.below(ctx.history.size())], 1.0f},
        {[&] {
           std::size_t cand = rng.below(ds.num_items());
           while (hist.contains(cand)) cand = rng.below(ds.num_items());
           return cand;
         }(),
         0.0f},
    }};

    for (const auto& [item, label] : samples) {
      const auto in = rank_input(ctx, item);
      const float p = rank_mlp_.forward(in)[0];
      float grad = 0.0f;
      total_loss += nn::bce_loss(p, label, &grad);
      ++steps;

      const tensor::Vector grad_out{grad};
      const auto grad_in = rank_mlp_.backward(grad_out, cfg_.lr);

      std::size_t off = 0;
      for (auto f : rank_features_) {
        uiets_[f].sgd(ctx.sparse[f], nn::Pooling::kMean,
                      std::span(grad_in).subspan(off, cfg_.emb_dim), cfg_.lr);
        off += cfg_.emb_dim;
      }
      const std::size_t item_idx[1] = {item};
      item_table_.sgd(item_idx, nn::Pooling::kSum,
                      std::span(grad_in).subspan(off, cfg_.emb_dim), cfg_.lr);
      off += cfg_.emb_dim;
      item_table_.sgd(ctx.history, nn::Pooling::kMean,
                      std::span(grad_in).subspan(off, cfg_.emb_dim), cfg_.lr);
    }
  }
  return steps == 0 ? 0.0f : static_cast<float>(total_loss / static_cast<double>(steps));
}

}  // namespace imars::recsys
