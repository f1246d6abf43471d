#include "recsys/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "recsys/metrics.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace imars::recsys {

namespace {

// Local brute-force cosine top-k (the baseline module hosts the shared
// oracle, but baseline depends on recsys, so the trainer keeps its own
// 15-line copy instead of inverting the dependency).
std::vector<std::size_t> topk_cosine_local(const tensor::Matrix& items,
                                           std::span<const float> query,
                                           std::size_t k) {
  std::vector<float> scores(items.rows());
  for (std::size_t r = 0; r < items.rows(); ++r)
    scores[r] = tensor::cosine(items.row(r), query);
  std::vector<std::size_t> idx(items.rows());
  std::iota(idx.begin(), idx.end(), 0);
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

// Generic epoch loop: runs `epoch_fn`, evaluates `metric_fn` on schedule,
// tracks the best metric and applies patience-based early stopping.
TrainResult run_loop(const TrainOptions& options,
                     const std::function<float(util::Xoshiro256&)>& epoch_fn,
                     const std::function<double()>& metric_fn) {
  IMARS_REQUIRE(options.max_epochs > 0, "train: max_epochs must be positive");
  util::Xoshiro256 rng(options.seed);

  TrainResult result;
  result.best_metric = -std::numeric_limits<double>::infinity();
  std::size_t evals_since_best = 0;

  for (std::size_t e = 0; e < options.max_epochs; ++e) {
    EpochStats stats;
    stats.epoch = e;
    stats.loss = epoch_fn(rng);
    stats.metric = std::numeric_limits<double>::quiet_NaN();

    const bool eval_now =
        options.eval_every > 0 && ((e + 1) % options.eval_every == 0);
    if (eval_now) {
      stats.metric = metric_fn();
      if (stats.metric > result.best_metric) {
        result.best_metric = stats.metric;
        result.best_epoch = e;
        evals_since_best = 0;
      } else {
        ++evals_since_best;
      }
    }
    if (options.on_epoch) options.on_epoch(stats);
    result.history.push_back(stats);

    if (options.patience > 0 && evals_since_best >= options.patience) {
      result.early_stopped = true;
      break;
    }
  }
  return result;
}

}  // namespace

TrainResult train_filter(YoutubeDnn& model, const data::MovieLensSynth& ds,
                         const TrainOptions& options, std::size_t hr_topn) {
  return run_loop(
      options,
      [&](util::Xoshiro256& rng) { return model.train_filter_epoch(ds, rng); },
      [&] {
        const tensor::Matrix items = model.item_table().dense();
        return hit_rate(
            ds.num_users(),
            [&](std::size_t u) {
              const auto ctx = model.make_context(ds, u);
              return topk_cosine_local(items, model.user_embedding(ctx),
                                       hr_topn);
            },
            [&](std::size_t u) { return ds.user(u).heldout; });
      });
}

TrainResult train_rank(YoutubeDnn& model, const data::MovieLensSynth& ds,
                       const TrainOptions& options) {
  // The metric is -loss of the last epoch: higher is better.
  float last_loss = 0.0f;
  return run_loop(
      options,
      [&](util::Xoshiro256& rng) {
        last_loss = model.train_rank_epoch(ds, rng);
        return last_loss;
      },
      [&] { return -static_cast<double>(last_loss); });
}

TrainResult train_dlrm(Dlrm& model, const data::CriteoSynth& ds,
                       const TrainOptions& options) {
  return run_loop(
      options,
      [&](util::Xoshiro256& rng) { return model.train_epoch(ds, rng); },
      [&] {
        std::vector<int> labels;
        std::vector<double> scores;
        labels.reserve(ds.size());
        scores.reserve(ds.size());
        for (std::size_t i = 0; i < ds.size(); ++i) {
          labels.push_back(ds.sample(i).label);
          scores.push_back(
              model.infer(ds.sample(i).dense, ds.sample(i).sparse));
        }
        return util::auc(labels, scores);
      });
}

}  // namespace imars::recsys
