// Tests for the model trainer (recsys/trainer.hpp).
#include <gtest/gtest.h>

#include <cmath>

#include "data/movielens.hpp"
#include "recsys/trainer.hpp"
#include "recsys/youtube_dnn.hpp"

namespace imars {
namespace {

using data::MovieLensConfig;
using data::MovieLensSynth;
using recsys::TrainOptions;
using recsys::YoutubeDnn;
using recsys::YoutubeDnnConfig;

struct Fixture {
  Fixture() {
    MovieLensConfig dcfg;
    dcfg.num_users = 100;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 71;
    ds = std::make_unique<MovieLensSynth>(dcfg);

    YoutubeDnnConfig mcfg;
    mcfg.emb_dim = 16;
    mcfg.filter_hidden = {32, 16};
    mcfg.rank_hidden = {16};
    mcfg.negatives = 4;
    mcfg.seed = 72;
    model = std::make_unique<YoutubeDnn>(ds->schema(), mcfg);
  }
  std::unique_ptr<MovieLensSynth> ds;
  std::unique_ptr<YoutubeDnn> model;
};

// ---------- trainer -----------------------------------------------------------

TEST(Trainer, RunsRequestedEpochsAndRecordsHistory) {
  Fixture f;
  TrainOptions opts;
  opts.max_epochs = 3;
  opts.seed = 73;
  const auto result = recsys::train_filter(*f.model, *f.ds, opts);
  ASSERT_EQ(result.history.size(), 3u);
  for (std::size_t e = 0; e < 3; ++e) EXPECT_EQ(result.history[e].epoch, e);
  EXPECT_FALSE(result.early_stopped);
  // No eval schedule: metrics stay NaN.
  for (const auto& h : result.history) EXPECT_TRUE(std::isnan(h.metric));
}

TEST(Trainer, EvalScheduleComputesHitRate) {
  Fixture f;
  TrainOptions opts;
  opts.max_epochs = 4;
  opts.eval_every = 2;
  opts.seed = 74;
  const auto result = recsys::train_filter(*f.model, *f.ds, opts);
  // Epochs 2 and 4 evaluated.
  EXPECT_TRUE(std::isnan(result.history[0].metric));
  EXPECT_FALSE(std::isnan(result.history[1].metric));
  EXPECT_TRUE(std::isnan(result.history[2].metric));
  EXPECT_FALSE(std::isnan(result.history[3].metric));
  EXPECT_GE(result.best_metric, 0.0);
  EXPECT_LE(result.best_metric, 1.0);
}

TEST(Trainer, EpochCallbackFires) {
  Fixture f;
  TrainOptions opts;
  opts.max_epochs = 2;
  opts.seed = 75;
  std::size_t calls = 0;
  opts.on_epoch = [&](const recsys::EpochStats&) { ++calls; };
  (void)recsys::train_rank(*f.model, *f.ds, opts);
  EXPECT_EQ(calls, 2u);
}

TEST(Trainer, EarlyStoppingHonorsPatience) {
  Fixture f;
  TrainOptions opts;
  opts.max_epochs = 50;  // would take a while without early stop
  opts.eval_every = 1;
  opts.patience = 2;
  opts.seed = 76;
  const auto result = recsys::train_filter(*f.model, *f.ds, opts);
  // With eval every epoch and patience 2, the run must terminate as soon as
  // two consecutive evaluations fail to improve.
  EXPECT_LT(result.history.size(), 50u);
  EXPECT_TRUE(result.early_stopped);
  EXPECT_LE(result.best_epoch + 3, result.history.size() + 1);
}

TEST(Trainer, DlrmAucImprovesOverTraining) {
  data::CriteoConfig dcfg;
  dcfg.num_samples = 1500;
  dcfg.seed = 77;
  const data::CriteoSynth ds(dcfg);
  recsys::DlrmConfig mcfg;
  mcfg.emb_dim = 8;
  mcfg.bottom_hidden = {16, 8};
  mcfg.top_hidden = {16};
  mcfg.seed = 78;
  recsys::Dlrm model(ds.schema(), mcfg);

  TrainOptions opts;
  opts.max_epochs = 3;
  opts.eval_every = 1;
  opts.seed = 79;
  const auto result = recsys::train_dlrm(model, ds, opts);
  EXPECT_GT(result.best_metric, 0.55);  // AUC above chance
  // Last evaluation should not be far below the best (stable training).
  EXPECT_GT(result.history.back().metric, result.best_metric - 0.1);
}

}  // namespace
}  // namespace imars
