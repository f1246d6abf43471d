// Tests for the iMARS backends: functional parity with the software
// reference, per-stage cost accounting, flow correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "baseline/cpu_backend.hpp"
#include "baseline/exact_nns.hpp"
#include "core/backend.hpp"
#include "core/backend_factory.hpp"
#include "data/criteo.hpp"
#include "data/movielens.hpp"
#include "recsys/dlrm.hpp"
#include "recsys/youtube_dnn.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace imars {
namespace {

using core::ArchConfig;
using core::ImarsBackend;
using core::ImarsBackendConfig;
using core::ImarsCtrBackend;
using data::MovieLensConfig;
using data::MovieLensSynth;
using device::DeviceProfile;
using recsys::OpKind;
using recsys::StageStats;
using recsys::YoutubeDnn;
using recsys::YoutubeDnnConfig;

// Small but realistic trained setup shared by the tests (32-d embeddings so
// the hardware constraint emb_dim * 8 == cma_cols holds).
struct BackendFixture {
  BackendFixture() {
    MovieLensConfig dcfg;
    dcfg.num_users = 100;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 23;
    ds = std::make_unique<MovieLensSynth>(dcfg);

    YoutubeDnnConfig mcfg;  // default 32-d embeddings, paper MLPs
    mcfg.negatives = 4;
    mcfg.seed = 29;
    model = std::make_unique<YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(31);
    for (int e = 0; e < 2; ++e) model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < 8; ++u)
      calib.push_back(model->make_context(*ds, u));

    ImarsBackendConfig bcfg;
    bcfg.nns_radius = 110;
    backend = std::make_unique<ImarsBackend>(*model, ArchConfig{},
                                             DeviceProfile::fefet45(), bcfg,
                                             calib);
  }

  std::unique_ptr<MovieLensSynth> ds;
  std::unique_ptr<YoutubeDnn> model;
  std::vector<recsys::UserContext> calib;
  std::unique_ptr<ImarsBackend> backend;
};

TEST(ImarsBackend, LoadsAllTablesIntoBanks) {
  BackendFixture f;
  const auto& acc = f.backend->accelerator();
  // 6 UIETs + 1 ItET.
  EXPECT_EQ(acc.table_count(), 7u);
  EXPECT_EQ(acc.active_banks(), 7u);
  // Energy ledger was reset after loading.
  EXPECT_DOUBLE_EQ(acc.ledger().total().value, 0.0);
}

TEST(ImarsBackend, HardwareUserEmbeddingTracksFloatTower) {
  BackendFixture f;
  util::RunningStats cos_sim;
  for (std::size_t u = 0; u < 20; ++u) {
    const auto ctx = f.model->make_context(*f.ds, u);
    const auto hw = f.backend->user_embedding_hw(ctx, nullptr);
    const auto sw = f.model->user_embedding(ctx);
    cos_sim.add(tensor::cosine(hw, sw));
  }
  // int8 ETs + int8 crossbar DNN vs float reference: directions align.
  EXPECT_GT(cos_sim.mean(), 0.95);
}

TEST(ImarsBackend, FilterMatchesBruteForceHammingOnHwEmbedding) {
  BackendFixture f;
  for (std::size_t u = 0; u < 10; ++u) {
    const auto ctx = f.model->make_context(*f.ds, u);
    const auto candidates = f.backend->filter(ctx, nullptr);

    // Reproduce the expected set: signature of the *hardware* user
    // embedding against signatures of the quantized item embeddings.
    const auto hw_emb = f.backend->user_embedding_hw(ctx, nullptr);
    const auto qsig = f.backend->signature_of(hw_emb);
    const auto items_q = f.model->item_table().quantized();
    const auto deq = items_q.dequantize();
    std::vector<std::size_t> expected;
    for (std::size_t r = 0; r < deq.rows(); ++r) {
      if (f.backend->signature_of(deq.row(r)).hamming(qsig) <=
          f.backend->config().nns_radius)
        expected.push_back(r);
    }
    if (expected.size() > f.backend->config().max_candidates)
      expected.resize(f.backend->config().max_candidates);
    EXPECT_EQ(candidates, expected) << "user " << u;
  }
}

TEST(ImarsBackend, FilterStatsCoverEtDnnNns) {
  BackendFixture f;
  const auto ctx = f.model->make_context(*f.ds, 0);
  StageStats stats;
  (void)f.backend->filter(ctx, &stats);
  EXPECT_GT(stats.at(OpKind::kEtLookup).latency.value, 0.0);
  EXPECT_GT(stats.at(OpKind::kEtLookup).energy.value, 0.0);
  EXPECT_GT(stats.at(OpKind::kDnn).latency.value, 0.0);
  EXPECT_GT(stats.at(OpKind::kNns).latency.value, 0.0);
  // NNS is O(1): far cheaper than the DNN or the lookups.
  EXPECT_LT(stats.at(OpKind::kNns).latency.value,
            stats.at(OpKind::kDnn).latency.value);
}

TEST(ImarsBackend, RankScoresTrackFloatCtr) {
  BackendFixture f;
  const auto ctx = f.model->make_context(*f.ds, 1);
  const std::vector<std::size_t> candidates = {2, 11, 23, 37, 41, 53, 67};
  StageStats stats;
  const auto ranked = f.backend->rank(ctx, candidates, 5, &stats);
  ASSERT_EQ(ranked.size(), 5u);

  // Descending scores, items drawn from the candidate list.
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  for (const auto& r : ranked) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), r.item),
              candidates.end());
    // Hardware CTR approximates the float model's CTR.
    EXPECT_NEAR(r.score, f.model->ctr(ctx, r.item), 0.15f);
  }
  EXPECT_GT(stats.at(OpKind::kTopK).latency.value, 0.0);
}

TEST(ImarsBackend, RankTopKAgreesWithFloatOracleMostly) {
  BackendFixture f;
  // Overlap between hardware top-k and float top-k across users.
  double overlap = 0.0;
  const std::size_t users = 15, k = 5;
  std::vector<std::size_t> candidates(30);
  for (std::size_t i = 0; i < 30; ++i) candidates[i] = i * 3;
  for (std::size_t u = 0; u < users; ++u) {
    const auto ctx = f.model->make_context(*f.ds, u);
    const auto hw = f.backend->rank(ctx, candidates, k, nullptr);
    std::vector<std::pair<float, std::size_t>> sw;
    for (auto c : candidates) sw.push_back({f.model->ctr(ctx, c), c});
    std::sort(sw.rbegin(), sw.rend());
    std::size_t inter = 0;
    for (const auto& h : hw)
      for (std::size_t j = 0; j < k; ++j)
        if (sw[j].second == h.item) ++inter;
    overlap += static_cast<double>(inter) / static_cast<double>(k);
  }
  EXPECT_GT(overlap / static_cast<double>(users), 0.6);
}

TEST(ImarsBackend, EmptyCandidateListYieldsEmptyRanking) {
  BackendFixture f;
  const auto ctx = f.model->make_context(*f.ds, 0);
  EXPECT_TRUE(f.backend->rank(ctx, {}, 5, nullptr).empty());
}

TEST(ImarsBackend, RecommendComposesBothStages) {
  BackendFixture f;
  const auto ctx = f.model->make_context(*f.ds, 4);
  StageStats fs, rs;
  const auto recs = recsys::recommend(*f.backend, ctx, 5, &fs, &rs);
  EXPECT_LE(recs.size(), 5u);
  EXPECT_GT(fs.total().latency.value, 0.0);
  EXPECT_GT(fs.total().energy.value, 0.0);
  if (!recs.empty()) {
    EXPECT_GT(rs.total().latency.value, 0.0);
  }
}

TEST(ImarsBackend, CandidateCapRespectsCtrBuffer) {
  BackendFixture f;
  ImarsBackendConfig bad;
  bad.max_candidates = 1000;  // exceeds 256 CTR-buffer rows
  EXPECT_THROW(ImarsBackend(*f.model, ArchConfig{},
                            DeviceProfile::fefet45(), bad, f.calib),
               Error);
}

// ---------- DLRM on iMARS -----------------------------------------------------

struct CtrFixture {
  CtrFixture() {
    data::CriteoConfig dcfg;
    dcfg.num_samples = 400;
    dcfg.seed = 37;
    ds = std::make_unique<data::CriteoSynth>(dcfg);

    recsys::DlrmConfig mcfg;  // paper defaults (32-d embeddings)
    mcfg.seed = 41;
    model = std::make_unique<recsys::Dlrm>(ds->schema(), mcfg);
    util::Xoshiro256 rng(43);
    model->train_epoch(*ds, rng);

    for (std::size_t i = 0; i < 8; ++i) calib.push_back(ds->sample(i));
    backend = std::make_unique<ImarsCtrBackend>(
        *model, ArchConfig{}, DeviceProfile::fefet45(),
        core::TimingMode::kActualPlacement, calib);
  }
  std::unique_ptr<data::CriteoSynth> ds;
  std::unique_ptr<recsys::Dlrm> model;
  std::vector<data::CriteoSample> calib;
  std::unique_ptr<ImarsCtrBackend> backend;
};

TEST(ImarsCtrBackend, Loads26Banks) {
  CtrFixture f;
  EXPECT_EQ(f.backend->accelerator().active_banks(), 26u);
}

TEST(ImarsCtrBackend, ScoresTrackFloatDlrm) {
  CtrFixture f;
  util::RunningStats err;
  for (std::size_t i = 0; i < 30; ++i) {
    const auto& s = f.ds->sample(i);
    const float hw = f.backend->score(s.dense, s.sparse, nullptr);
    const float sw = f.model->infer(s.dense, s.sparse);
    EXPECT_GE(hw, 0.0f);
    EXPECT_LE(hw, 1.0f);
    err.add(std::abs(hw - sw));
  }
  EXPECT_LT(err.mean(), 0.06);
}

TEST(ImarsCtrBackend, StatsSplitEtAndDnn) {
  CtrFixture f;
  const auto& s = f.ds->sample(0);
  StageStats stats;
  (void)f.backend->score(s.dense, s.sparse, &stats);
  EXPECT_GT(stats.at(OpKind::kEtLookup).latency.value, 0.0);
  EXPECT_GT(stats.at(OpKind::kDnn).latency.value, 0.0);
  // DNN (bottom + top crossbar passes) dominates a single-impression score.
  EXPECT_GT(stats.at(OpKind::kDnn).latency.value,
            stats.at(OpKind::kEtLookup).latency.value);
}

TEST(ImarsCtrBackend, SparseCountMismatchThrows) {
  CtrFixture f;
  const auto& s = f.ds->sample(0);
  std::vector<std::size_t> wrong(s.sparse.begin(), s.sparse.end() - 1);
  EXPECT_THROW((void)f.backend->score(s.dense, wrong, nullptr), Error);
}

// ---------- shard replicas -------------------------------------------------
//
// A factory-built replica must be indistinguishable from a backend built
// directly on the slot's profile. The factory builds its image on its first
// call's profile (FeFET-45 here), so a replica charging through the image's
// profile shows on the FeFET-22 and ReRAM-45 slots, and one charging
// through the image's ledger shows on every slot.

std::vector<DeviceProfile> slot_profiles() {
  return {DeviceProfile::fefet45(), DeviceProfile::fefet22(),
          DeviceProfile::reram45()};
}

void expect_same_cost(const recsys::OpCost& a, const recsys::OpCost& b,
                      const std::string& what) {
  EXPECT_EQ(a.latency.value, b.latency.value) << what;
  EXPECT_EQ(a.energy.value, b.energy.value) << what;
}

void expect_same_stats(const StageStats& a, const StageStats& b,
                       const std::string& what) {
  for (std::size_t k = 0; k < a.ops.size(); ++k)
    expect_same_cost(a.ops[k], b.ops[k],
                     what + ", op kind " + std::to_string(k));
}

// Per-component ledger, resource census, and every array's mode and stored
// image: each row's valid flag and, when written, its bits.
void expect_same_fabric(const core::ImarsAccelerator& a,
                        const core::ImarsAccelerator& b) {
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(device::Component::kCount); ++c) {
    const auto comp = static_cast<device::Component>(c);
    EXPECT_EQ(a.ledger().energy(comp).value, b.ledger().energy(comp).value)
        << device::component_name(comp);
    EXPECT_EQ(a.ledger().ops(comp), b.ledger().ops(comp))
        << device::component_name(comp);
  }
  EXPECT_EQ(a.active_cmas(), b.active_cmas());
  EXPECT_EQ(a.active_mats(), b.active_mats());
  ASSERT_EQ(a.table_count(), b.table_count());
  for (std::size_t t = 0; t < a.table_count(); ++t) {
    for (const bool sigs : {false, true}) {
      const auto xs = sigs ? a.sig_cmas(t) : a.data_cmas(t);
      const auto ys = sigs ? b.sig_cmas(t) : b.data_cmas(t);
      ASSERT_EQ(xs.size(), ys.size());
      for (std::size_t i = 0; i < xs.size(); ++i) {
        const std::string where = "table " + std::to_string(t) +
                                  (sigs ? " sig" : " data") + " array " +
                                  std::to_string(i);
        EXPECT_EQ(xs[i].mode(), ys[i].mode()) << where;
        // A never-written row reads as an empty vector.
        const auto image = [](const cma::Cma& array) {
          std::vector<util::BitVec> rows;
          for (std::size_t r = 0; r < array.rows(); ++r)
            rows.push_back(array.row_valid(r) ? array.peek_row(r)
                                              : util::BitVec());
          return rows;
        };
        EXPECT_EQ(image(xs[i]), image(ys[i])) << where;
      }
    }
  }
}

void expect_same_ranking(const std::vector<recsys::ScoredItem>& a,
                         const std::vector<recsys::ScoredItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(ImarsBackend, FactoryReplicasMatchDirectBackendsPerTechnology) {
  BackendFixture f;
  ImarsBackendConfig bcfg;
  bcfg.nns_radius = 110;
  const auto factory = core::imars_sharded_backend_factory(
      *f.model, ArchConfig{}, bcfg, f.calib);
  const auto profiles = slot_profiles();
  for (std::size_t s = 0; s < profiles.size(); ++s) {
    SCOPED_TRACE(profiles[s].name);
    const auto built = factory(core::ShardSlot{s, profiles[s]});
    auto& replica = dynamic_cast<ImarsBackend&>(*built);
    ImarsBackend direct(*f.model, ArchConfig{}, profiles[s], bcfg, f.calib);
    expect_same_fabric(replica.accelerator(), direct.accelerator());

    for (std::size_t u = 0; u < 6; ++u) {
      const auto ctx = f.model->make_context(*f.ds, u);
      const std::string who = "user " + std::to_string(u);

      StageStats fr, fd;
      const auto cands = replica.filter(ctx, &fr);
      EXPECT_EQ(cands, direct.filter(ctx, &fd)) << who;
      expect_same_stats(fr, fd, who + " filter");

      StageStats er, ed;
      const auto q = replica.signature_of(replica.user_embedding_hw(ctx, &er));
      EXPECT_EQ(q, direct.signature_of(direct.user_embedding_hw(ctx, &ed)));
      expect_same_stats(er, ed, who + " embedding");

      // Ranking ends in topk_ctr through each backend's own CTR buffer.
      std::vector<std::size_t> ranked = cands;
      if (ranked.empty()) ranked = {2, 11, 23, 37, 41};
      StageStats rr, rd;
      expect_same_ranking(replica.rank(ctx, ranked, 5, &rr),
                          direct.rank(ctx, ranked, 5, &rd));
      expect_same_stats(rr, rd, who + " rank");
    }
    expect_same_fabric(replica.accelerator(), direct.accelerator());
  }
}

TEST(ImarsCtrBackend, FactoryReplicasMatchDirectBackendsPerTechnology) {
  CtrFixture f;
  const auto timing = core::TimingMode::kActualPlacement;
  const auto factory =
      core::imars_ctr_backend_factory(*f.model, ArchConfig{}, timing, f.calib);
  const auto profiles = slot_profiles();
  for (std::size_t s = 0; s < profiles.size(); ++s) {
    SCOPED_TRACE(profiles[s].name);
    const auto built = factory(core::ShardSlot{s, profiles[s]});
    auto& replica = dynamic_cast<ImarsCtrBackend&>(*built);
    ImarsCtrBackend direct(*f.model, ArchConfig{}, profiles[s], timing,
                           f.calib);
    expect_same_fabric(replica.accelerator(), direct.accelerator());

    for (std::size_t i = 0; i < 10; ++i) {
      const auto& sample = f.ds->sample(i);
      const std::string who = "sample " + std::to_string(i);

      StageStats gr, gd, dr, dd, tr, td;
      const auto embs = replica.gather_tower(sample.sparse, &gr);
      EXPECT_EQ(embs, direct.gather_tower(sample.sparse, &gd)) << who;
      expect_same_stats(gr, gd, who + " gather");
      const auto bottom = replica.dense_tower(sample.dense, &dr);
      EXPECT_EQ(bottom, direct.dense_tower(sample.dense, &dd)) << who;
      expect_same_stats(dr, dd, who + " dense");
      EXPECT_EQ(replica.interact_top(embs, bottom, &tr),
                direct.interact_top(embs, bottom, &td))
          << who;
      expect_same_stats(tr, td, who + " interact");

      StageStats sr, sd;
      EXPECT_EQ(replica.score(sample.dense, sample.sparse, &sr),
                direct.score(sample.dense, sample.sparse, &sd))
          << who;
      expect_same_stats(sr, sd, who + " score");
    }
    expect_same_fabric(replica.accelerator(), direct.accelerator());
  }
}

// The factory is thread-safe: replicas requested from several threads at
// once share one image, whichever call builds it, and still behave like
// direct backends on their profiles.
TEST(ImarsCtrBackend, ConcurrentFactoryCallsMatchDirectBackends) {
  CtrFixture f;
  const auto timing = core::TimingMode::kActualPlacement;
  const auto factory =
      core::imars_ctr_backend_factory(*f.model, ArchConfig{}, timing, f.calib);
  const auto profiles = slot_profiles();
  std::vector<std::unique_ptr<recsys::CtrBackend>> built(profiles.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < profiles.size(); ++s)
      threads.emplace_back(
          [&, s] { built[s] = factory(core::ShardSlot{s, profiles[s]}); });
    for (auto& t : threads) t.join();
  }
  for (std::size_t s = 0; s < profiles.size(); ++s) {
    SCOPED_TRACE(profiles[s].name);
    ImarsCtrBackend direct(*f.model, ArchConfig{}, profiles[s], timing,
                           f.calib);
    for (std::size_t i = 0; i < 5; ++i) {
      const auto& sample = f.ds->sample(i);
      StageStats a, b;
      EXPECT_EQ(built[s]->score(sample.dense, sample.sparse, &a),
                direct.score(sample.dense, sample.sparse, &b));
      expect_same_stats(a, b, "sample " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace imars
