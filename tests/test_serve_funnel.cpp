// Tests for the full-funnel servable (src/serve/servable_funnel.*):
// retrieval recall against the exact-NNS oracle, produced-item-set graph
// validation, placement invariance of the four-stage graph, and trace
// well-formedness of a funnel run.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "baseline/exact_nns.hpp"
#include "core/backend_factory.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/load_gen.hpp"
#include "serve/runtime.hpp"
#include "serve/servable_funnel.hpp"
#include "serve/stage_pipeline.hpp"
#include "serve/trace.hpp"
#include "serve_test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::FunnelConfig;
using serve::FunnelServable;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::PipelineSpec;
using serve::RetrievalKind;
using serve::ServingConfig;
using serve::ServingRuntime;
using serve::StageKind;
using serve::StageSpec;

struct FunnelFixture {
  FunnelFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 80;
    dcfg.num_items = 96;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 41;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 43;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(47);
    model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < ds->num_users(); ++u)
      users.push_back(model->make_context(*ds, u));

    cpu_cfg.candidates = 40;
    factory = core::cpu_backend_factory(*model, cpu_cfg);
  }

  std::vector<device::DeviceProfile> profiles(std::size_t shards) const {
    return std::vector<device::DeviceProfile>(shards,
                                              device::DeviceProfile::fefet45());
  }

  std::unique_ptr<ServingRuntime> runtime(FunnelConfig fcfg,
                                          std::size_t shards,
                                          ServingConfig cfg = {}) const {
    cfg.shards = shards;
    const auto profs = profiles(shards);
    auto servable = std::make_unique<FunnelServable>(
        *model, core::ArchConfig{}, factory, profs, std::move(fcfg));
    return std::make_unique<ServingRuntime>(std::move(servable), cfg,
                                            core::ArchConfig{},
                                            device::DeviceProfile::fefet45());
  }

  std::unique_ptr<data::MovieLensSynth> ds;
  std::unique_ptr<recsys::YoutubeDnn> model;
  std::vector<recsys::UserContext> users;
  baseline::CpuBackendConfig cpu_cfg;
  core::BackendFactory factory;
};

LoadGenConfig small_stream(std::size_t users) {
  LoadGenConfig lg;
  lg.clients = 6;
  lg.total_queries = 36;
  lg.num_users = users;
  lg.user_zipf_s = 0.8;
  return lg;
}

// --- Spec shapes and produced-item-set validation --------------------------

TEST(FunnelSpec, ConfigSelectsGraphShape) {
  FunnelConfig no_rerank;
  no_rerank.rerank = false;
  const auto three = FunnelServable::pipeline_spec(no_rerank);
  ASSERT_EQ(three.stages.size(), 3u);
  EXPECT_TRUE(three.stages[1].consume_items);
  EXPECT_EQ(three.resolve().output_stage, 2u);

  // Fixed retrieval changes only the retrieve stage's engine, not the
  // graph: without the re-rank it is the same three stages.
  FunnelConfig fixed = no_rerank;
  fixed.retrieval = RetrievalKind::kFixed;
  EXPECT_EQ(FunnelServable::pipeline_spec(fixed), three);

  const auto four = FunnelServable::pipeline_spec(FunnelConfig{});
  ASSERT_EQ(four.stages.size(), 4u);
  EXPECT_EQ(four.stages[2].emit_topk, FunnelConfig{}.rank_keep);
  const auto g = four.resolve();
  EXPECT_EQ(g.output_stage, 3u);                     // rerank merges
  ASSERT_EQ(g.item_sources[1], std::vector<std::size_t>{0u});  // filter<-retrieve
  ASSERT_EQ(g.item_sources[2], std::vector<std::size_t>{1u});  // rank<-filter
  ASSERT_EQ(g.item_sources[3], std::vector<std::size_t>{2u});  // rerank<-rank
}

TEST(FunnelSpec, ProducedItemSetValidation) {
  // emit_topk on a replicated stage is rejected.
  {
    PipelineSpec spec;
    StageSpec a{"a", StageKind::kReplicated, {}};
    a.emit_topk = 8;
    spec.stages = {a, {"b", StageKind::kSharded, {"a"}}};
    spec.merge_topk = true;
    EXPECT_THROW((void)spec.resolve(), Error);
  }
  // consume_items on a sharded stage is rejected.
  {
    PipelineSpec spec;
    StageSpec b{"b", StageKind::kSharded, {"a"}};
    b.consume_items = true;
    spec.stages = {{"a", StageKind::kReplicated, {}}, b};
    spec.merge_topk = true;
    EXPECT_THROW((void)spec.resolve(), Error);
  }
  // An emitting stage with no successor to consume its items is rejected.
  {
    PipelineSpec spec;
    StageSpec a{"a", StageKind::kSharded, {}};
    a.emit_topk = 8;
    spec.stages = {a, {"b", StageKind::kSharded, {}}};
    spec.merge_topk = true;
    EXPECT_THROW((void)spec.resolve(), Error);
  }
  // A consume_items stage with no producing predecessor is rejected.
  {
    PipelineSpec spec;
    StageSpec b{"b", StageKind::kReplicated, {}};
    b.consume_items = true;
    spec.stages = {b, {"c", StageKind::kSharded, {"b"}}};
    spec.merge_topk = true;
    EXPECT_THROW((void)spec.resolve(), Error);
  }
  // An emitting stage may not be the graph's output stage.
  {
    PipelineSpec spec;
    StageSpec b{"b", StageKind::kSharded, {"a"}};
    b.emit_topk = 8;
    spec.stages = {{"a", StageKind::kReplicated, {}}, b};
    spec.merge_topk = true;
    EXPECT_THROW((void)spec.resolve(), Error);
  }
}

// --- Retrieval recall against the exact-NNS oracle -------------------------

TEST(FunnelRetrieval, ExhaustiveIvfMatchesExactNns) {
  FunnelFixture fx;
  FunnelConfig fcfg;
  fcfg.retrieval = RetrievalKind::kIvf;
  fcfg.retrieve_k = 10;
  fcfg.ivf.nlist = 8;
  fcfg.ivf.nprobe = 8;  // probe everything: IVF degenerates to exact search
  const auto profs = fx.profiles(1);
  FunnelServable funnel(*fx.model, core::ArchConfig{}, fx.factory, profs,
                        fcfg);

  const auto& items = fx.model->item_table();
  for (std::size_t u = 0; u < 16; ++u) {
    const auto exact = baseline::topk_cosine(
        items, fx.model->user_embedding(fx.users[u]), fcfg.retrieve_k);
    const auto got = funnel.retrieval_candidates(fx.users[u]);
    const std::set<std::size_t> want(exact.begin(), exact.end());
    std::size_t hits = 0;
    for (std::size_t item : got) hits += want.count(item);
    EXPECT_EQ(hits, exact.size()) << "user " << u;
  }
}

TEST(FunnelRetrieval, AnnRecallAtKClearsGate) {
  FunnelFixture fx;
  const auto profs = fx.profiles(1);
  const auto& items = fx.model->item_table();
  const std::size_t k = 10;

  // A generous ANN budget (retrieve_k 4x the audit k) must clear the
  // funnel's recall@k gate on the seeded corpus.
  FunnelConfig fcfg;
  fcfg.retrieval = RetrievalKind::kIvf;
  fcfg.retrieve_k = 40;
  fcfg.ivf.nlist = 8;
  fcfg.ivf.nprobe = 4;
  FunnelServable funnel(*fx.model, core::ArchConfig{}, fx.factory, profs,
                        fcfg);
  std::size_t hits = 0, total = 0;
  for (std::size_t u = 0; u < 32; ++u) {
    const auto exact = baseline::topk_cosine(
        items, fx.model->user_embedding(fx.users[u]), k);
    const auto got = funnel.retrieval_candidates(fx.users[u]);
    const std::set<std::size_t> have(got.begin(), got.end());
    for (std::size_t item : exact) hits += have.count(item);
    total += exact.size();
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.95);
}

// --- Placement invariance of the four-stage graph --------------------------

TEST(Funnel, PlacementPermutationInvariance) {
  FunnelFixture fx;
  FunnelConfig fcfg;
  fcfg.retrieval = RetrievalKind::kIvf;
  fcfg.retrieve_k = 48;
  fcfg.filter_radius = 120;
  fcfg.rank_keep = 16;

  ServingConfig cfg;
  cfg.k = 5;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = Ns{500000.0};
  cfg.cache.capacity_rows = 256;

  auto run_with_shards = [&](std::size_t shards) {
    auto rt = fx.runtime(fcfg, shards, cfg);
    LoadGenerator gen(small_stream(fx.users.size()));
    return rt->run(gen, fx.users);
  };

  // The ShardMap is a disjoint cover: fabric size moves work, never results.
  const auto one = run_with_shards(1);
  const auto three = run_with_shards(3);
  const auto four = run_with_shards(4);
  serve_test::expect_results_identical(one, three);
  serve_test::expect_results_identical(one, four);

  // The re-rank really reordered by the float model: every reported score
  // is the reference CTR of its item.
  for (const auto& q : one.queries) {
    for (const auto& hit : q.topk)
      EXPECT_FLOAT_EQ(hit.score, fx.model->ctr(fx.users[q.user], hit.item))
          << "query " << q.id;
  }
}

// --- Trace well-formedness of a funnel run ---------------------------------

TEST(Funnel, FullFunnelTracePassesCheckWithMergeSpans) {
  FunnelFixture fx;
  FunnelConfig fcfg;
  fcfg.retrieval = RetrievalKind::kIvf;
  fcfg.retrieve_k = 48;
  fcfg.filter_radius = 120;
  fcfg.rank_keep = 16;

  ServingConfig cfg;
  cfg.k = 5;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait = Ns{500000.0};
  cfg.cache.capacity_rows = 256;

  auto rt = fx.runtime(fcfg, 3, cfg);
  serve::TraceLog trace;
  rt->set_observer(&trace);
  LoadGenerator gen(small_stream(fx.users.size()));
  const auto report = rt->run(gen, fx.users);
  ASSERT_EQ(report.size(), 36u);
  trace.finalize();

  const auto check = serve::check_trace(trace.events());
  for (const auto& p : check.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(check.ok);
  EXPECT_GT(check.unit_spans, 0u);
  EXPECT_GT(check.batch_spans, 0u);
  // Every query's rank stage emitted a produced item set -> merge spans.
  EXPECT_EQ(check.merge_spans, report.size());
}

}  // namespace
}  // namespace imars
