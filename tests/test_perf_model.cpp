// Tests for the analytical performance model, including consistency with
// the functional machine and reproduction of the Table III iMARS numbers.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "core/calibration.hpp"
#include "core/mapping.hpp"
#include "core/perf_model.hpp"
#include "data/criteo.hpp"
#include "data/movielens.hpp"
#include "lsh/lsh.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using core::ArchConfig;
using core::EtLookupParams;
using core::PerfModel;
using device::DeviceProfile;
using tensor::Matrix;
using tensor::QMatrix;

struct Fixture {
  DeviceProfile profile = DeviceProfile::fefet45();
  ArchConfig arch;
  PerfModel model{arch, profile};
};

TEST(PerfModel, EtLookupMonotoneInEveryParameter) {
  Fixture f;
  EtLookupParams base;
  base.tables = 6;
  base.lookups_per_table = 8;
  base.mats_per_table = 1;
  base.active_cmas = 70;
  const auto c0 = f.model.et_lookup(base);

  auto more_lookups = base;
  more_lookups.lookups_per_table = 16;
  EXPECT_GT(f.model.et_lookup(more_lookups).latency.value, c0.latency.value);

  auto more_tables = base;
  more_tables.tables = 26;
  more_tables.active_cmas = 26 * 12;  // arrays scale with the tables touched
  // Banks are parallel: more tables only add RSC beats...
  EXPECT_GT(f.model.et_lookup(more_tables).latency.value, c0.latency.value);
  EXPECT_LT(f.model.et_lookup(more_tables).latency.value,
            2.0 * c0.latency.value);
  // ...but much more energy.
  EXPECT_GT(f.model.et_lookup(more_tables).energy.value, 1.5 * c0.energy.value);

  auto more_cmas = base;
  more_cmas.active_cmas = 2860;
  EXPECT_GT(f.model.et_lookup(more_cmas).energy.value, 10.0 * c0.energy.value);
  EXPECT_DOUBLE_EQ(f.model.et_lookup(more_cmas).latency.value,
                   c0.latency.value);  // peripherals cost energy, not time

  auto more_mats = base;
  more_mats.mats_per_table = 8;  // > fan-in 4: extra intra-bank rounds
  EXPECT_GT(f.model.et_lookup(more_mats).latency.value, c0.latency.value);
}

// Table III's iMARS ET lookups, composed as bench_paper composes them: the
// paper's worst case (core::kWorstCaseLookupsPerTable lookups collide in
// one array) over the arrays core::EtMapping maps. A MovieLens stage
// activates its UIETs plus the ItET (mapped last); Criteo hashes each of
// its 26 features to Table I's 28,000 rows. The expected values are the
// ones core/calibration.hpp derives and BENCH_paper.json records; each
// lookup past the first adds 18.4 ns, so the 1e-9 us tolerance fails for
// any other L.
struct TableIII : Fixture {
  TableIII() {
    const data::MovieLensSynth ml(data::MovieLensConfig{});  // 6040 x 3952
    ml_schema = ml.schema();
    ml_map = core::EtMapping(arch).map(ml_schema);
    data::DatasetSchema hashed =
        data::CriteoSynth(data::CriteoConfig{.num_samples = 1}).schema();
    for (auto& f : hashed.user_item) f.cardinality = 28000;
    cr_map = core::EtMapping(arch).map(hashed);
  }

  // The stage's tables and the arrays they activate.
  EtLookupParams ml_stage(bool filtering) const {
    const auto other_stage_only = filtering ? data::StageUse::kRankingOnly
                                            : data::StageUse::kFilteringOnly;
    EtLookupParams p;
    p.tables = ml_schema.uiet_count_for(filtering) + 1;
    p.lookups_per_table = core::kWorstCaseLookupsPerTable;
    p.mats_per_table = 1;
    p.active_cmas = ml_map.tables.back().total_cmas();
    for (std::size_t i = 0; i < ml_schema.user_item.size(); ++i)
      if (ml_schema.user_item[i].use != other_stage_only)
        p.active_cmas += ml_map.tables[i].total_cmas();
    return p;
  }

  EtLookupParams criteo() const {
    EtLookupParams p;
    p.tables = cr_map.tables.size();
    p.lookups_per_table = core::kWorstCaseLookupsPerTable;
    p.mats_per_table = cr_map.tables.front().mats;
    p.active_cmas = cr_map.active_cmas;
    return p;
  }

  data::DatasetSchema ml_schema;
  core::MappingReport ml_map, cr_map;
};

TEST(PerfModel, TableIIIMovieLensFilteringLatency) {
  const TableIII t;
  // Paper: 0.21 us.
  EXPECT_NEAR(t.model.et_lookup(t.ml_stage(true)).latency.us(), 0.2135, 1e-9);
}

TEST(PerfModel, TableIIIMovieLensRankingLatency) {
  const TableIII t;
  // Paper: 0.21 us.
  EXPECT_NEAR(t.model.et_lookup(t.ml_stage(false)).latency.us(), 0.2175,
              1e-9);
}

TEST(PerfModel, TableIIICriteoRankingLatency) {
  const TableIII t;
  // Paper: 0.24 us.
  EXPECT_NEAR(t.model.et_lookup(t.criteo()).latency.us(), 0.2935, 1e-9);
}

TEST(PerfModel, TableIIICriteoRankingEnergy) {
  const TableIII t;
  // Paper: 6.88 uJ; the peripheral calibration targets this point.
  EXPECT_NEAR(t.model.et_lookup(t.criteo()).energy.uj(), 6.9335318, 1e-9);
}

TEST(PerfModel, NnsIsO1InItems) {
  Fixture f;
  // Latency is one search regardless of array count; energy scales.
  EXPECT_DOUBLE_EQ(f.model.nns(16).latency.value,
                   f.model.nns(128).latency.value);
  EXPECT_LT(f.model.nns(16).energy.value, f.model.nns(128).energy.value);
  // Paper (Sec IV-C2): NNS latency ~ 6.97us / 3.8e4 ~ 0.18 ns + encode.
  EXPECT_LT(f.model.nns(16).latency.value, 2.0);
}

TEST(PerfModel, DnnTilesAndLatency) {
  Fixture f;
  // Paper filtering stack on 196-wide input: 3 layers, all single-tile.
  const std::size_t dims[] = {196, 128, 64, 32};
  const auto c = f.model.dnn(dims);
  // 3 x (matmul + per-layer overhead): calibrated to ~2.34 us (2.69x GPU).
  EXPECT_NEAR(c.latency.us(), 2.34, 0.1);
}

TEST(PerfModel, TopkScalesWithCandidates) {
  Fixture f;
  EXPECT_LT(f.model.topk(10, 5).latency.value,
            f.model.topk(100, 5).latency.value);
  // Paper's GPU top-k is ~5 us; iMARS stays well below 1 us at 20 scores.
  EXPECT_LT(f.model.topk(20, 10).latency.us(), 1.0);
}

// Cross-check: the analytical worst-case ET model equals the functional
// machine's worst-case accounting for a single-mat table.
TEST(PerfModel, MatchesFunctionalMachineWorstCase) {
  Fixture f;
  core::ImarsAccelerator acc(f.arch, f.profile);
  util::Xoshiro256 rng(5);
  const QMatrix table = QMatrix::quantize(Matrix::randn(500, 32, 0.5f, rng));
  const auto id = acc.load_uiet("t", table);
  acc.reset_energy();

  const std::size_t L = 8;
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < L; ++i) indices.push_back(i * 37 % 500);
  const core::LookupRequest req{id, indices, true};
  recsys::OpCost functional;
  (void)acc.lookup_pooled(std::span(&req, 1),
                          core::TimingMode::kWorstCaseSameArray, &functional);

  EtLookupParams p;
  p.tables = 1;
  p.lookups_per_table = L;
  p.mats_per_table = 1;
  p.active_cmas = 2;  // ceil(500/256)
  const auto analytic = f.model.et_lookup(p);

  EXPECT_NEAR(functional.latency.value, analytic.latency.value, 1e-6);
  EXPECT_NEAR(functional.energy.value, analytic.energy.value, 1e-6);
}

// Cross-check: one functional TCAM search over a MovieLens-sized ItET (3952
// entries, 16 signature arrays) charges exactly PerfModel::nns.
TEST(PerfModel, NnsMatchesFunctionalMachine) {
  Fixture f;
  core::ImarsAccelerator acc(f.arch, f.profile);
  util::Xoshiro256 rng(7);
  const QMatrix items = QMatrix::quantize(Matrix::randn(3952, 32, 0.5f, rng));
  const lsh::RandomHyperplaneLsh hasher(32, f.arch.lsh_bits, lsh::kLshSeed);
  const Matrix deq = items.dequantize();
  std::vector<util::BitVec> sigs;
  for (std::size_t r = 0; r < deq.rows(); ++r)
    sigs.push_back(hasher.encode(deq.row(r)));
  const auto id = acc.load_itet("ItET", items, sigs);
  ASSERT_EQ(acc.sig_cmas(id).size(), 16u);
  acc.reset_energy();

  tensor::Vector query(32);
  for (auto& x : query) x = static_cast<float>(rng.normal());
  recsys::OpCost functional;
  (void)acc.nns(id, hasher.encode(query), 96, &functional);

  const auto analytic = f.model.nns(acc.sig_cmas(id).size());
  EXPECT_EQ(functional.latency.value, analytic.latency.value);
  EXPECT_EQ(functional.energy.value, analytic.energy.value);
}

}  // namespace
}  // namespace imars
