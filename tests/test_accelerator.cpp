// Tests for the functional iMARS machine: table loading, pooled lookups vs
// an integer oracle, the TCAM NNS vs brute force, CTR-buffer top-k, timing
// modes and energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <type_traits>

#include "core/accelerator.hpp"
#include "core/calibration.hpp"
#include "lsh/lsh.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using core::ArchConfig;
using core::ImarsAccelerator;
using core::LookupRequest;
using core::TimingMode;
using device::Component;
using device::DeviceProfile;
using tensor::Matrix;
using tensor::QMatrix;

QMatrix random_table(std::size_t rows, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return QMatrix::quantize(Matrix::randn(rows, 32, 0.5f, rng));
}

struct Fixture {
  DeviceProfile profile = DeviceProfile::fefet45();
  ArchConfig arch;
  ImarsAccelerator acc{arch, profile};
};

// The RSC bus, IBC network, controller, adder trees and every CMA point at
// the accelerator's own profile and ledger, so a copy or move would leave
// them dangling. A second accelerator is made with the replica constructor.
static_assert(!std::is_copy_constructible_v<ImarsAccelerator>);
static_assert(!std::is_move_constructible_v<ImarsAccelerator>);
static_assert(!std::is_copy_assignable_v<ImarsAccelerator>);
static_assert(!std::is_move_assignable_v<ImarsAccelerator>);

TEST(Accelerator, GeometryChecks) {
  DeviceProfile profile = DeviceProfile::fefet45();
  ArchConfig bad;
  bad.cma_rows = 128;  // mismatch with profile
  EXPECT_THROW(ImarsAccelerator(bad, profile), Error);

  ArchConfig bad2;
  bad2.lsh_bits = 512;  // functional machine caps at one CMA width
  EXPECT_THROW(ImarsAccelerator(bad2, profile), Error);
}

TEST(Accelerator, LoadUietCensus) {
  Fixture f;
  const auto t0 = f.acc.load_uiet("small", random_table(100, 1));
  const auto t1 = f.acc.load_uiet("big", random_table(6040, 2));
  EXPECT_EQ(t0, 0u);
  EXPECT_EQ(t1, 1u);
  EXPECT_EQ(f.acc.table_count(), 2u);
  EXPECT_EQ(f.acc.table_rows(0), 100u);
  EXPECT_EQ(f.acc.table_rows(1), 6040u);
  EXPECT_EQ(f.acc.active_banks(), 2u);
  EXPECT_EQ(f.acc.active_cmas(), 1u + 24u);  // ceil(100/256) + ceil(6040/256)
  EXPECT_EQ(f.acc.active_mats(), 2u);
}

TEST(Accelerator, LoadRejectsOversize) {
  Fixture f;
  // One bank holds M*C*R = 4*32*256 = 32768 rows.
  EXPECT_THROW(f.acc.load_uiet("huge", random_table(40000, 3)), Error);
}

TEST(Accelerator, LoadRejectsWrongDim) {
  Fixture f;
  util::Xoshiro256 rng(4);
  const QMatrix narrow = QMatrix::quantize(Matrix::randn(10, 16, 1.0f, rng));
  EXPECT_THROW(f.acc.load_uiet("narrow", narrow), Error);
}

TEST(Accelerator, OutOfBanksThrows) {
  DeviceProfile profile = DeviceProfile::fefet45();
  ArchConfig arch;
  arch.banks = 1;
  ImarsAccelerator acc(arch, profile);
  acc.load_uiet("a", random_table(10, 5));
  EXPECT_THROW(acc.load_uiet("b", random_table(10, 6)), Error);
}

// ---------- lookup + pool ----------------------------------------------------

TEST(Accelerator, SingleLookupMatchesTable) {
  Fixture f;
  const QMatrix table = random_table(500, 7);
  const auto id = f.acc.load_uiet("t", table);
  f.acc.reset_energy();

  for (std::size_t row : {0ul, 255ul, 256ul, 499ul}) {
    const LookupRequest req{id, {row}, false};
    recsys::OpCost cost;
    const auto out = f.acc.lookup_pooled(std::span(&req, 1),
                                         TimingMode::kActualPlacement, &cost);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0].scale, table.params().scale);
    for (std::size_t c = 0; c < 32; ++c)
      EXPECT_EQ(out[0].lanes[c], static_cast<std::int32_t>(table.at(row, c)));
    EXPECT_GT(cost.latency.value, 0.0);
    EXPECT_GT(cost.energy.value, 0.0);
  }
}

TEST(Accelerator, PooledLookupEqualsIntegerSum) {
  Fixture f;
  const QMatrix table = random_table(1000, 8);
  const auto id = f.acc.load_uiet("t", table);

  util::Xoshiro256 rng(9);
  std::vector<std::size_t> indices;
  for (int i = 0; i < 17; ++i) indices.push_back(rng.below(1000));

  const LookupRequest req{id, indices, true};
  const auto out = f.acc.lookup_pooled(std::span(&req, 1),
                                       TimingMode::kActualPlacement, nullptr);
  std::vector<std::int32_t> expected(32, 0);
  for (auto idx : indices)
    for (std::size_t c = 0; c < 32; ++c)
      expected[c] += static_cast<std::int32_t>(table.at(idx, c));
  EXPECT_EQ(out[0].lanes, expected);
  EXPECT_EQ(out[0].count, indices.size());
  EXPECT_TRUE(out[0].mean_pool);

  // Dequantized mean = scale * sum / n.
  const auto v = out[0].dequantized();
  EXPECT_NEAR(v[0],
              table.params().scale * static_cast<float>(expected[0]) / 17.0f,
              1e-6f);
}

TEST(Accelerator, MultiBankLatencyIsMaxPlusBus) {
  Fixture f;
  const auto id0 = f.acc.load_uiet("a", random_table(300, 10));
  const auto id1 = f.acc.load_uiet("b", random_table(300, 11));
  f.acc.reset_energy();

  const std::vector<LookupRequest> one = {{id0, {5}, false}};
  recsys::OpCost c1;
  (void)f.acc.lookup_pooled(one, TimingMode::kActualPlacement, &c1);

  const std::vector<LookupRequest> two = {{id0, {5}, false}, {id1, {7}, false}};
  recsys::OpCost c2;
  (void)f.acc.lookup_pooled(two, TimingMode::kActualPlacement, &c2);

  // Banks in parallel: two banks cost only one extra RSC beat, not 2x.
  EXPECT_LT(c2.latency.value, 1.5 * c1.latency.value);
  EXPECT_GT(c2.latency.value, c1.latency.value);
}

TEST(Accelerator, WorstCaseTimingDominatesActual) {
  Fixture f;
  const auto id = f.acc.load_uiet("t", random_table(2000, 12));
  // Spread indices across CMAs: actual placement parallelizes them, the
  // worst-case model serializes read+write+add chains.
  std::vector<std::size_t> indices = {0, 300, 600, 900, 1200, 1500, 1800, 1999};
  const LookupRequest req{id, indices, true};

  recsys::OpCost actual, worst;
  (void)f.acc.lookup_pooled(std::span(&req, 1), TimingMode::kActualPlacement,
                            &actual);
  (void)f.acc.lookup_pooled(std::span(&req, 1),
                            TimingMode::kWorstCaseSameArray, &worst);
  EXPECT_GT(worst.latency.value, actual.latency.value);

  // Functional result is identical in both modes.
  const auto a = f.acc.lookup_pooled(std::span(&req, 1),
                                     TimingMode::kActualPlacement, nullptr);
  const auto w = f.acc.lookup_pooled(std::span(&req, 1),
                                     TimingMode::kWorstCaseSameArray, nullptr);
  EXPECT_EQ(a[0].lanes, w[0].lanes);
}

TEST(Accelerator, LookupOutOfRangeThrows) {
  Fixture f;
  const auto id = f.acc.load_uiet("t", random_table(100, 13));
  const LookupRequest req{id, {100}, false};
  EXPECT_THROW((void)f.acc.lookup_pooled(std::span(&req, 1),
                                         TimingMode::kActualPlacement, nullptr),
               Error);
  const LookupRequest empty{id, {}, false};
  EXPECT_THROW((void)f.acc.lookup_pooled(std::span(&empty, 1),
                                         TimingMode::kActualPlacement, nullptr),
               Error);
}

TEST(Accelerator, PeripheralEnergyScalesWithActiveArrays) {
  Fixture f;
  const auto small = f.acc.load_uiet("small", random_table(100, 14));   // 1 CMA
  const auto big = f.acc.load_uiet("big", random_table(6000, 15));      // 24 CMAs
  f.acc.reset_energy();

  const LookupRequest rs{small, {3}, false};
  recsys::OpCost cs;
  (void)f.acc.lookup_pooled(std::span(&rs, 1), TimingMode::kActualPlacement, &cs);

  const LookupRequest rb{big, {3}, false};
  recsys::OpCost cb;
  (void)f.acc.lookup_pooled(std::span(&rb, 1), TimingMode::kActualPlacement, &cb);

  // Same op on a 24x bigger table costs ~24x the peripheral energy.
  EXPECT_GT(cb.energy.value, 10.0 * cs.energy.value);
}

TEST(Accelerator, ReadRowMatchesTable) {
  Fixture f;
  const QMatrix table = random_table(700, 16);
  const auto id = f.acc.load_uiet("t", table);
  recsys::OpCost cost;
  const auto out = f.acc.read_row(id, 650, &cost);
  for (std::size_t c = 0; c < 32; ++c)
    EXPECT_EQ(out.lanes[c], static_cast<std::int32_t>(table.at(650, c)));
  EXPECT_GT(cost.latency.value, 0.0);
  EXPECT_THROW((void)f.acc.read_row(id, 700, nullptr), Error);
}

// ---------- NNS ----------------------------------------------------------------

TEST(Accelerator, NnsMatchesBruteForceHamming) {
  Fixture f;
  const QMatrix table = random_table(900, 17);
  const lsh::RandomHyperplaneLsh hasher(32, 256, 99);
  const Matrix deq = table.dequantize();
  std::vector<util::BitVec> sigs;
  for (std::size_t r = 0; r < deq.rows(); ++r)
    sigs.push_back(hasher.encode(deq.row(r)));
  const auto id = f.acc.load_itet("ItET", table, sigs);
  f.acc.reset_energy();

  util::Xoshiro256 rng(18);
  for (std::size_t radius : {64ul, 96ul, 120ul}) {
    tensor::Vector q(32);
    for (auto& x : q) x = static_cast<float>(rng.normal());
    const auto qsig = hasher.encode(q);

    recsys::OpCost cost;
    const auto got = f.acc.nns(id, qsig, radius, &cost);
    const auto expected = [&] {
      std::vector<std::size_t> out;
      for (std::size_t r = 0; r < sigs.size(); ++r)
        if (sigs[r].hamming(qsig) <= radius) out.push_back(r);
      return out;
    }();
    EXPECT_EQ(got, expected) << "radius " << radius;
    // O(1) search: latency is search + encode, independent of row count.
    EXPECT_LT(cost.latency.value, 2.0);
  }
}

TEST(Accelerator, NnsRequiresSignatures) {
  Fixture f;
  const auto id = f.acc.load_uiet("t", random_table(100, 19));
  EXPECT_THROW((void)f.acc.nns(id, util::BitVec(256), 10, nullptr), Error);
}

TEST(Accelerator, NnsEnergyCountsAllSignatureArrays) {
  Fixture f;
  const QMatrix table = random_table(900, 20);  // 4 data CMAs -> 4 sig CMAs
  const lsh::RandomHyperplaneLsh hasher(32, 256, 98);
  const Matrix deq = table.dequantize();
  std::vector<util::BitVec> sigs;
  for (std::size_t r = 0; r < deq.rows(); ++r)
    sigs.push_back(hasher.encode(deq.row(r)));
  const auto id = f.acc.load_itet("ItET", table, sigs);
  f.acc.reset_energy();

  recsys::OpCost cost;
  (void)f.acc.nns(id, sigs[0], 5, &cost);
  // 4 searched arrays at 13.8 pJ each, plus periphery.
  EXPECT_GE(cost.energy.value, 4 * 13.8);
  EXPECT_EQ(f.acc.ledger().ops(Component::kCmaSearch), 4u);
}

// ---------- top-k -----------------------------------------------------------------

TEST(Accelerator, TopkCtrSelectsHighestScores) {
  Fixture f;
  const std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f, 0.2f, 0.95f};
  recsys::OpCost cost;
  const auto top = f.acc.topk_ctr(scores, 3, &cost);
  EXPECT_EQ(top, (std::vector<std::size_t>{5, 1, 3}));
  EXPECT_GT(cost.latency.value, 0.0);
}

TEST(Accelerator, TopkCtrHandlesKLargerThanN) {
  Fixture f;
  const std::vector<float> scores = {0.3f, 0.6f};
  const auto top = f.acc.topk_ctr(scores, 10, nullptr);
  EXPECT_EQ(top, (std::vector<std::size_t>{1, 0}));
}

TEST(Accelerator, TopkCtrRejectsOversizedBatch) {
  Fixture f;
  const std::vector<float> scores(300, 0.5f);  // > 256 CTR-buffer rows
  EXPECT_THROW((void)f.acc.topk_ctr(scores, 5, nullptr), Error);
}

TEST(Accelerator, TopkCtrQuantizedTiesKeepIndexOrder) {
  Fixture f;
  // Scores closer than 1/256 quantize to the same thermometer code; the
  // final host-side sort on raw scores still orders them deterministically.
  const std::vector<float> scores = {0.5f, 0.5f + 1e-6f, 0.4f};
  const auto top = f.acc.topk_ctr(scores, 2, nullptr);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 0u);
}

TEST(Accelerator, ResetEnergyClearsLedger) {
  Fixture f;
  (void)f.acc.load_uiet("t", random_table(100, 21));
  EXPECT_GT(f.acc.ledger().total().value, 0.0);
  f.acc.reset_energy();
  EXPECT_DOUBLE_EQ(f.acc.ledger().total().value, 0.0);
}

// ---------- replicas ---------------------------------------------------------

TEST(Accelerator, ReplicaServesTheImageTablesOnItsOwnFabric) {
  auto image = std::make_unique<Fixture>();
  const QMatrix table = random_table(900, 22);
  const lsh::RandomHyperplaneLsh hasher(32, 256, 97);
  const Matrix deq = table.dequantize();
  std::vector<util::BitVec> sigs;
  for (std::size_t r = 0; r < deq.rows(); ++r)
    sigs.push_back(hasher.encode(deq.row(r)));
  const auto uiet = image->acc.load_uiet("UIET", random_table(300, 23));
  const auto itet = image->acc.load_itet("ItET", table, sigs);
  image->acc.reset_energy();

  const DeviceProfile reram = DeviceProfile::reram45();
  ImarsAccelerator replica(image->acc, reram);
  // Answers and costs must not lean on the image once the replica exists.
  image.reset();

  EXPECT_EQ(replica.table_count(), 2u);
  EXPECT_EQ(replica.table_rows(itet), 900u);
  EXPECT_EQ(replica.active_cmas(), 2u + 4u + 4u);
  EXPECT_DOUBLE_EQ(replica.ledger().total().value, 0.0);
  EXPECT_EQ(replica.sig_cmas(itet).size(), 4u);
  for (const auto& a : replica.sig_cmas(itet))
    EXPECT_EQ(a.mode(), cma::Mode::kTcam);
  EXPECT_TRUE(replica.sig_cmas(uiet).empty());

  recsys::OpCost cost;
  const auto got = replica.nns(itet, sigs[7], 40, &cost);
  std::vector<std::size_t> expected;
  for (std::size_t r = 0; r < sigs.size(); ++r)
    if (sigs[r].hamming(sigs[7]) <= 40) expected.push_back(r);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(replica.ledger().ops(Component::kCmaSearch), 4u);
  EXPECT_DOUBLE_EQ(replica.ledger().energy(Component::kCmaSearch).value,
                   4.0 * reram.cma_search.energy.value);

  const auto row = replica.read_row(itet, 650, nullptr);
  for (std::size_t c = 0; c < 32; ++c)
    EXPECT_EQ(row.lanes[c], static_cast<std::int32_t>(table.at(650, c)));
}

TEST(Accelerator, ReplicaRejectsAProfileOfAnotherGeometry) {
  Fixture f;
  DeviceProfile narrow = DeviceProfile::fefet45();
  narrow.cma_rows = 128;
  EXPECT_THROW(ImarsAccelerator(f.acc, narrow), Error);
}

}  // namespace
}  // namespace imars
