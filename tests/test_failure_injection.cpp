// Systematic failure injection: every checked precondition in the public
// API surfaces as imars::Error with a useful message, and recovery (catch
// and continue) leaves objects usable.
#include <gtest/gtest.h>

#include "adder/adder_tree.hpp"
#include "cma/cma.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/mapping.hpp"
#include "data/criteo.hpp"
#include "data/movielens.hpp"
#include "noc/controller.hpp"
#include "recsys/youtube_dnn.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using core::ArchConfig;
using core::ImarsAccelerator;
using device::DeviceProfile;
using tensor::Matrix;
using tensor::QMatrix;

QMatrix table_of(std::size_t rows, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return QMatrix::quantize(Matrix::randn(rows, 32, 0.5f, rng));
}

TEST(FailureInjection, ErrorMessagesCarryContext) {
  const auto profile = DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  cma::Cma array(profile, &ledger);
  try {
    array.write_row(999, util::BitVec(256));
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    // File:line prefix and the offending value must both appear.
    EXPECT_NE(what.find("cma.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("999"), std::string::npos) << what;
  }
}

TEST(FailureInjection, CmaRecoversAfterModeError) {
  const auto profile = DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  cma::Cma array(profile, &ledger);
  array.write_row_i8(0, std::vector<std::int8_t>(32, 1));
  array.set_mode(cma::Mode::kTcam);
  EXPECT_THROW((void)array.read_row(0), Error);
  // The array is still fully functional after the failed call.
  array.set_mode(cma::Mode::kRam);
  EXPECT_EQ(array.read_row_i8(0), std::vector<std::int8_t>(32, 1));
}

TEST(FailureInjection, AcceleratorRejectsThenContinues) {
  const auto profile = DeviceProfile::fefet45();
  ImarsAccelerator acc(ArchConfig{}, profile);
  const auto id = acc.load_uiet("t", table_of(100, 1));

  // Bad table id.
  const core::LookupRequest bad_table{id + 7, {0}, false};
  EXPECT_THROW((void)acc.lookup_pooled(std::span(&bad_table, 1),
                                       core::TimingMode::kActualPlacement,
                                       nullptr),
               Error);
  // Bad index.
  const core::LookupRequest bad_index{id, {100}, false};
  EXPECT_THROW((void)acc.lookup_pooled(std::span(&bad_index, 1),
                                       core::TimingMode::kActualPlacement,
                                       nullptr),
               Error);
  // NNS on a signature-less table.
  EXPECT_THROW((void)acc.nns(id, util::BitVec(256), 5, nullptr), Error);
  // Empty request list.
  EXPECT_THROW(
      (void)acc.lookup_pooled({}, core::TimingMode::kActualPlacement, nullptr),
      Error);

  // The machine still answers correct requests afterwards.
  const core::LookupRequest ok{id, {42}, false};
  const auto out = acc.lookup_pooled(std::span(&ok, 1),
                                     core::TimingMode::kActualPlacement,
                                     nullptr);
  EXPECT_EQ(out.size(), 1u);
}

TEST(FailureInjection, ItetSignatureValidation) {
  const auto profile = DeviceProfile::fefet45();
  ImarsAccelerator acc(ArchConfig{}, profile);
  const auto table = table_of(300, 2);

  // Wrong signature count.
  std::vector<util::BitVec> few(10, util::BitVec(256));
  EXPECT_THROW((void)acc.load_itet("ItET", table, few), Error);

  // Wrong signature width.
  std::vector<util::BitVec> wrong_width(300, util::BitVec(128));
  EXPECT_THROW((void)acc.load_itet("ItET", table, wrong_width), Error);
}

TEST(FailureInjection, MappingCapacityErrors) {
  ArchConfig tiny;
  tiny.banks = 2;
  tiny.mats_per_bank = 1;
  tiny.cmas_per_mat = 2;  // 512-row banks
  const core::EtMapping m(tiny);

  data::DatasetSchema schema;
  schema.user_item = {{"fits", 500, 1, data::StageUse::kShared},
                      {"too_big", 600, 1, data::StageUse::kShared}};
  EXPECT_THROW(m.map(schema), Error);

  schema.user_item[1].cardinality = 400;
  EXPECT_NO_THROW(m.map(schema));

  schema.user_item.push_back({"third", 10, 1, data::StageUse::kShared});
  EXPECT_THROW(m.map(schema), Error);  // out of banks
}

TEST(FailureInjection, AdderTreeInputValidation) {
  const auto profile = DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  const adder::IntraMatAdderTree mat_tree(profile, &ledger, 4);

  EXPECT_THROW((void)mat_tree.sum({}, nullptr), Error);
  const std::vector<adder::Lanes> too_many(5, adder::Lanes(32, 0));
  EXPECT_THROW((void)mat_tree.sum(too_many, nullptr), Error);
  const std::vector<adder::Lanes> ragged = {adder::Lanes(32, 0),
                                            adder::Lanes(31, 0)};
  EXPECT_THROW((void)mat_tree.sum(ragged, nullptr), Error);
}

TEST(FailureInjection, BackendContextValidation) {
  data::MovieLensConfig dcfg;
  dcfg.num_users = 50;
  dcfg.num_items = 60;
  dcfg.seed = 7;
  const data::MovieLensSynth ds(dcfg);
  recsys::YoutubeDnnConfig mcfg;  // default 32-d
  mcfg.seed = 8;
  recsys::YoutubeDnn model(ds.schema(), mcfg);

  // A malformed context (wrong sparse-feature count) is rejected before any
  // hardware state changes.
  recsys::UserContext broken = model.make_context(ds, 0);
  const std::size_t fewer = broken.sparse.size() - 1;
  recsys::FeatureIds ids(fewer, fewer);
  for (std::size_t f = 0; f < fewer; ++f) ids.fill_next(broken.sparse[f]);
  broken.sparse = std::move(ids);
  EXPECT_THROW((void)model.filter_input(broken), Error);
}

TEST(FailureInjection, StatsUnchangedOnFailedOp) {
  const auto profile = DeviceProfile::fefet45();
  ImarsAccelerator acc(ArchConfig{}, profile);
  const auto id = acc.load_uiet("t", table_of(100, 9));
  acc.reset_energy();

  // An out-of-range lookup throws before charging anything.
  const core::LookupRequest bad{id, {1000}, false};
  recsys::OpCost cost;
  EXPECT_THROW((void)acc.lookup_pooled(std::span(&bad, 1),
                                       core::TimingMode::kActualPlacement,
                                       &cost),
               Error);
  EXPECT_DOUBLE_EQ(cost.latency.value, 0.0);
  EXPECT_DOUBLE_EQ(cost.energy.value, 0.0);
  EXPECT_DOUBLE_EQ(acc.ledger().total().value, 0.0);
}

}  // namespace
}  // namespace imars
