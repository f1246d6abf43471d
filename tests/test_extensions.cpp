// Tests for the extension features: model serialization, the 22nm profile,
// and the throughput model.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "core/throughput.hpp"
#include "device/profile.hpp"
#include "nn/serialize.hpp"
#include "tensor/qtensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using device::DeviceProfile;
using tensor::Matrix;
using tensor::QMatrix;
using tensor::Vector;

// ---------- serialization ----------------------------------------------------

TEST(Serialize, MatrixRoundTrip) {
  util::Xoshiro256 rng(1);
  const Matrix m = Matrix::randn(7, 13, 1.0f, rng);
  std::stringstream ss;
  nn::save(ss, m);
  const Matrix back = nn::load_matrix(ss);
  EXPECT_EQ(back, m);
}

TEST(Serialize, MlpRoundTripPreservesInference) {
  util::Xoshiro256 rng(3);
  nn::Mlp mlp({6, 10, 4, 2}, nn::Activation::kSigmoid, rng);
  std::stringstream ss;
  nn::save(ss, mlp);
  nn::Mlp back = nn::load_mlp(ss);

  EXPECT_EQ(back.dims(), mlp.dims());
  EXPECT_EQ(back.layer(2).activation(), nn::Activation::kSigmoid);
  EXPECT_EQ(back.layer(0).activation(), nn::Activation::kRelu);

  Vector x(6);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const Vector a = mlp.infer(x);
  const Vector b = back.infer(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(Serialize, EmbeddingTableRoundTrip) {
  util::Xoshiro256 rng(4);
  nn::EmbeddingTable t(9, 5, rng);
  std::stringstream ss;
  nn::save(ss, t);
  nn::EmbeddingTable back = nn::load_embedding_table(ss);
  EXPECT_EQ(back.rows(), t.rows());
  EXPECT_EQ(back.dim(), t.dim());
  EXPECT_EQ(back.dense(), t.dense());
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream ss;
  ss << "garbage bytes here and more of them";
  EXPECT_THROW((void)nn::load_matrix(ss), Error);
}

TEST(Serialize, TruncatedStreamThrows) {
  util::Xoshiro256 rng(5);
  const Matrix m = Matrix::randn(16, 16, 1.0f, rng);
  std::stringstream ss;
  nn::save(ss, m);
  const std::string whole = ss.str();
  std::stringstream cut(whole.substr(0, whole.size() / 2));
  EXPECT_THROW((void)nn::load_matrix(cut), Error);
}

TEST(Serialize, WrongObjectTypeThrows) {
  util::Xoshiro256 rng(6);
  nn::Mlp mlp({3, 2}, nn::Activation::kIdentity, rng);
  std::stringstream ss;
  nn::save(ss, mlp);
  EXPECT_THROW((void)nn::load_matrix(ss), Error);  // expects ITMX magic
}

// A rows x cols that wraps size_t (2^32 x 2^32 is 0 mod 2^64) used to build
// a matrix reporting 2^32 rows over no storage, and a loader then wrote its
// rows through a null pointer. Both constructors and the loader reject it.
TEST(Serialize, OverflowingShapeIsRejected) {
  const std::uint64_t big = std::uint64_t{1} << 32;
  EXPECT_THROW(Matrix(big, big), Error);
  EXPECT_THROW(Matrix(big, big, {}), Error);
  EXPECT_THROW(QMatrix(big, big, util::QuantParams{}), Error);

  // A saved 1 x 1 object whose header then claims 2^32 x 2^32: the shape
  // follows the 4-byte magic and 4-byte version.
  const auto with_big_shape = [&](std::string bytes) {
    std::memcpy(bytes.data() + 8, &big, sizeof big);
    std::memcpy(bytes.data() + 16, &big, sizeof big);
    return std::stringstream(bytes);
  };
  std::stringstream m;
  nn::save(m, Matrix(1, 1));
  auto bad_m = with_big_shape(m.str());
  EXPECT_THROW((void)nn::load_matrix(bad_m), Error);
}

// ---------- 22nm profile ----------------------------------------------------------

TEST(Fefet22, ScalesDownFrom45nm) {
  const auto p45 = DeviceProfile::fefet45();
  const auto p22 = DeviceProfile::fefet22();
  EXPECT_LT(p22.cma_read.energy.value, p45.cma_read.energy.value);
  EXPECT_LT(p22.cma_search.latency.value, p45.cma_search.latency.value);
  EXPECT_LT(p22.cma_area, 0.3);
  // Same geometry: drop-in replacement for the 45nm point.
  EXPECT_EQ(p22.cma_rows, p45.cma_rows);
  EXPECT_EQ(p22.xbar_cols, p45.xbar_cols);
}

// ---------- throughput model --------------------------------------------------------

TEST(Throughput, SerialAndPipelinedBounds) {
  core::StageTimes t;
  t.filter = device::Ns{3000.0};   // 3 us
  t.rank = device::Ns{40000.0};    // 40 us
  t.shared_et = device::Ns{1000.0};

  EXPECT_NEAR(core::qps_serial(t), 1e9 / 43000.0, 1e-6);
  // Steady-state initiation interval = the busiest resource. The stage
  // totals already contain their ET portions, so the bottleneck here is
  // the 40 us rank stage, not 40 us + the (already-counted) ET time.
  EXPECT_NEAR(core::qps_pipelined(t), 1e9 / 40000.0, 1e-6);
  EXPECT_GT(core::pipeline_speedup(t), 1.0);
  // Pipelining saturates — but can never beat — the bottleneck stage.
  EXPECT_DOUBLE_EQ(core::qps_pipelined(t), 1e9 / t.rank.value);
}

// Regression for the degenerate accounting bench_throughput exposed: the
// old model added shared_et ON TOP of the slower stage (double-counting
// the ET time inside the stage totals) and clamped to serial, so any
// query with shared_et >= min(filter, rank) reported speedup exactly 1.
TEST(Throughput, SharedEtAboveSmallerStageStillGains) {
  core::StageTimes t;
  t.filter = device::Ns{3000.0};
  t.rank = device::Ns{40000.0};
  t.shared_et = device::Ns{5000.0};  // >= filter: old model pinned at 1
  EXPECT_NEAR(core::qps_pipelined(t), 1e9 / 40000.0, 1e-6);
  EXPECT_NEAR(core::pipeline_speedup(t), 43000.0 / 40000.0, 1e-9);
}

// Pure ET-bank queries cannot pipeline (the shared banks serialize
// everything); the speedup degenerates to exactly 1, never below.
TEST(Throughput, PureEtTimeCannotPipeline) {
  core::StageTimes t;
  t.filter = device::Ns{6000.0};
  t.rank = device::Ns{4000.0};
  t.shared_et = device::Ns{10000.0};  // == filter + rank: all ET time
  EXPECT_NEAR(core::pipeline_speedup(t), 1.0, 1e-12);
}

TEST(Throughput, BalancedStagesGainMost) {
  core::StageTimes balanced{device::Ns{10000.0}, device::Ns{10000.0},
                            device::Ns{0.0}};
  core::StageTimes skewed{device::Ns{1000.0}, device::Ns{19000.0},
                          device::Ns{0.0}};
  EXPECT_NEAR(core::pipeline_speedup(balanced), 2.0, 1e-9);
  EXPECT_LT(core::pipeline_speedup(skewed), 1.1);
}

TEST(Throughput, ZeroTimesAreSafe) {
  core::StageTimes t{};
  EXPECT_EQ(core::qps_serial(t), 0.0);
  EXPECT_EQ(core::qps_pipelined(t), 0.0);
}

}  // namespace
}  // namespace imars
