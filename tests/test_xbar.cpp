// Tests for the crossbar module: tile gemv vs integer oracle, tiling of
// larger matrices, XbarMlp quantized inference vs float reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "nn/mlp.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/xbar_mlp.hpp"

namespace imars {
namespace {

using device::Component;
using device::DeviceProfile;
using device::EnergyLedger;
using tensor::Matrix;
using tensor::QMatrix;
using tensor::Vector;

struct Fixture {
  DeviceProfile profile = DeviceProfile::fefet45();
  EnergyLedger ledger;
};

TEST(Crossbar, TileGeometry) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  EXPECT_EQ(xb.rows(), 256u);
  EXPECT_EQ(xb.cols(), 128u);
  EXPECT_EQ(xb.used_rows(), 0u);
  EXPECT_EQ(xb.used_cols(), 0u);
  xb.load_weights(QMatrix(13, 64, {}));
  EXPECT_EQ(xb.used_rows(), 13u);
  EXPECT_EQ(xb.used_cols(), 64u);
}

TEST(Crossbar, GemvMatchesIntegerOracle) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  util::Xoshiro256 rng(1);
  const Matrix w = Matrix::randn(64, 100, 1.0f, rng);  // fits in one tile
  const QMatrix wq = QMatrix::quantize(w);
  // Tile orientation: (input rows x output cols) = transpose of wq.
  QMatrix tile(100, 64, wq.params());
  for (std::size_t r = 0; r < 64; ++r)
    for (std::size_t c = 0; c < 100; ++c) tile.at(c, r) = wq.at(r, c);
  xb.load_weights(tile);

  std::vector<std::int8_t> in(100);
  for (auto& v : in)
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(200)) - 100);

  device::Ns lat{0.0};
  std::vector<std::int32_t> out(64, 0);
  xb.gemv(in, out, &lat);
  EXPECT_DOUBLE_EQ(lat.value, 225.0);

  for (std::size_t o = 0; o < 64; ++o) {
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < 100; ++i)
      acc += static_cast<std::int32_t>(wq.at(o, i)) * in[i];
    EXPECT_EQ(out[o], acc) << "output " << o;
  }
}

TEST(Crossbar, LoadRejectsOversizedBlock) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  EXPECT_THROW(xb.load_weights(QMatrix(300, 10, {})), Error);
  EXPECT_THROW(xb.load_weights(QMatrix(10, 200, {})), Error);
}

TEST(Crossbar, GemvChecksOccupiedShape) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  xb.load_weights(QMatrix(13, 5, {}));
  std::vector<std::int32_t> out(5, 0);
  EXPECT_THROW(xb.gemv(std::vector<std::int8_t>(256, 0), out, nullptr),
               Error);
  std::vector<std::int32_t> wide(128, 0);
  EXPECT_THROW(xb.gemv(std::vector<std::int8_t>(13, 0), wide, nullptr),
               Error);
}

TEST(Crossbar, GemvChargesOneMatmul) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  xb.load_weights(QMatrix(256, 128, {}));
  const auto before = f.ledger.ops(Component::kCrossbar);
  std::vector<std::int32_t> out(128, 0);
  xb.gemv(std::vector<std::int8_t>(256, 0), out, nullptr);
  EXPECT_EQ(f.ledger.ops(Component::kCrossbar), before + 1);
}

// ---------- Kernel vs the naive int32 loop, bit for bit ----------------------

// Random int8 values, or the saturated ones (+127, -127, -128) in turn.
std::int8_t draw_i8(bool saturated, std::size_t i, util::Xoshiro256& rng) {
  static constexpr std::int8_t kSat[] = {127, -128, -127, -128, 127};
  if (saturated) return kSat[(i + rng.below(2)) % 5];
  return static_cast<std::int8_t>(static_cast<int>(rng.below(256)) - 128);
}

bool same_i32(std::span<const std::int32_t> a,
              std::span<const std::int32_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(std::int32_t)) ==
             0;
}

enum class InputKind { kRandom, kZero, kSaturated };

std::vector<std::int8_t> make_input(InputKind kind, std::size_t n,
                                    util::Xoshiro256& rng) {
  std::vector<std::int8_t> in(n, 0);
  if (kind != InputKind::kZero)
    for (std::size_t i = 0; i < n; ++i)
      in[i] = draw_i8(kind == InputKind::kSaturated, i, rng);
  return in;
}

TEST(Crossbar, GemvMatchesNaiveLoopBitForBit) {
  Fixture f;
  for (const std::size_t rows : {1, 4, 13, 128, 256}) {
    for (const std::size_t cols : {1, 32, 64, 128}) {
      for (const bool sat_w : {false, true}) {
        util::Xoshiro256 rng(rows * 1000 + cols * 2 + sat_w);
        QMatrix w(rows, cols, {});
        for (std::size_t r = 0; r < rows; ++r)
          for (std::size_t c = 0; c < cols; ++c)
            w.at(r, c) = draw_i8(sat_w, r * cols + c, rng);
        xbar::Crossbar xb(f.profile, &f.ledger);
        xb.load_weights(w);
        for (const auto kind :
             {InputKind::kRandom, InputKind::kZero, InputKind::kSaturated}) {
          const auto in = make_input(kind, rows, rng);
          // gemv adds into out: start from arbitrary partial sums.
          std::vector<std::int32_t> out(cols);
          for (auto& v : out)
            v = static_cast<std::int32_t>(rng.below(2000001)) - 1000000;
          std::vector<std::int32_t> ref = out;
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
              ref[c] += static_cast<std::int32_t>(in[r]) * w.at(r, c);
          xb.gemv(in, out, nullptr);
          EXPECT_TRUE(same_i32(out, ref))
              << rows << "x" << cols << " sat_w " << sat_w << " input "
              << static_cast<int>(kind);
        }
      }
    }
  }
}

TEST(Crossbar, WeightReadsZeroOutsideOccupiedBlock) {
  Fixture f;
  xbar::Crossbar xb(f.profile, &f.ledger);
  QMatrix w(13, 5, {});
  for (std::size_t r = 0; r < 13; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      w.at(r, c) = static_cast<std::int8_t>(r * 5 + c + 1);
  xb.load_weights(w);
  for (std::size_t r = 0; r < xb.rows(); ++r)
    for (std::size_t c = 0; c < xb.cols(); ++c)
      ASSERT_EQ(xb.weight(r, c), r < 13 && c < 5 ? w.at(r, c) : 0)
          << r << "," << c;
  EXPECT_THROW((void)xb.weight(256, 0), Error);
  EXPECT_THROW((void)xb.weight(0, 128), Error);
}

// ---------- TiledMatVec -------------------------------------------------------

class TiledShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(TiledShapes, MatchesIntegerGemvOracle) {
  const auto [out_dim, in_dim] = GetParam();
  Fixture f;
  util::Xoshiro256 rng(7);
  const Matrix w = Matrix::randn(out_dim, in_dim, 1.0f, rng);
  const QMatrix wq = QMatrix::quantize(w);
  xbar::TiledMatVec tiled(f.profile, &f.ledger, wq);

  const std::size_t expected_tiles =
      ((in_dim + 255) / 256) * ((out_dim + 127) / 128);
  EXPECT_EQ(tiled.tile_count(), expected_tiles);

  std::vector<std::int8_t> in(in_dim);
  for (auto& v : in)
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(200)) - 100);

  device::Ns lat{0.0};
  std::vector<std::int32_t> out(out_dim, -1);  // gemv overwrites
  tiled.gemv(in, out, &lat);
  const auto oracle = tensor::gemv_i8(wq, in);
  EXPECT_EQ(out, oracle);
  // Tiles run in parallel: latency is one matmul + log2 merge of row tiles.
  EXPECT_GE(lat.value, 225.0);
  EXPECT_LT(lat.value, 225.0 + 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{16, 16},
                      std::pair<std::size_t, std::size_t>{128, 256},
                      std::pair<std::size_t, std::size_t>{130, 260},
                      std::pair<std::size_t, std::size_t>{1, 300},
                      std::pair<std::size_t, std::size_t>{383, 100},
                      std::pair<std::size_t, std::size_t>{64, 700}));

// The models' multi-tile layers: DLRM's top 383 -> 256 (2 x 2 tiles) and
// bottom 13 -> 256 (1 x 2), plus the ranking tower's 260 -> 128 (2 x 1).
TEST(TiledMatVec, ModelShapesMatchNaiveLoopBitForBit) {
  Fixture f;
  for (const auto& [out_dim, in_dim] :
       {std::pair<std::size_t, std::size_t>{256, 383},
        std::pair<std::size_t, std::size_t>{256, 13},
        std::pair<std::size_t, std::size_t>{128, 260}}) {
    for (const bool sat_w : {false, true}) {
      util::Xoshiro256 rng(out_dim * 1000 + in_dim + sat_w);
      QMatrix w(out_dim, in_dim, {});
      for (std::size_t o = 0; o < out_dim; ++o)
        for (std::size_t i = 0; i < in_dim; ++i)
          w.at(o, i) = draw_i8(sat_w, o * in_dim + i, rng);
      const xbar::TiledMatVec tiled(f.profile, &f.ledger, w);
      for (const auto kind :
           {InputKind::kRandom, InputKind::kZero, InputKind::kSaturated}) {
        const auto in = make_input(kind, in_dim, rng);
        std::vector<std::int32_t> ref(out_dim, 0);
        for (std::size_t o = 0; o < out_dim; ++o)
          for (std::size_t i = 0; i < in_dim; ++i)
            ref[o] += static_cast<std::int32_t>(w.at(o, i)) * in[i];
        std::vector<std::int32_t> out(out_dim, 12345);
        tiled.gemv(in, out, nullptr);
        EXPECT_TRUE(same_i32(out, ref))
            << out_dim << "x" << in_dim << " sat_w " << sat_w << " input "
            << static_cast<int>(kind);
      }
    }
  }
}

TEST(TiledMatVec, InputSizeChecked) {
  Fixture f;
  xbar::TiledMatVec tiled(f.profile, &f.ledger,
                          QMatrix(10, 20, util::QuantParams{0.1f}));
  std::vector<std::int32_t> out(10, 0);
  EXPECT_THROW(tiled.gemv(std::vector<std::int8_t>(19, 0), out, nullptr),
               Error);
  std::vector<std::int32_t> short_out(9, 0);
  EXPECT_THROW(tiled.gemv(std::vector<std::int8_t>(20, 0), short_out, nullptr),
               Error);
}

// ---------- XbarMlp -----------------------------------------------------------

TEST(XbarMlp, TracksFloatMlpWithinQuantizationError) {
  Fixture f;
  util::Xoshiro256 rng(11);
  nn::Mlp mlp({24, 32, 16, 8}, nn::Activation::kIdentity, rng);

  std::vector<Vector> calib;
  for (int i = 0; i < 16; ++i) {
    Vector v(24);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    calib.push_back(v);
  }
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  EXPECT_EQ(qmlp.in_dim(), 24u);
  EXPECT_EQ(qmlp.out_dim(), 8u);
  EXPECT_EQ(qmlp.layer_count(), 3u);

  // Compare on fresh inputs from the calibration distribution.
  double err = 0.0, mag = 0.0;
  for (int t = 0; t < 20; ++t) {
    Vector v(24);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const Vector ref = mlp.infer(v);
    const Vector got = qmlp.infer(v, nullptr);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      err += std::fabs(ref[i] - got[i]);
      mag += std::fabs(ref[i]);
    }
  }
  // Relative L1 error of int8 inference stays below ~10%.
  EXPECT_LT(err / mag, 0.10);
}

TEST(XbarMlp, SigmoidOutputStaysInUnitInterval) {
  Fixture f;
  util::Xoshiro256 rng(12);
  nn::Mlp mlp({10, 16, 1}, nn::Activation::kSigmoid, rng);
  std::vector<Vector> calib(4, Vector(10, 0.5f));
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  for (int t = 0; t < 10; ++t) {
    Vector v(10);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    const float y = qmlp.infer(v, nullptr)[0];
    EXPECT_GE(y, 0.0f);
    EXPECT_LE(y, 1.0f);
  }
}

TEST(XbarMlp, LatencyIncludesPerLayerOverhead) {
  Fixture f;
  util::Xoshiro256 rng(13);
  nn::Mlp mlp({8, 8, 8}, nn::Activation::kIdentity, rng);
  std::vector<Vector> calib(2, Vector(8, 0.25f));
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  device::Ns lat{0.0};
  (void)qmlp.infer(Vector(8, 0.1f), &lat);
  const double expected_min =
      2 * (f.profile.xbar_matmul.latency.value +
           f.profile.xbar_layer_overhead.value);
  EXPECT_GE(lat.value, expected_min - 1e-9);
}

TEST(XbarMlp, RequiresCalibration) {
  Fixture f;
  util::Xoshiro256 rng(14);
  nn::Mlp mlp({4, 4}, nn::Activation::kIdentity, rng);
  EXPECT_THROW(xbar::XbarMlp(f.profile, &f.ledger, mlp, {}), Error);
}

TEST(XbarMlp, RejectsNonFiniteInput) {
  Fixture f;
  util::Xoshiro256 rng(16);
  nn::Mlp mlp({6, 8, 1}, nn::Activation::kSigmoid, rng);
  std::vector<Vector> calib(2, Vector(6, 0.5f));
  const xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    Vector v(6, 0.25f);
    v[3] = bad;
    EXPECT_THROW((void)qmlp.infer(v, nullptr), Error) << bad;
  }
  EXPECT_NO_THROW((void)qmlp.infer(Vector(6, 0.25f), nullptr));
}

TEST(XbarMlp, TileCountMatchesAnalyticFormula) {
  Fixture f;
  util::Xoshiro256 rng(15);
  // Layer (196 -> 128): 1 row tile x 1 col tile; (128 -> 64): 1x1;
  // (64 -> 32): 1x1. Then a wide layer (383 -> 256): 2x2 = 4.
  nn::Mlp mlp({383, 256, 64}, nn::Activation::kIdentity, rng);
  std::vector<Vector> calib(2, Vector(383, 0.1f));
  xbar::XbarMlp qmlp(f.profile, &f.ledger, mlp, calib);
  EXPECT_EQ(qmlp.tile_count(), 2u * 2u + 1u * 1u);
}

}  // namespace
}  // namespace imars
