// Unit + property tests for random-hyperplane LSH: determinism, collision
// probability theory, cosine-ordering preservation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "lsh/lsh.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace imars {
namespace {

using lsh::RandomHyperplaneLsh;
using tensor::Vector;

Vector random_unit(std::size_t dim, util::Xoshiro256& rng) {
  Vector v(dim);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  const float n = tensor::norm(v);
  for (auto& x : v) x /= n;
  return v;
}

TEST(Lsh, DeterministicForSameSeed) {
  RandomHyperplaneLsh a(8, 64, 123), b(8, 64, 123);
  util::Xoshiro256 rng(1);
  const Vector v = random_unit(8, rng);
  EXPECT_EQ(a.encode(v), b.encode(v));
}

TEST(Lsh, DiffersAcrossSeeds) {
  RandomHyperplaneLsh a(8, 64, 123), b(8, 64, 124);
  util::Xoshiro256 rng(2);
  const Vector v = random_unit(8, rng);
  EXPECT_NE(a.encode(v), b.encode(v));
}

TEST(Lsh, EncodeChecksDimension) {
  RandomHyperplaneLsh h(8, 16, 1);
  EXPECT_THROW(h.encode(Vector(7, 0.0f)), Error);
}

// encode() takes all the plane dots from one gemv; each bit must still be
// the sign test of that plane's own dot product. The planes are redrawn
// the way the constructor draws them: N(0, 1), seeded, bits x dim.
TEST(Lsh, EncodeIsPerPlaneSignOfDot) {
  for (const auto& [dim, bits] : {std::pair<std::size_t, std::size_t>{32, 256},
                                  std::pair<std::size_t, std::size_t>{8, 64},
                                  std::pair<std::size_t, std::size_t>{13, 7}}) {
    const RandomHyperplaneLsh h(dim, bits, 77);
    util::Xoshiro256 plane_rng(77);
    const tensor::Matrix planes =
        tensor::Matrix::randn(bits, dim, 1.0f, plane_rng);
    util::Xoshiro256 rng(dim + bits);
    std::vector<Vector> inputs{Vector(dim, 0.0f), Vector(dim, -0.0f)};
    for (int t = 0; t < 20; ++t) {
      Vector v = random_unit(dim, rng);
      for (auto& x : v)
        if (rng.below(4) == 0) x = 0.0f;
      inputs.push_back(v);
    }
    for (const Vector& v : inputs) {
      const util::BitVec sig = h.encode(v);
      for (std::size_t k = 0; k < bits; ++k)
        ASSERT_EQ(sig.get(k), tensor::dot(planes.row(k), v) >= 0.0f)
            << dim << "x" << bits << " bit " << k;
    }
  }
}

TEST(Lsh, IdenticalVectorsCollide) {
  RandomHyperplaneLsh h(16, 256, 7);
  util::Xoshiro256 rng(3);
  const Vector v = random_unit(16, rng);
  EXPECT_EQ(h.encode(v).hamming(h.encode(v)), 0u);
}

TEST(Lsh, ScalingInvariance) {
  RandomHyperplaneLsh h(16, 128, 9);
  util::Xoshiro256 rng(4);
  const Vector v = random_unit(16, rng);
  Vector scaled(v);
  for (auto& x : scaled) x *= 37.5f;
  EXPECT_EQ(h.encode(v), h.encode(scaled));
}

TEST(Lsh, OppositeVectorsAreComplement) {
  RandomHyperplaneLsh h(16, 128, 10);
  util::Xoshiro256 rng(5);
  const Vector v = random_unit(16, rng);
  Vector neg(v);
  for (auto& x : neg) x = -x;
  // sign(w.v) flips except exactly-zero dots (measure zero).
  EXPECT_EQ(h.encode(v).hamming(h.encode(neg)), h.bits());
}

// Property: E[hamming] = bits * theta / pi. Build vector pairs at a known
// angle and check the empirical mean across many plane draws.
class LshCollision : public ::testing::TestWithParam<double> {};

TEST_P(LshCollision, HammingMatchesAngleTheory) {
  const double theta = GetParam();
  const std::size_t dim = 24;
  const std::size_t bits = 256;

  util::Xoshiro256 rng(42);
  double total = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    RandomHyperplaneLsh h(dim, bits, 1000 + static_cast<std::uint64_t>(t));
    // Construct a pair at angle theta: v, and v rotated by theta in the
    // plane spanned by (v, u_perp).
    const Vector v = random_unit(dim, rng);
    Vector u = random_unit(dim, rng);
    const float proj = tensor::dot(u, v);
    for (std::size_t i = 0; i < dim; ++i) u[i] -= proj * v[i];
    const float un = tensor::norm(u);
    for (auto& x : u) x /= un;
    Vector w(dim);
    for (std::size_t i = 0; i < dim; ++i)
      w[i] = static_cast<float>(std::cos(theta)) * v[i] +
             static_cast<float>(std::sin(theta)) * u[i];
    total += static_cast<double>(h.encode(v).hamming(h.encode(w)));
  }
  const double mean = total / trials;
  const double expected = static_cast<double>(bits) * theta / std::numbers::pi;
  // Binomial stddev ~ sqrt(bits)/2 ~ 8; averaged over 40 trials ~ 1.3.
  EXPECT_NEAR(mean, expected, 6.0) << "theta = " << theta;
}

INSTANTIATE_TEST_SUITE_P(Angles, LshCollision,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8, 1.2, 1.6, 2.2,
                                           2.8));

// Property: Hamming distance preserves cosine *ordering* in expectation —
// the justification for the Sec III-B substitution. Spearman correlation
// between cosine distance and Hamming distance should be strongly positive.
TEST(Lsh, HammingPreservesCosineOrdering) {
  const std::size_t dim = 32;
  const std::size_t bits = 256;
  RandomHyperplaneLsh h(dim, bits, 77);
  util::Xoshiro256 rng(6);

  const Vector query = random_unit(dim, rng);
  const auto qsig = h.encode(query);

  std::vector<double> cos_dist, ham_dist;
  for (int i = 0; i < 200; ++i) {
    const Vector v = random_unit(dim, rng);
    cos_dist.push_back(1.0 - tensor::cosine(query, v));
    ham_dist.push_back(static_cast<double>(qsig.hamming(h.encode(v))));
  }
  // Random 32-d unit vectors cluster near 90 degrees, so per-pair Hamming
  // noise (sigma ~ 8 bits of 256) caps the rank correlation below 1.
  EXPECT_GT(util::spearman(cos_dist, ham_dist), 0.75);
}

// Longer signatures estimate angles with lower variance.
TEST(Lsh, LongerSignaturesReduceVariance) {
  const std::size_t dim = 16;
  util::Xoshiro256 rng(8);

  const auto variance_for = [&](std::size_t bits) {
    double sum = 0.0, sum2 = 0.0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
      RandomHyperplaneLsh h(dim, bits, 500 + static_cast<std::uint64_t>(t));
      const Vector a = random_unit(dim, rng);
      const Vector b = random_unit(dim, rng);
      const double frac =
          static_cast<double>(h.encode(a).hamming(h.encode(b))) /
          static_cast<double>(bits);
      sum += frac;
      sum2 += frac * frac;
    }
    return sum2 / trials - (sum / trials) * (sum / trials);
  };

  EXPECT_LT(variance_for(512), variance_for(32));
}

}  // namespace
}  // namespace imars
