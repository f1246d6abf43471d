// Tests for the IVF approximate-NNS index.
#include <gtest/gtest.h>

#include "baseline/exact_nns.hpp"
#include "baseline/ivf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using baseline::IvfIndex;
using tensor::Matrix;
using tensor::Vector;

Matrix random_items(std::size_t n, std::size_t dim, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return Matrix::randn(n, dim, 1.0f, rng);
}

// ---------- IVF ---------------------------------------------------------------

TEST(Ivf, EveryItemLandsInExactlyOneList) {
  const Matrix items = random_items(500, 16, 1);
  IvfIndex::Config cfg;
  cfg.nlist = 8;
  cfg.nprobe = 2;
  const IvfIndex index(items, cfg);
  const auto sizes = index.list_sizes();
  std::size_t total = 0;
  for (auto s : sizes) total += s;
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(index.size(), 500u);
}

TEST(Ivf, FullProbeEqualsExactSearch) {
  const Matrix items = random_items(300, 12, 2);
  IvfIndex::Config cfg;
  cfg.nlist = 10;
  cfg.nprobe = 10;  // scan everything
  const IvfIndex index(items, cfg);

  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Vector q(12);
    for (auto& x : q) x = static_cast<float>(rng.normal());
    const auto approx = index.search(q, 8);
    const auto exact = baseline::topk_cosine(items, q, 8);
    EXPECT_EQ(approx, exact) << "trial " << trial;
  }
}

TEST(Ivf, RecallImprovesWithProbes) {
  const Matrix items = random_items(2000, 24, 4);
  IvfIndex::Config cfg;
  cfg.nlist = 32;
  cfg.nprobe = 1;
  const IvfIndex index(items, cfg);

  util::Xoshiro256 rng(5);
  const std::size_t k = 10;
  double recall1 = 0.0, recall8 = 0.0, recall32 = 0.0;
  const int queries = 40;
  for (int t = 0; t < queries; ++t) {
    Vector q(24);
    for (auto& x : q) x = static_cast<float>(rng.normal());
    const auto exact = baseline::topk_cosine(items, q, k);
    const auto count_hits = [&](std::size_t nprobe) {
      const auto got = index.search_probes(q, k, nprobe);
      std::size_t hits = 0;
      for (auto e : exact)
        if (std::find(got.begin(), got.end(), e) != got.end()) ++hits;
      return static_cast<double>(hits) / static_cast<double>(k);
    };
    recall1 += count_hits(1);
    recall8 += count_hits(8);
    recall32 += count_hits(32);
  }
  recall1 /= queries;
  recall8 /= queries;
  recall32 /= queries;

  EXPECT_LT(recall1, recall32);
  EXPECT_LE(recall8, recall32 + 1e-9);
  EXPECT_DOUBLE_EQ(recall32, 1.0);  // full probe is exact
  EXPECT_GT(recall8, 0.5);          // partial probe already decent
}

TEST(Ivf, ScanFractionTracksProbeRatio) {
  const Matrix items = random_items(400, 8, 6);
  IvfIndex::Config cfg;
  cfg.nlist = 16;
  cfg.nprobe = 4;
  const IvfIndex index(items, cfg);
  EXPECT_DOUBLE_EQ(index.scan_fraction(4), 0.25);
  EXPECT_DOUBLE_EQ(index.scan_fraction(16), 1.0);
  EXPECT_DOUBLE_EQ(index.scan_fraction(100), 1.0);  // clamped
}

TEST(Ivf, RejectsBadConfig) {
  const Matrix items = random_items(10, 4, 7);
  IvfIndex::Config bad;
  bad.nlist = 4;
  bad.nprobe = 5;  // > nlist
  EXPECT_THROW(IvfIndex(items, bad), Error);
  EXPECT_THROW(IvfIndex(Matrix(0, 4), IvfIndex::Config{}), Error);
}

TEST(Ivf, QueryDimChecked) {
  const Matrix items = random_items(50, 8, 8);
  const IvfIndex index(items, IvfIndex::Config{});
  EXPECT_THROW((void)index.search(Vector(7, 0.0f), 3), Error);
}

}  // namespace
}  // namespace imars
