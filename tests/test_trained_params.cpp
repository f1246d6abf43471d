// Pins every trained parameter of the two models the repository benchmark
// trains (bench/harness.hpp at its scale) to a committed FNV-1a digest.
//
// The golden report digests serve tiny models, so a kernel change that
// moved one float rounding only at the benchmark's layer widths would pass
// them. These rows catch it: the digest covers every embedding table,
// weight and bias, in a fixed order, by raw float bits. A kernel change
// that claims bit-identity must leave both rows alone; after an intended
// change to training arithmetic, paste the printed digest over the row.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>

#include "harness.hpp"
#include "nn/embedding.hpp"
#include "nn/mlp.hpp"

namespace imars {
namespace {

struct ParamDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t floats = 0;

  void add(std::span<const float> values) {
    for (const float v : values) {
      const auto bits = std::bit_cast<std::uint32_t>(v);
      for (int i = 0; i < 4; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
    floats += values.size();
  }
  void add(const nn::EmbeddingTable& t) { add(t.dense().data()); }
  void add(const nn::Mlp& mlp) {
    for (std::size_t i = 0; i < mlp.layer_count(); ++i) {
      add(mlp.layer(i).weight().data());
      add(mlp.layer(i).bias());
    }
  }
};

void expect_digest(const ParamDigest& got, std::uint64_t floats,
                   std::uint64_t digest, const char* what) {
  EXPECT_EQ(got.floats, floats) << what;
  EXPECT_EQ(got.h, digest) << what;
  if (got.floats != floats || got.h != digest)
    std::printf("  %s: {%llu, 0x%016llxULL}\n", what,
                static_cast<unsigned long long>(got.floats),
                static_cast<unsigned long long>(got.h));
}

// YouTubeDNN on full-size synthetic MovieLens-1M, as ml_filter_rank trains
// it: 4 filter epochs, 2 rank epochs.
TEST(TrainedParams, MovieLensAtBenchScaleIsPinned) {
  const auto s = bench::make_movielens(1.0, 4, 2);
  const recsys::YoutubeDnn& m = *s.model;
  ParamDigest d;
  for (std::size_t f = 0; f < m.schema().user_item.size(); ++f)
    d.add(m.uiet(f));
  d.add(m.item_table());
  d.add(m.filter_mlp());
  d.add(m.rank_mlp());
  expect_digest(d, 500449, 0xc81d6b5f151c6266ULL,
                "make_movielens(1.0, 4, 2)");
}

// DLRM on 4000 synthetic Criteo samples, 2 epochs, as ctr_dlrm_dag trains
// it.
TEST(TrainedParams, CriteoAtBenchScaleIsPinned) {
  const auto s = bench::make_criteo(4000, 2);
  const recsys::Dlrm& m = *s.model;
  ParamDigest d;
  for (std::size_t f = 0; f < m.table_count(); ++f) d.add(m.table(f));
  d.add(m.bottom_mlp());
  d.add(m.top_mlp());
  expect_digest(d, 9352161, 0x80f59ce28d99f930ULL, "make_criteo(4000, 2)");
}

}  // namespace
}  // namespace imars
