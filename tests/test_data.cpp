// Tests for the synthetic dataset generators: schema shape (Table I),
// determinism, statistical properties of the ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "data/criteo.hpp"
#include "data/movielens.hpp"
#include "data/zipf.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace imars {
namespace {

using data::CriteoConfig;
using data::CriteoSynth;
using data::MovieLensConfig;
using data::MovieLensSynth;
using data::StageUse;
using data::ZipfSampler;

MovieLensConfig small_ml() {
  MovieLensConfig cfg;
  cfg.num_users = 200;
  cfg.num_items = 150;
  cfg.history_min = 3;
  cfg.history_max = 12;
  cfg.seed = 7;
  return cfg;
}

// ---------- Zipf -------------------------------------------------------------

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler z(100, 1.1);
  double sum = 0.0;
  for (std::size_t k = 0; k < 100; ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsDecreasing) {
  ZipfSampler z(50, 1.0);
  for (std::size_t k = 1; k < 50; ++k) EXPECT_LE(z.pmf(k), z.pmf(k - 1));
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-9);
}

TEST(Zipf, EmpiricalFrequencyTracksPmf) {
  ZipfSampler z(20, 1.2);
  util::Xoshiro256 rng(3);
  std::vector<double> counts(20, 0.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[z.sample(rng)] += 1.0;
  for (std::size_t k = 0; k < 20; ++k)
    EXPECT_NEAR(counts[k] / n, z.pmf(k), 0.01) << "k=" << k;
}

TEST(Zipf, RejectsDegenerate) {
  EXPECT_THROW(ZipfSampler(0, 1.0), Error);
  EXPECT_THROW(ZipfSampler(10, -0.1), Error);
}

// The dense CDF a sampler of n items must reproduce, written out here as
// an independent reference: the running sum of 1 / (k + 1)^s in item order,
// each sum divided by the total, the last item set to 1.0.
std::vector<double> reference_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (auto& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

TEST(Zipf, AtIsLowerBoundAtEveryCdfValueAndItsNeighbours) {
  // cdf(k) and pmf(k) must equal the dense reference bit for bit at every
  // k, and at(u) must be std::lower_bound over it: at u = 0, at every CDF
  // value and its two neighbouring doubles (where a guide cell starting
  // past its answer, or a recomputed value one rounding off, would show)
  // and at random u. The populations cover one guide cell per item (up to
  // 65,536), the first tail item (65,537), a partial last tail cell
  // (70,001) and the load generator's 10^6 users.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{100},
        std::size_t{65536}, std::size_t{65537}, std::size_t{70001},
        std::size_t{1000000}}) {
    for (const double s : {0.0, 0.9, 1.0, 1.2}) {
      const ZipfSampler z(n, s);
      ASSERT_EQ(z.size(), n);
      const std::vector<double> cdf = reference_cdf(n, s);
      std::size_t bad_cdf = 0, bad_pmf = 0, first_cdf = n, first_pmf = n;
      for (std::size_t k = 0; k < n; ++k) {
        const double pmf = k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
        if (bits(z.cdf(k)) != bits(cdf[k]) && bad_cdf++ == 0) first_cdf = k;
        if (bits(z.pmf(k)) != bits(pmf) && bad_pmf++ == 0) first_pmf = k;
      }
      EXPECT_EQ(bad_cdf, 0u) << "n=" << n << " s=" << s << ": " << bad_cdf
                             << " cdf values differ, first k=" << first_cdf;
      EXPECT_EQ(bad_pmf, 0u) << "n=" << n << " s=" << s << ": " << bad_pmf
                             << " pmf values differ, first k=" << first_pmf;
      std::size_t checked = 0, mismatches = 0;
      double first_bad = -1.0;
      const auto check = [&](double u) {
        if (u < 0.0 || u > 1.0) return;
        const auto want = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ++checked;
        if (z.at(u) != want && mismatches++ == 0) first_bad = u;
      };
      check(0.0);
      for (const double c : cdf) {
        check(std::nextafter(c, 0.0));
        check(c);
        check(std::nextafter(c, 2.0));
      }
      util::Xoshiro256 rng(n);
      for (int i = 0; i < 20000; ++i) check(rng.uniform());
      EXPECT_EQ(mismatches, 0u)
          << "n=" << n << " s=" << s << ": " << mismatches << " of "
          << checked << " u differ, first u=" << std::hexfloat << first_bad;
    }
  }
  const ZipfSampler z(5, 0.0);
  EXPECT_EQ(z.at(0.6), 2u);
  util::Xoshiro256 a(9), b(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(a), z.at(b.uniform()));
  for (const double u : {-0.1, std::nextafter(1.0, 2.0), std::nan("")})
    EXPECT_THROW(z.at(u), Error) << u;
}

// ---------- MovieLens ----------------------------------------------------------

TEST(MovieLens, DefaultSchemaMatchesTableI) {
  // Cheap: schema derives from config without generating users.
  MovieLensConfig cfg = small_ml();
  cfg.num_users = 6040;
  cfg.num_items = 3952;
  const MovieLensSynth ds(cfg);
  const auto& s = ds.schema();

  // Table I: 5 filtering UIETs, 6 ranking UIETs, 5 shared, 1 ItET.
  EXPECT_EQ(s.uiet_count_for(/*filtering=*/true), 5u);
  EXPECT_EQ(s.uiet_count_for(/*filtering=*/false), 6u);
  EXPECT_EQ(s.uiet_shared_count(), 5u);
  EXPECT_TRUE(s.has_item_table);
  EXPECT_EQ(s.item_count, 3952u);
  EXPECT_EQ(s.embedding_dim, 32u);

  // Paper text: ET row counts span 3 to 6040 entries.
  EXPECT_EQ(s.min_table_rows(), 3u);
  EXPECT_EQ(s.max_table_rows(), 6040u);
}

TEST(MovieLens, DeterministicAcrossInstances) {
  const MovieLensSynth a(small_ml());
  const MovieLensSynth b(small_ml());
  for (std::size_t u = 0; u < a.num_users(); u += 17) {
    EXPECT_EQ(a.user(u).sparse, b.user(u).sparse);
    EXPECT_EQ(a.user(u).history, b.user(u).history);
    EXPECT_EQ(a.user(u).heldout, b.user(u).heldout);
  }
}

TEST(MovieLens, SeedChangesData) {
  MovieLensConfig cfg2 = small_ml();
  cfg2.seed = 8;
  const MovieLensSynth a(small_ml());
  const MovieLensSynth b(cfg2);
  bool any_diff = false;
  for (std::size_t u = 0; u < a.num_users() && !any_diff; ++u)
    any_diff = a.user(u).history != b.user(u).history;
  EXPECT_TRUE(any_diff);
}

TEST(MovieLens, HistoryBoundsAndValidity) {
  const MovieLensSynth ds(small_ml());
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    const auto& rec = ds.user(u);
    // heldout was popped off the history.
    EXPECT_GE(rec.history.size() + 1, small_ml().history_min);
    EXPECT_LE(rec.history.size() + 1, small_ml().history_max);
    for (auto i : rec.history) EXPECT_LT(i, ds.num_items());
    EXPECT_LT(rec.heldout, ds.num_items());
    // No duplicates in history.
    const std::set<std::size_t> uniq(rec.history.begin(), rec.history.end());
    EXPECT_EQ(uniq.size(), rec.history.size());
  }
}

TEST(MovieLens, SparseFeaturesWithinCardinality) {
  const MovieLensSynth ds(small_ml());
  const auto& schema = ds.schema();
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    const auto& rec = ds.user(u);
    ASSERT_EQ(rec.sparse.size(), schema.user_item.size());
    for (std::size_t f = 0; f < rec.sparse.size(); ++f)
      EXPECT_LT(rec.sparse[f], schema.user_item[f].cardinality) << "f=" << f;
  }
}

TEST(MovieLens, UserIdFeatureIsIdentity) {
  const MovieLensSynth ds(small_ml());
  for (std::size_t u = 0; u < ds.num_users(); u += 7)
    EXPECT_EQ(ds.user(u).sparse[4], u);  // schema index 4 = user_id
}

TEST(MovieLens, HistoryItemsHaveHigherAffinityThanRandom) {
  const MovieLensSynth ds(small_ml());
  util::RunningStats hist_aff, rand_aff;
  util::Xoshiro256 rng(9);
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    for (auto i : ds.user(u).history) hist_aff.add(ds.affinity(u, i));
    for (int r = 0; r < 4; ++r)
      rand_aff.add(ds.affinity(u, rng.below(ds.num_items())));
  }
  // Watched items were accepted via sigmoid(affinity): mean must be higher.
  EXPECT_GT(hist_aff.mean(), rand_aff.mean() + 0.2);
}

TEST(MovieLens, PopularityIsZipfShaped) {
  const MovieLensSynth ds(small_ml());
  EXPECT_GT(ds.item_popularity(0), ds.item_popularity(10));
  EXPECT_GT(ds.item_popularity(10), ds.item_popularity(100));
}

TEST(MovieLens, DenseFeaturesFiniteAndSized) {
  const MovieLensSynth ds(small_ml());
  for (std::size_t u = 0; u < ds.num_users(); u += 11) {
    const auto d = ds.dense_features(u);
    ASSERT_EQ(d.size(), MovieLensSynth::kDenseDim);
    for (float x : d) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(MovieLens, RejectsDegenerateConfig) {
  MovieLensConfig bad = small_ml();
  bad.history_min = 0;
  EXPECT_THROW(MovieLensSynth{bad}, Error);
  MovieLensConfig bad2 = small_ml();
  bad2.num_items = bad2.history_max;  // catalogue too small
  EXPECT_THROW(MovieLensSynth{bad2}, Error);
}

// ---------- Criteo ---------------------------------------------------------------

CriteoConfig small_criteo() {
  CriteoConfig cfg;
  cfg.num_samples = 3000;
  cfg.seed = 11;
  return cfg;
}

TEST(Criteo, SchemaMatchesTableI) {
  const CriteoSynth ds(small_criteo());
  const auto& s = ds.schema();
  EXPECT_EQ(s.dense_dim, 13u);                      // 13 dense features
  EXPECT_EQ(s.user_item.size(), 26u);               // 26 categorical features
  EXPECT_FALSE(s.has_item_table);                   // ranking-only
  EXPECT_EQ(s.max_table_rows(), 30000u);            // Table I cap
  for (const auto& f : s.user_item)
    EXPECT_EQ(f.use, StageUse::kRankingOnly);
}

TEST(Criteo, SamplesAreWellFormed) {
  const CriteoSynth ds(small_criteo());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto& s = ds.sample(i);
    ASSERT_EQ(s.dense.size(), CriteoSynth::kDenseDim);
    ASSERT_EQ(s.sparse.size(), CriteoSynth::kSparseCount);
    for (std::size_t f = 0; f < s.sparse.size(); ++f)
      EXPECT_LT(s.sparse[f], ds.cardinality(f));
    for (float d : s.dense) {
      EXPECT_TRUE(std::isfinite(d));
      EXPECT_GE(d, 0.0f);  // log1p(softplus) is non-negative
    }
    EXPECT_TRUE(s.label == 0 || s.label == 1);
  }
}

TEST(Criteo, Deterministic) {
  const CriteoSynth a(small_criteo());
  const CriteoSynth b(small_criteo());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a.sample(i).sparse, b.sample(i).sparse);
    EXPECT_EQ(a.sample(i).label, b.sample(i).label);
  }
}

TEST(Criteo, MarginalCtrNearBase) {
  CriteoConfig cfg = small_criteo();
  cfg.num_samples = 20000;
  cfg.base_ctr = 0.25;
  const CriteoSynth ds(cfg);
  double clicks = 0.0;
  for (std::size_t i = 0; i < ds.size(); ++i) clicks += ds.sample(i).label;
  EXPECT_NEAR(clicks / static_cast<double>(ds.size()), 0.25, 0.03);
}

TEST(Criteo, LabelsCorrelateWithTrueCtr) {
  const CriteoSynth ds(small_criteo());
  std::vector<int> labels;
  std::vector<double> scores;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    labels.push_back(ds.sample(i).label);
    scores.push_back(ds.true_ctr(ds.sample(i)));
  }
  // The oracle score must separate clicks from non-clicks.
  EXPECT_GT(util::auc(labels, scores), 0.65);
}

TEST(Criteo, ZipfpopularIndicesDominate) {
  const CriteoSynth ds(small_criteo());
  // For the first (1460-ary) feature, index 0 must be the most frequent.
  std::vector<std::size_t> counts(ds.cardinality(0), 0);
  for (std::size_t i = 0; i < ds.size(); ++i)
    counts[ds.sample(i).sparse[0]]++;
  const auto max_it = std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(std::distance(counts.begin(), max_it), 0);
}

TEST(Criteo, RejectsBadConfig) {
  CriteoConfig bad = small_criteo();
  bad.num_samples = 0;
  EXPECT_THROW(CriteoSynth{bad}, Error);
  CriteoConfig bad2 = small_criteo();
  bad2.base_ctr = 1.5;
  EXPECT_THROW(CriteoSynth{bad2}, Error);
}

}  // namespace
}  // namespace imars
