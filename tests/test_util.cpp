// Unit + property tests for the util module: RNG, BitVec, quantization,
// statistics, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/bitvec.hpp"
#include "util/error.hpp"
#include "util/flat_map.hpp"
#include "util/quant.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace imars {
namespace {

using util::BitVec;

// ---------- RNG -----------------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  util::SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixDiffersAcrossSeeds) {
  util::SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, Hash64IsStable) {
  EXPECT_EQ(util::hash64(7, 9), util::hash64(7, 9));
  EXPECT_NE(util::hash64(7, 9), util::hash64(7, 10));
  EXPECT_NE(util::hash64(8, 9), util::hash64(7, 9));
}

TEST(Rng, XoshiroUniformRange) {
  util::Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, XoshiroUniformMeanApproxHalf) {
  util::Xoshiro256 rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, XoshiroBelowIsInRange) {
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, XoshiroBelowCoversAllValues) {
  util::Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsApproxStandard) {
  util::Xoshiro256 rng(11);
  util::RunningStats s;
  double sum_sq = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.normal();
    s.add(x);
    sum_sq += x * x;
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sum_sq / 100000.0), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  util::Xoshiro256 rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ---------- BitVec --------------------------------------------------------

TEST(BitVec, StartsAllZero) {
  BitVec v(300);
  EXPECT_EQ(v.size(), 300u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SetGetFlipRoundTrip) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);   // word boundary
  v.set(129, true);  // last bit
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, FromStringSetsOneBitPerCharacter) {
  const std::string s = "1010011100101";
  const BitVec v = BitVec::from_string(s);
  ASSERT_EQ(v.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(v.get(i), s[i] == '1');
  EXPECT_EQ(v.popcount(), 7u);
}

TEST(BitVec, FromStringRejectsNonBinary) {
  EXPECT_THROW(BitVec::from_string("10x1"), Error);
}

TEST(BitVec, FillSetsEverythingAndClearsTail) {
  BitVec v(70);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 70u);
  // Tail bits beyond size stay zero.
  EXPECT_EQ(v.words().back(), (1ULL << 6) - 1);
}

TEST(BitVec, HammingAgainstManual) {
  const BitVec a = BitVec::from_string("110010");
  const BitVec b = BitVec::from_string("011011");
  EXPECT_EQ(a.hamming(b), 3u);
  EXPECT_EQ(a.hamming(a), 0u);
}

TEST(BitVec, HammingSizeMismatchThrows) {
  EXPECT_THROW(BitVec(8).hamming(BitVec(9)), Error);
}

TEST(BitVec, CopyFrom) {
  const BitVec v = BitVec::from_string("11001010");
  BitVec d(10);
  d.copy_from(v, 0, 8, 1);
  EXPECT_EQ(d, BitVec::from_string("0110010100"));
}

// byte_at and copy_from work on whole words; the oracle is plain get/set,
// over random sizes with offsets and lengths that straddle word
// boundaries, len = 0 and ranges ending on the last bit.
TEST(BitVec, WordLevelRangeOpsMatchBitwiseOracle) {
  util::Xoshiro256 rng(2024);
  auto random_vec = [&](std::size_t n) {
    BitVec v(n);
    for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
    return v;
  };
  for (std::size_t trial = 0; trial < 600; ++trial) {
    const std::size_t n = 8 + rng.below(300);
    BitVec v = random_vec(n);

    const std::size_t pos = trial % 4 == 0 ? n - 8 : rng.below(n - 7);
    std::uint8_t want = 0;
    for (std::size_t b = 0; b < 8; ++b)
      if (v.get(pos + b)) want |= static_cast<std::uint8_t>(1u << b);
    ASSERT_EQ(v.byte_at(pos), want) << "n " << n << " pos " << pos;

    const BitVec src = random_vec(1 + rng.below(300));
    const std::size_t len =
        trial % 5 == 0 ? 0 : rng.below(std::min(src.size(), n) + 1);
    const std::size_t sb =
        trial % 3 == 1 ? src.size() - len : rng.below(src.size() - len + 1);
    const std::size_t db = trial % 3 == 2 ? n - len : rng.below(n - len + 1);
    BitVec expect = v;
    for (std::size_t i = 0; i < len; ++i) expect.set(db + i, src.get(sb + i));
    v.copy_from(src, sb, len, db);
    ASSERT_EQ(v, expect) << "n " << n << " src " << src.size() << " [" << sb
                         << ", +" << len << ") -> " << db;

    // Overlapping self-copy behaves like memmove.
    const std::size_t a = rng.below(n - len + 1);
    for (std::size_t i = 0; i < len; ++i) expect.set(db + i, v.get(a + i));
    v.copy_from(v, a, len, db);
    ASSERT_EQ(v, expect);
  }
}

TEST(BitVec, OutOfRangeThrows) {
  BitVec v(16);
  EXPECT_THROW(v.get(16), Error);
  EXPECT_THROW(v.set(100, true), Error);
  EXPECT_THROW(v.byte_at(9), Error);
}

TEST(BitVec, FromWordsUsesLowBits) {
  const std::uint64_t words[2] = {0xFFULL, 0x1ULL};
  const BitVec v = BitVec::from_words(words, 66);
  EXPECT_EQ(v.popcount(), 9u);
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(65));
}

// ---------- Quantization ---------------------------------------------------

TEST(Quant, ChooseSymmetricMapsMaxTo127) {
  const float xs[] = {-2.0f, 0.5f, 1.0f};
  const auto p = util::choose_symmetric(xs);
  EXPECT_FLOAT_EQ(p.scale, 2.0f / 127.0f);
  EXPECT_EQ(p.quantize(-2.0f), -127);
  EXPECT_EQ(p.quantize(2.0f), 127);
}

TEST(Quant, ZeroInputGetsUnitScale) {
  const std::vector<float> xs(4, 0.0f);
  const auto p = util::choose_symmetric(xs);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
  EXPECT_EQ(p.quantize(0.0f), 0);
}

TEST(Quant, RoundTripErrorBounded) {
  util::Xoshiro256 rng(21);
  std::vector<float> xs(256);
  for (auto& x : xs) x = static_cast<float>(rng.uniform(-3.0, 3.0));
  const auto p = util::choose_symmetric(xs);
  const auto q = util::quantize(xs, p);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(p.dequantize(q[i]), xs[i], p.scale * 0.5f + 1e-6f);
  }
}

TEST(Quant, NanQuantizesToZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(util::QuantParams{0.5f}.quantize(nan), 0);
  EXPECT_EQ(util::QuantParams{0.5f}.quantize(-nan), 0);
  EXPECT_EQ(util::QuantParams{0.0f}.quantize(0.0f), 0);  // 0 / 0
  EXPECT_EQ(util::QuantParams{0.5f}.quantize(inf), 127);
  EXPECT_EQ(util::QuantParams{0.5f}.quantize(-inf), -127);
}

// quantize() rounds without libm; it must agree with the nearbyint, clamp
// and saturate formula on every tie, on the saturation edges and on
// random values at several scales.
TEST(Quant, QuantizeMatchesNearbyintReference) {
  const auto reference = [](float x, float scale) {
    const float q = std::nearbyint(x / scale);
    return util::sat_cast_i8(
        static_cast<std::int32_t>(std::clamp(q, -128.0f, 127.0f)));
  };
  std::vector<float> xs;
  for (int k = -1040; k <= 1040; ++k) xs.push_back(static_cast<float>(k) / 8);
  for (const float edge : {126.49999f, 126.5f, 127.49999f, 127.5f, 128.5f,
                           1e6f, 3e38f, 1e-40f, 0.49999997f, 0.5f, -0.0f,
                           std::numeric_limits<float>::infinity()}) {
    xs.push_back(edge);
    xs.push_back(-edge);
  }
  util::Xoshiro256 rng(22);
  for (int i = 0; i < 4000; ++i)
    xs.push_back(static_cast<float>(rng.normal() * 60.0));
  for (const float scale : {1.0f, 0.37f, 2.0f / 127.0f, 1e-3f, 3.0f}) {
    const util::QuantParams p{scale};
    for (const float x : xs)
      ASSERT_EQ(p.quantize(x), reference(x, scale)) << x << " / " << scale;
  }
}

// choose_symmetric and quantize run four lanes at a time; both must equal
// the one-lane loops (std::max(max_abs, std::fabs(v)), then
// QuantParams::quantize per value) at every length 0-9, so every lane and
// tail position, and at longer lengths, on random values mixed with +-0,
// NaN of both signs (the max skips it, quantize maps it to 0), +-inf,
// denormals and +-FLT_MAX.
TEST(Quant, LaneKernelsMatchScalarLoops) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float edges[] = {0.0f,   -0.0f, nan,    -nan,    inf,  -inf, tiny,
                         -tiny,  3e-39f, -1e-39f, big, -big, 126.5f};
  const auto same_bits = [](float a, float b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  util::Xoshiro256 rng(23);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = trial < 300 ? trial % 10 : rng.below(70);
    std::vector<float> xs(n);
    for (auto& x : xs) {
      x = rng.below(3) == 0
              ? edges[rng.below(std::size(edges))]
              : static_cast<float>(rng.normal() *
                                   std::pow(10.0, rng.uniform(-3.0, 3.0)));
    }
    float max_abs = 0.0f;
    for (const float x : xs) max_abs = std::max(max_abs, std::fabs(x));
    const float scale = (max_abs > 0.0f) ? max_abs / 127.0f : 1.0f;
    const util::QuantParams p = util::choose_symmetric(xs);
    EXPECT_TRUE(same_bits(p.scale, scale)) << "trial " << trial;
    for (const float s : {p.scale, 0.37f, 0.0f}) {
      const util::QuantParams ps{s};
      const auto q = util::quantize(xs, ps);
      ASSERT_EQ(q.size(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(q[i], ps.quantize(xs[i]))
            << "trial " << trial << " i " << i << " x " << xs[i] << " / "
            << s;
    }
  }
}

TEST(Quant, SaturatingAddClamps) {
  EXPECT_EQ(util::sat_add_i8(100, 100), 127);
  EXPECT_EQ(util::sat_add_i8(-100, -100), -127);
  EXPECT_EQ(util::sat_add_i8(50, -20), 30);
}

TEST(Quant, SatCastSymmetricRange) {
  EXPECT_EQ(util::sat_cast_i8(1000), 127);
  EXPECT_EQ(util::sat_cast_i8(-1000), -127);
  EXPECT_EQ(util::sat_cast_i8(-127), -127);
  EXPECT_EQ(util::sat_cast_i8(5), 5);
}

// ---------- Stats -----------------------------------------------------------

TEST(Stats, RunningStatsMatchesClosedForm) {
  util::RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 50), 2.5);
}

TEST(Stats, PercentileRejectsBadInput) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(util::percentile({}, 50), Error);
  EXPECT_THROW(util::percentile(xs, 101), Error);
}

// Tiny-sample audit: the interpolated rank p/100 * (n-1) stays inside
// [0, n-1] for every p in [0, 100], so high percentiles on the small
// streams a QoS class with little traffic produces can never index past the
// sorted vector nor return 0 for a non-zero sample.
TEST(Stats, PercentileTinySamplesNeverEscapeTheData) {
  const std::vector<double> one = {7.5};
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(util::percentile(one, p), 7.5) << "p=" << p;

  const std::vector<double> two = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(util::percentile(two, 99), 19.9);
  EXPECT_DOUBLE_EQ(util::percentile(two, 100), 20.0);

  // For any small n, every percentile lies within [min, max] and p99 sits
  // in the top inter-sample gap (never truncated to a lower sample).
  for (std::size_t n = 1; n <= 99; ++n) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i)
      xs.push_back(static_cast<double>(i + 1));
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
      const double v = util::percentile(xs, p);
      EXPECT_GE(v, 1.0) << "n=" << n << " p=" << p;
      EXPECT_LE(v, static_cast<double>(n)) << "n=" << n << " p=" << p;
    }
    if (n >= 2) {
      EXPECT_GT(util::percentile(xs, 99), static_cast<double>(n - 1));
      EXPECT_GE(util::percentile(xs, 99), util::percentile(xs, 95));
    }
  }
}

// Randomized equivalence of the two percentile implementations: the
// nth_element-based percentile_select must return bit-identical values to
// the sort-based percentile on arbitrary streams. Heavy ties and
// duplicates are the adversarial case — a selection that mishandles equal
// elements around the interpolation rank diverges exactly there.
TEST(Stats, PercentileSelectMatchesSortOnHeavyTieStreams) {
  util::Xoshiro256 rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(257);
    // Draw from a tiny value alphabet so long runs of ties straddle every
    // interpolation rank; a few trials use a wider alphabet as control.
    const std::uint64_t alphabet = (trial % 4 == 0) ? 1000 : 1 + rng.below(5);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      xs.push_back(static_cast<double>(rng.below(alphabet)) * 0.25);
    for (double p : {0.0, 100.0, 50.0, 95.0, 99.0}) {
      const double want = util::percentile(xs, p);
      std::vector<double> scratch = xs;  // percentile_select reorders
      const double got = util::percentile_select(scratch, p);
      EXPECT_DOUBLE_EQ(got, want)
          << "trial=" << trial << " n=" << n << " alphabet=" << alphabet
          << " p=" << p;
    }
  }
}

// ---------- FlatMap64 -------------------------------------------------------

TEST(FlatMap64, PointOperationsMatchReferenceMapUnderChurn) {
  util::FlatMap64 map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.below(512);  // force collisions + reuse
    switch (rng.below(4)) {
      case 0:
        ++map[key];
        ++ref[key];
        break;
      case 1:
        map.set(key, key * 3);
        ref[key] = key * 3;
        break;
      case 2:
        EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      default: {
        const std::uint64_t* slot = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(slot != nullptr, it != ref.end());
        if (slot != nullptr) EXPECT_EQ(*slot, it->second);
        break;
      }
    }
    EXPECT_EQ(map.size(), ref.size());
  }
}

// A value reference from operator[] stays valid across lookups, which
// never mutate the table.
TEST(FlatMap64, HeldReferenceSurvivesNonMutatingProbes) {
  util::FlatMap64 map;
  for (std::uint64_t k = 0; k < 30; ++k) map[k] = k;
  std::uint64_t& slot = map[5];
  (void)map.find(11);
  (void)map.contains(29);
  slot = 123;
  EXPECT_EQ(*map.find(5), 123u);
}

TEST(FlatSet64, InsertEraseContains) {
  util::FlatSet64 set;
  EXPECT_TRUE(set.empty());
  set.insert(42);
  set.insert(42);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(42));
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.erase(42));
  EXPECT_FALSE(set.erase(42));
  EXPECT_TRUE(set.empty());
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(util::pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg(ys);
  for (auto& y : neg) y = -y;
  EXPECT_NEAR(util::pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, SpearmanRobustToMonotoneTransform) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(std::exp(x));  // monotone, nonlinear
  EXPECT_NEAR(util::spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, AucPerfectAndRandom) {
  const std::vector<int> labels = {0, 0, 1, 1};
  const std::vector<double> good = {0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(util::auc(labels, good), 1.0);
  const std::vector<double> inverted = {0.9, 0.8, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(util::auc(labels, inverted), 0.0);
}

TEST(Stats, AucDegenerateLabelsGiveHalf) {
  const std::vector<int> labels = {1, 1};
  const std::vector<double> scores = {0.1, 0.9};
  EXPECT_DOUBLE_EQ(util::auc(labels, scores), 0.5);
}

// ---------- Table -----------------------------------------------------------

TEST(Table, RendersHeaderAndRows) {
  util::Table t("Demo");
  t.header({"A", "B"}).row({"1", "22"}).separator().row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("| A "), std::string::npos);
  EXPECT_NE(s.find("| 333 |"), std::string::npos);
}

TEST(Table, RowBeforeHeaderThrows) {
  util::Table t("x");
  EXPECT_THROW(t.row({"1"}), Error);
}

TEST(Table, NumTrimsTrailingZeros) {
  EXPECT_EQ(util::Table::num(1.5, 3), "1.5");
  EXPECT_EQ(util::Table::num(2.0, 2), "2");
  EXPECT_EQ(util::Table::num(0.125, 2), "0.12");  // round-half-to-even
}

TEST(Table, FactorUsesScientificForHuge) {
  EXPECT_EQ(util::Table::factor(16.8), "16.8x");
  const std::string f = util::Table::factor(38000.0);
  EXPECT_NE(f.find("e+"), std::string::npos);
}

}  // namespace
}  // namespace imars
