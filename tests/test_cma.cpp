// Tests for the CMA functional model: RAM read/write, TCAM threshold search
// (vs brute-force Hamming oracle), GPCiM in-memory addition, mode rules,
// energy accounting and the copy-on-write storage that replicas share.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "cma/cma.hpp"
#include "util/error.hpp"
#include "util/quant.hpp"
#include "util/rng.hpp"

namespace imars {
namespace {

using cma::Cma;
using cma::Mode;
using device::Component;
using device::DeviceProfile;
using device::EnergyLedger;
using util::BitVec;

struct Fixture {
  DeviceProfile profile = DeviceProfile::fefet45();
  EnergyLedger ledger;
  Cma array{profile, &ledger};
};

BitVec random_row(std::size_t bits, util::Xoshiro256& rng, double p = 0.5) {
  BitVec v(bits);
  for (std::size_t i = 0; i < bits; ++i) v.set(i, rng.bernoulli(p));
  return v;
}

TEST(Cma, GeometryFromProfile) {
  Fixture f;
  EXPECT_EQ(f.array.rows(), 256u);
  EXPECT_EQ(f.array.cols(), 256u);
  EXPECT_EQ(f.array.mode(), Mode::kRam);
}

TEST(Cma, WriteReadRoundTrip) {
  Fixture f;
  util::Xoshiro256 rng(1);
  const BitVec row = random_row(256, rng);
  f.array.write_row(7, row);
  EXPECT_TRUE(f.array.row_valid(7));
  EXPECT_EQ(f.array.read_row(7), row);
}

TEST(Cma, ReadUnwrittenRowThrows) {
  Fixture f;
  EXPECT_THROW(f.array.read_row(0), Error);
  EXPECT_FALSE(f.array.row_valid(0));
}

TEST(Cma, RowIndexOutOfRangeThrows) {
  Fixture f;
  EXPECT_THROW(f.array.write_row(256, BitVec(256)), Error);
}

TEST(Cma, WriteWidthMismatchThrows) {
  Fixture f;
  EXPECT_THROW(f.array.write_row(0, BitVec(128)), Error);
}

TEST(Cma, Int8LaneRoundTrip) {
  Fixture f;
  std::vector<std::int8_t> lanes(32);
  for (int i = 0; i < 32; ++i) lanes[i] = static_cast<std::int8_t>(i * 7 - 100);
  f.array.write_row_i8(3, lanes);
  EXPECT_EQ(f.array.read_row_i8(3), lanes);
}

TEST(Cma, ModeEnforcement) {
  Fixture f;
  f.array.write_row(0, BitVec(256));
  f.array.set_mode(Mode::kTcam);
  EXPECT_THROW(f.array.read_row(0), Error);
  EXPECT_THROW(f.array.write_row(1, BitVec(256)), Error);
  EXPECT_THROW(f.array.add_rows(2, 0, 0), Error);

  f.array.set_mode(Mode::kGpcim);
  EXPECT_THROW((void)f.array.search(BitVec(256), 0), Error);

  f.array.set_mode(Mode::kRam);
  EXPECT_THROW((void)f.array.search(BitVec(256), 0), Error);
}

TEST(Cma, ModeSwitchCountsAndCharges) {
  Fixture f;
  const auto before = f.ledger.energy(Component::kController).value;
  f.array.set_mode(Mode::kTcam);
  f.array.set_mode(Mode::kTcam);  // no-op
  f.array.set_mode(Mode::kRam);
  EXPECT_EQ(f.ledger.ops(Component::kController), 2u);
  EXPECT_GT(f.ledger.energy(Component::kController).value, before);
}

TEST(Cma, LatenciesComeFromProfile) {
  Fixture f;
  const auto wl = f.array.write_row(0, BitVec(256));
  EXPECT_DOUBLE_EQ(wl.value, f.profile.cma_write.latency.value);
  device::Ns rl{0.0};
  (void)f.array.read_row(0, &rl);
  EXPECT_DOUBLE_EQ(rl.value, f.profile.cma_read.latency.value);
}

TEST(Cma, EnergyAccountingPerOp) {
  Fixture f;
  f.array.write_row(0, BitVec(256));
  f.array.write_row(1, BitVec(256));
  (void)f.array.read_row(0);
  EXPECT_DOUBLE_EQ(f.ledger.energy(Component::kCmaRam).value,
                   2 * 49.1 + 3.2);
  EXPECT_EQ(f.ledger.ops(Component::kCmaRam), 3u);
}

// ---------- TCAM search -----------------------------------------------------

TEST(Cma, ExactMatchSearch) {
  Fixture f;
  util::Xoshiro256 rng(2);
  const BitVec a = random_row(256, rng);
  const BitVec b = random_row(256, rng);
  f.array.write_row(10, a);
  f.array.write_row(20, b);
  f.array.set_mode(Mode::kTcam);

  const auto r = f.array.search(a, 0);
  EXPECT_EQ(r.matches, std::vector<std::size_t>{10});
}

TEST(Cma, NoMatchGivesEmpty) {
  Fixture f;
  f.array.write_row(0, BitVec::from_string(std::string(256, '1')));
  f.array.set_mode(Mode::kTcam);
  const auto r = f.array.search(BitVec(256), 10);  // distance 256 > 10
  EXPECT_TRUE(r.matches.empty());
}

TEST(Cma, UnwrittenRowsNeverMatch) {
  Fixture f;
  f.array.set_mode(Mode::kTcam);
  const auto r = f.array.search(BitVec(256), 256);  // matches everything valid
  EXPECT_TRUE(r.matches.empty());
}

// Property: TCAM threshold search == brute-force Hamming filter, for random
// contents, random queries and every threshold in a sweep.
class CmaSearchProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CmaSearchProperty, MatchesBruteForce) {
  const std::size_t threshold = GetParam();
  Fixture f;
  util::Xoshiro256 rng(1000 + threshold);

  std::vector<BitVec> rows;
  for (std::size_t r = 0; r < 64; ++r) {
    rows.push_back(random_row(256, rng));
    f.array.write_row(r, rows.back());
  }
  f.array.set_mode(Mode::kTcam);

  // Query biased toward row 0 so small thresholds sometimes hit.
  BitVec q = rows[0];
  for (std::size_t i = 0; i < threshold; ++i)
    q.flip(rng.below(256));

  const auto result = f.array.search(q, threshold);
  std::vector<std::size_t> expected;
  for (std::size_t r = 0; r < rows.size(); ++r)
    if (rows[r].hamming(q) <= threshold) expected.push_back(r);
  EXPECT_EQ(result.matches, expected);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CmaSearchProperty,
                         ::testing::Values(0, 1, 4, 16, 64, 100, 128, 200,
                                           256));

TEST(Cma, SearchChargesOneArrayOp) {
  Fixture f;
  f.array.write_row(0, BitVec(256));
  f.array.set_mode(Mode::kTcam);
  const auto before = f.ledger.ops(Component::kCmaSearch);
  (void)f.array.search(BitVec(256), 0);
  EXPECT_EQ(f.ledger.ops(Component::kCmaSearch), before + 1);
  EXPECT_DOUBLE_EQ(f.ledger.energy(Component::kCmaSearch).value, 13.8);
}

// ---------- GPCiM ------------------------------------------------------------

TEST(Cma, AddRowsLaneWise) {
  Fixture f;
  std::vector<std::int8_t> a(32), b(32);
  for (int i = 0; i < 32; ++i) {
    a[i] = static_cast<std::int8_t>(i - 16);
    b[i] = static_cast<std::int8_t>(2 * i - 20);
  }
  f.array.write_row_i8(0, a);
  f.array.write_row_i8(1, b);
  f.array.set_mode(Mode::kGpcim);
  f.array.add_rows(2, 0, 1);
  f.array.set_mode(Mode::kRam);
  const auto sum = f.array.read_row_i8(2);
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(sum[i], util::sat_add_i8(a[i], b[i])) << "lane " << i;
}

TEST(Cma, AddRowsSaturates) {
  Fixture f;
  std::vector<std::int8_t> big(32, 100);
  f.array.write_row_i8(0, big);
  f.array.write_row_i8(1, big);
  f.array.set_mode(Mode::kGpcim);
  f.array.add_rows(2, 0, 1);
  f.array.set_mode(Mode::kRam);
  for (auto v : f.array.read_row_i8(2)) EXPECT_EQ(v, 127);
}

TEST(Cma, AddRowsRequiresWrittenSources) {
  Fixture f;
  f.array.write_row_i8(0, std::vector<std::int8_t>(32, 1));
  f.array.set_mode(Mode::kGpcim);
  EXPECT_THROW(f.array.add_rows(2, 0, 1), Error);
}

TEST(Cma, AccumulateSumsIntoWideLanes) {
  Fixture f;
  util::Xoshiro256 rng(3);
  std::vector<std::vector<std::int8_t>> rows;
  std::vector<std::int32_t> expected(32, 0);
  for (std::size_t r = 0; r < 10; ++r) {
    std::vector<std::int8_t> lanes(32);
    for (auto& v : lanes)
      v = static_cast<std::int8_t>(static_cast<int>(rng.below(255)) - 127);
    rows.push_back(lanes);
    f.array.write_row_i8(r, lanes);
    for (int c = 0; c < 32; ++c) expected[c] += lanes[c];
  }
  f.array.set_mode(Mode::kGpcim);
  std::vector<std::int32_t> acc(32, 0);
  for (std::size_t r = 0; r < 10; ++r) f.array.accumulate(r, acc);
  EXPECT_EQ(acc, expected);
  // 10 in-memory adds charged.
  EXPECT_EQ(f.ledger.ops(Component::kCmaAdd), 10u);
}

TEST(Cma, PeekDoesNotCharge) {
  Fixture f;
  f.array.write_row_i8(0, std::vector<std::int8_t>(32, 5));
  const auto before = f.ledger.total().value;
  (void)f.array.peek_row(0);
  std::vector<std::int32_t> acc(32, 0);
  f.array.peek_accumulate_i8(0, acc);
  EXPECT_DOUBLE_EQ(f.ledger.total().value, before);
}

// ---------- Storage contract -------------------------------------------------

std::vector<std::int8_t> random_lanes(std::size_t n, util::Xoshiro256& rng) {
  std::vector<std::int8_t> lanes(n);
  for (auto& v : lanes) v = static_cast<std::int8_t>(rng.below(256));
  return lanes;
}

TEST(Cma, LaneIsByteEightLInBothDirections) {
  Fixture f;
  util::Xoshiro256 rng(4);
  const auto lanes = random_lanes(32, rng);
  f.array.write_row_i8(0, std::vector<std::int8_t>(32, -1));  // overwritten
  f.array.write_row_i8(0, lanes);
  const BitVec bits = f.array.read_row(0);
  for (std::size_t l = 0; l < 32; ++l)
    EXPECT_EQ(static_cast<std::int8_t>(bits.byte_at(8 * l)), lanes[l]) << l;

  const BitVec row = random_row(256, rng);
  f.array.write_row(1, row);
  const auto back = f.array.read_row_i8(1);
  for (std::size_t l = 0; l < 32; ++l)
    EXPECT_EQ(back[l], static_cast<std::int8_t>(row.byte_at(8 * l))) << l;
}

TEST(Cma, AddRowsDestinationMayAliasASource) {
  Fixture f;
  util::Xoshiro256 rng(5);
  const auto a = random_lanes(32, rng);
  const auto b = random_lanes(32, rng);
  f.array.write_row_i8(0, a);
  f.array.write_row_i8(1, b);
  f.array.set_mode(Mode::kGpcim);
  f.array.add_rows(0, 0, 1);
  f.array.set_mode(Mode::kRam);
  const auto sum = f.array.read_row_i8(0);
  for (std::size_t l = 0; l < 32; ++l)
    EXPECT_EQ(sum[l], util::sat_add_i8(a[l], b[l])) << "lane " << l;
}

// 200 columns: the last storage word is part-used, and its unused tail
// must never count as a mismatch.
TEST(Cma, NonWordMultipleWidthRoundTripsAndSearches) {
  DeviceProfile profile = DeviceProfile::fefet45();
  profile.cma_cols = 200;
  EnergyLedger ledger;
  Cma array(profile, &ledger);
  util::Xoshiro256 rng(6);

  const auto lanes = random_lanes(25, rng);
  array.write_row_i8(0, lanes);
  EXPECT_EQ(array.read_row_i8(0), lanes);
  BitVec all_ones(200);
  all_ones.fill(true);
  std::vector<BitVec> rows{array.read_row(0)};
  for (std::size_t r = 1; r < 16; ++r) {
    rows.push_back(r == 15 ? all_ones : random_row(200, rng));
    array.write_row(r, rows.back());
    EXPECT_EQ(array.read_row(r), rows.back());
  }

  array.set_mode(Mode::kTcam);
  for (std::size_t threshold : {0u, 50u, 100u, 150u, 200u}) {
    for (const BitVec& q : {rows[3], all_ones, BitVec(200)}) {
      std::vector<std::size_t> expected;
      for (std::size_t r = 0; r < rows.size(); ++r)
        if (rows[r].hamming(q) <= threshold) expected.push_back(r);
      EXPECT_EQ(array.search(q, threshold).matches, expected)
          << "threshold " << threshold;
    }
  }
  // The all-ones row fills 200 of 256 stored bits: an all-ones query is an
  // exact match, so the 56 unused tail bits never mismatch.
  EXPECT_EQ(array.search(all_ones, 0).matches, std::vector<std::size_t>{15});
}

TEST(Cma, PeekAccumulateEqualsSumOfWrittenLanes) {
  Fixture f;
  util::Xoshiro256 rng(7);
  std::vector<std::int32_t> expected(32, 0);
  for (std::size_t r = 0; r < 12; ++r) {
    const auto lanes = random_lanes(32, rng);
    f.array.write_row_i8(r, lanes);
    for (std::size_t l = 0; l < 32; ++l) expected[l] += lanes[l];
  }
  std::vector<std::int32_t> acc(32, 0);
  for (std::size_t r = 0; r < 12; ++r) f.array.peek_accumulate_i8(r, acc);
  EXPECT_EQ(acc, expected);

  EXPECT_THROW(f.array.peek_accumulate_i8(12, acc), Error);
  std::vector<std::int32_t> short_acc(31, 0);
  EXPECT_THROW(f.array.peek_accumulate_i8(0, short_acc), Error);
}

// ---------- shared storage: copies and replicas are copy-on-write ------------

// Everything a write could change in an array, read through the public
// API without a charge.
struct Contents {
  std::vector<bool> valid;
  std::vector<BitVec> bits;  ///< peek_row of valid rows, empty otherwise
  bool operator==(const Contents&) const = default;
};

Contents contents_of(const Cma& array) {
  Contents c;
  for (std::size_t r = 0; r < array.rows(); ++r) {
    c.valid.push_back(array.row_valid(r));
    c.bits.push_back(c.valid.back() ? array.peek_row(r) : BitVec());
  }
  return c;
}

// An image with written rows 0..7.
struct SharedFixture {
  SharedFixture() {
    util::Xoshiro256 rng(11);
    for (std::size_t r = 0; r < 8; ++r)
      image.write_row(r, random_row(256, rng));
  }
  DeviceProfile fefet = DeviceProfile::fefet45();
  DeviceProfile reram = DeviceProfile::reram45();
  EnergyLedger image_ledger, ledger_a, ledger_b;
  Cma image{fefet, &image_ledger};
};

TEST(Cma, ReplicaSharesContentsUnderItsOwnProfileAndLedger) {
  SharedFixture f;
  f.image.set_mode(Mode::kTcam);
  const Cma replica(f.image, f.reram, &f.ledger_a);
  EXPECT_EQ(contents_of(replica), contents_of(f.image));
  // The mode starts from the image's, then is the replica's.
  EXPECT_EQ(replica.mode(), Mode::kTcam);

  f.image_ledger.clear();
  const auto r = replica.search(f.image.peek_row(2), 0);
  EXPECT_EQ(r.matches, std::vector<std::size_t>{2});
  EXPECT_DOUBLE_EQ(r.latency.value, f.reram.cma_search.latency.value);
  EXPECT_DOUBLE_EQ(f.ledger_a.energy(Component::kCmaSearch).value,
                   f.reram.cma_search.energy.value);
  EXPECT_DOUBLE_EQ(f.image_ledger.total().value, 0.0);

  DeviceProfile narrow = f.fefet;
  narrow.cma_rows = 128;
  EXPECT_THROW(Cma(f.image, narrow, &f.ledger_b), Error);
  EXPECT_THROW(Cma(f.image, f.reram, nullptr), Error);
}

// Every mutator, applied to the image, a replica or a plain copy, changes
// that array only: the image and every sibling keep their bits and valid
// flags.
TEST(Cma, WritesToAnySharerReachNoOther) {
  util::Xoshiro256 rng(12);
  const BitVec fresh = random_row(256, rng);
  const auto lanes = random_lanes(32, rng);
  const std::vector<std::pair<std::string, std::function<void(Cma&)>>> ops = {
      {"write_row (rewrite)", [&](Cma& a) { a.write_row(2, fresh); }},
      {"write_row (new row)", [&](Cma& a) { a.write_row(200, fresh); }},
      {"write_row_i8", [&](Cma& a) { a.write_row_i8(3, lanes); }},
      {"add_rows",
       [](Cma& a) {
         a.set_mode(Mode::kGpcim);
         a.add_rows(4, 5, 6);
         a.set_mode(Mode::kRam);
       }},
  };
  for (const auto& [name, op] : ops) {
    for (std::size_t writer = 0; writer < 4; ++writer) {
      SharedFixture f;
      Cma replica_a(f.image, f.reram, &f.ledger_a);
      Cma replica_b(f.image, f.fefet, &f.ledger_b);
      Cma copy = f.image;
      std::vector<Cma*> arrays = {&f.image, &replica_a, &replica_b, &copy};
      std::vector<Contents> before;
      for (const Cma* a : arrays) before.push_back(contents_of(*a));

      op(*arrays[writer]);
      for (std::size_t i = 0; i < arrays.size(); ++i) {
        const bool changed = contents_of(*arrays[i]) != before[i];
        EXPECT_EQ(changed, i == writer)
            << name << ": writer " << writer << ", array " << i;
      }
    }
  }
}

// A replica owes nothing to its image once built.
TEST(Cma, ReplicaOutlivesItsImage) {
  auto f = std::make_unique<SharedFixture>();
  const Contents expected = contents_of(f->image);
  EnergyLedger ledger;
  const DeviceProfile profile = DeviceProfile::fefet22();
  Cma replica(f->image, profile, &ledger);
  f.reset();
  EXPECT_EQ(contents_of(replica), expected);
  replica.write_row(9, BitVec(256));
  EXPECT_TRUE(replica.row_valid(9));
}

}  // namespace
}  // namespace imars
