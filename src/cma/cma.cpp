#include "cma/cma.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/quant.hpp"

namespace imars::cma {

using device::Component;
using device::Ns;

namespace {
// Int8 lane l of a row: byte l%8 of word l/8 (see the layout in cma.hpp).
std::int8_t lane(const std::uint64_t* words, std::size_t l) noexcept {
  return static_cast<std::int8_t>(words[l / 8] >> (l % 8 * 8));
}
}  // namespace

Cma::Cma(const device::DeviceProfile& profile, device::EnergyLedger* ledger)
    : profile_(&profile),
      ledger_(ledger),
      rows_(profile.cma_rows),
      cols_(profile.cma_cols),
      words_per_row_((profile.cma_cols + 63) / 64),
      store_(std::make_shared<Storage>(
          Storage{std::vector<std::uint64_t>(rows_ * words_per_row_, 0),
                  std::vector<bool>(rows_, false)})) {
  IMARS_REQUIRE(ledger != nullptr, "Cma: ledger must not be null");
  IMARS_REQUIRE(cols_ % 8 == 0, "Cma: columns must be a multiple of 8");
}

Cma::Cma(const Cma& image, const device::DeviceProfile& profile,
         device::EnergyLedger* ledger)
    : Cma(image) {
  IMARS_REQUIRE(ledger != nullptr, "Cma: ledger must not be null");
  IMARS_REQUIRE(profile.cma_rows == rows_ && profile.cma_cols == cols_,
                "Cma: replica profile geometry differs from the image");
  profile_ = &profile;
  ledger_ = ledger;
}

Cma::Storage& Cma::own() {
  // A shared block is copied before the write, so the write reaches no
  // other array; a sole owner writes in place. use_count() is a relaxed
  // read: a count another thread is dropping costs at most one extra copy,
  // and a count of 1 is exact once a sharer destroyed on another thread is
  // ordered before this write (as joining that thread does).
  if (store_.use_count() != 1) store_ = std::make_shared<Storage>(*store_);
  // Every block is made by make_shared<Storage>, so the object is not const.
  return const_cast<Storage&>(*store_);
}

void Cma::set_mode(Mode m) {
  if (m != mode_) {
    mode_ = m;
    // Reconfiguration selects different peripherals (CAM SA vs RAM SA vs
    // accumulator); charged as one controller decision.
    ledger_->charge(Component::kController, profile_->controller_energy);
  }
}

void Cma::check_row(std::size_t row) const {
  IMARS_REQUIRE(row < rows_, "Cma: row " + std::to_string(row) +
                                 " out of range (rows " +
                                 std::to_string(rows_) + ")");
}

void Cma::require_mode(Mode m, const char* op) const {
  IMARS_REQUIRE(mode_ == m, std::string("Cma: operation '") + op +
                                "' requires a different array mode");
}

device::Ns Cma::commit_write(Storage& s, std::size_t row) {
  s.valid[row] = true;
  ledger_->charge(Component::kCmaRam, profile_->cma_write.energy);
  return profile_->cma_write.latency;
}

device::Ns Cma::write_row(std::size_t row, const util::BitVec& bits) {
  require_mode(Mode::kRam, "write_row");
  check_row(row);
  IMARS_REQUIRE(bits.size() == cols_, "Cma::write_row: width mismatch");
  Storage& s = own();
  std::copy_n(bits.words().begin(), words_per_row_, row_words(s, row));
  return commit_write(s, row);
}

const std::uint64_t* Cma::charge_read(std::size_t row,
                                      device::Ns* latency) const {
  require_mode(Mode::kRam, "read_row");
  check_row(row);
  IMARS_REQUIRE(store_->valid[row], "Cma::read_row: row never written");
  ledger_->charge(Component::kCmaRam, profile_->cma_read.energy);
  if (latency != nullptr) *latency = profile_->cma_read.latency;
  return row_words(row);
}

util::BitVec Cma::read_row(std::size_t row, device::Ns* latency) const {
  return util::BitVec::from_words({charge_read(row, latency), words_per_row_},
                                  cols_);
}

device::Ns Cma::write_row_i8(std::size_t row,
                             std::span<const std::int8_t> lanes) {
  IMARS_REQUIRE(lanes.size() == cols_ / 8, "Cma::write_row_i8: lane count");
  require_mode(Mode::kRam, "write_row");
  check_row(row);
  Storage& s = own();
  std::uint64_t* w = row_words(s, row);
  std::fill_n(w, words_per_row_, 0);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const auto byte = static_cast<std::uint8_t>(lanes[l]);
    w[l / 8] |= std::uint64_t{byte} << (l % 8 * 8);
  }
  return commit_write(s, row);
}

std::vector<std::int8_t> Cma::read_row_i8(std::size_t row,
                                          device::Ns* latency) const {
  const std::uint64_t* w = charge_read(row, latency);
  std::vector<std::int8_t> lanes(cols_ / 8);
  for (std::size_t l = 0; l < lanes.size(); ++l) lanes[l] = lane(w, l);
  return lanes;
}

SearchResult Cma::search(const util::BitVec& query,
                         std::size_t threshold) const {
  require_mode(Mode::kTcam, "search");
  IMARS_REQUIRE(query.size() == cols_, "Cma::search: query width mismatch");

  SearchResult result;
  // All matchlines evaluate in parallel: one search is one array operation
  // regardless of row count (O(1) search, Sec II-B).
  ledger_->charge(Component::kCmaSearch, profile_->cma_search.energy);
  const std::uint64_t* q = query.words().data();
  const Storage& s = *store_;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (!s.valid[r]) continue;
    // Mismatch current flows through every cell that differs from the
    // query bit.
    const std::uint64_t* d = s.data.data() + r * words_per_row_;
    std::size_t mismatches = 0;
    for (std::size_t w = 0; w < words_per_row_; ++w)
      mismatches += static_cast<std::size_t>(std::popcount(d[w] ^ q[w]));
    if (mismatches <= threshold) result.matches.push_back(r);
  }
  // Search + priority-encoder pass.
  result.latency = profile_->cma_search.latency;
  return result;
}

device::Ns Cma::add_rows(std::size_t dst_row, std::size_t a_row,
                         std::size_t b_row) {
  require_mode(Mode::kGpcim, "add_rows");
  check_row(dst_row);
  check_row(a_row);
  check_row(b_row);
  IMARS_REQUIRE(store_->valid[a_row] && store_->valid[b_row],
                "Cma::add_rows: source rows must be written");
  Storage& s = own();
  const std::uint64_t* a = row_words(s, a_row);
  const std::uint64_t* b = row_words(s, b_row);
  std::uint64_t* dst = row_words(s, dst_row);
  const std::size_t lanes = cols_ / 8;
  // Each output word depends only on the same word of both sources, so
  // building it in a temporary keeps a destination aliasing a source exact.
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    std::uint64_t out = 0;
    for (std::size_t l = w * 8; l < std::min(lanes, w * 8 + 8); ++l) {
      const auto sum = util::sat_add_i8(lane(a, l), lane(b, l));
      out |= std::uint64_t{static_cast<std::uint8_t>(sum)} << (l % 8 * 8);
    }
    dst[w] = out;
  }
  s.valid[dst_row] = true;
  ledger_->charge(Component::kCmaAdd, profile_->cma_add.energy);
  return profile_->cma_add.latency;
}

device::Ns Cma::accumulate(std::size_t row,
                           std::span<std::int32_t> acc) const {
  require_mode(Mode::kGpcim, "accumulate");
  check_row(row);
  IMARS_REQUIRE(store_->valid[row], "Cma::accumulate: row never written");
  IMARS_REQUIRE(acc.size() == cols_ / 8, "Cma::accumulate: lane count");
  const std::uint64_t* w = row_words(row);
  for (std::size_t l = 0; l < acc.size(); ++l) acc[l] += lane(w, l);
  ledger_->charge(Component::kCmaAdd, profile_->cma_add.energy);
  return profile_->cma_add.latency;
}

bool Cma::row_valid(std::size_t row) const {
  check_row(row);
  return store_->valid[row];
}

const std::uint64_t* Cma::peek_words(std::size_t row) const {
  check_row(row);
  IMARS_REQUIRE(store_->valid[row], "Cma::peek_row: row never written");
  return row_words(row);
}

util::BitVec Cma::peek_row(std::size_t row) const {
  return util::BitVec::from_words({peek_words(row), words_per_row_}, cols_);
}

void Cma::peek_accumulate_i8(std::size_t row,
                             std::span<std::int32_t> acc) const {
  const std::uint64_t* w = peek_words(row);
  IMARS_REQUIRE(acc.size() == cols_ / 8,
                "Cma::peek_accumulate_i8: lane count");
  for (std::size_t l = 0; l < acc.size(); ++l) acc[l] += lane(w, l);
}

}  // namespace imars::cma
