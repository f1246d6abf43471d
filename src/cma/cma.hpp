// Functional + timed model of one FeFET-based Configurable Memory Array
// (Sec II-B, III-A1; circuit details in Reis et al., ASPDAC'21 [9]).
//
// A CMA is a 256x256 memory array that switches between three modes:
//   * RAM   — row-wise read/write through WL/BL drivers and RAM sense amps;
//   * TCAM  — all rows searched in parallel against a query on the search
//             lines; each cell XORs its stored bit with the query bit and
//             mismatch currents sum on the row's matchline. A CAM sense amp
//             compares the matchline current against a reference generated
//             by a dummy 1T+1FeFET cell, implementing *threshold* match:
//             row matches iff HammingDistance(row, query) <= threshold.
//   * GPCiM — two rows are activated simultaneously and an accumulator next
//             to the RAM sense amps produces their lane-wise integer sum
//             (32 lanes x int8 for the paper's 32-d embeddings).
//
// The functional behaviour here is bit-accurate; each operation charges the
// Table II figures of merit to an EnergyLedger and returns its latency so
// the caller can compose serial/parallel schedules.
//
// Storage layout. The whole array is one contiguous buffer of 64-bit words,
// row-major: with W = ceil(cols/64), row r occupies words [r*W, r*W + W),
// and bit c of the row lives in word c/64 at position c%64 (util::BitVec's
// word layout, so read_row/write_row copy words verbatim). Int8 lane l
// occupies bits [8l, 8l+8), i.e. byte l%8 of word l/8 with bit 8l as the
// LSB; a lane never straddles words. Bits past `cols` in a row's last word
// are always zero, like a query BitVec's tail, so they never mismatch in a
// search.
//
// A 256-column row costs 32 B of host memory (plus its valid bit).
// Thousands of arrays per accelerator make this the simulator's largest
// host-memory cost, so the bits and valid flags live in one shared,
// copy-on-write block: a copy or a replica (Cma(image, profile, ledger))
// shares its source's block, and every mutator first takes a private copy
// if the block is shared. Shard replicas of one model therefore hold one
// table image between them, and a write to any array is seen by no other.
// Profile, ledger and mode are per array.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "util/bitvec.hpp"

namespace imars::cma {

/// Operating mode of the array (one at a time; Sec II-B "CMAs can work as
/// either TCAM or GPCiM units at distinct times").
enum class Mode : std::uint8_t {
  kRam,
  kTcam,
  kGpcim,
};

/// Result of a TCAM threshold search.
struct SearchResult {
  std::vector<std::size_t> matches;  ///< matching row indices, ascending
  device::Ns latency;                ///< search + priority-encode time
};

/// One 256x256 configurable memory array.
class Cma {
 public:
  /// Array with the profile's geometry. `ledger` (non-owning, required)
  /// receives all energy charges. The array keeps a pointer to `profile`,
  /// which must outlive it — arrays are instantiated by the thousands, so
  /// the owner (e.g. core::ImarsAccelerator) holds one stable copy.
  Cma(const device::DeviceProfile& profile, device::EnergyLedger* ledger);

  /// Replica of `image`: shares its stored bits and valid flags
  /// (copy-on-write, see above) and starts in its mode, but charges
  /// `ledger` at `profile`'s figures of merit. `profile` must have the
  /// image's geometry and, as above, outlive the array.
  Cma(const Cma& image, const device::DeviceProfile& profile,
      device::EnergyLedger* ledger);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  Mode mode() const noexcept { return mode_; }

  /// Switches operating mode. Reconfiguration itself is charged to the
  /// controller (peripheral mux select), not the array.
  void set_mode(Mode m);

  // --- RAM mode ---------------------------------------------------------

  /// Writes a full row. Requires RAM mode.
  device::Ns write_row(std::size_t row, const util::BitVec& bits);

  /// Reads a full row. Requires RAM mode.
  util::BitVec read_row(std::size_t row, device::Ns* latency = nullptr) const;

  /// Writes int8 lanes into a row (lane i occupies bits [8i, 8i+8)).
  device::Ns write_row_i8(std::size_t row, std::span<const std::int8_t> lanes);

  /// Reads int8 lanes from a row.
  std::vector<std::int8_t> read_row_i8(std::size_t row,
                                       device::Ns* latency = nullptr) const;

  // --- TCAM mode --------------------------------------------------------

  /// Threshold search: returns all valid rows with Hamming distance
  /// <= threshold from `query`. Requires TCAM mode. Invalid
  /// (never-written) rows do not match.
  SearchResult search(const util::BitVec& query, std::size_t threshold) const;

  // --- GPCiM mode -------------------------------------------------------

  /// In-memory addition: dst_row = saturate_i8(lane-wise a_row + b_row).
  /// All three rows live in this array. Requires GPCiM mode.
  device::Ns add_rows(std::size_t dst_row, std::size_t a_row,
                      std::size_t b_row);

  /// Reads row `row` and accumulates its int8 lanes into `acc` (int32 lanes)
  /// using the accumulator register beside the RAM sense amps. This is the
  /// pooling primitive: repeated accumulate() implements multi-lookup sum
  /// pooling without wearing out cells. Requires GPCiM mode.
  device::Ns accumulate(std::size_t row, std::span<std::int32_t> acc) const;

  /// True if the row has ever been written.
  bool row_valid(std::size_t row) const;

  // --- Simulator-internal access ----------------------------------------

  /// Unaccounted row read used by composite models that charge energy and
  /// latency at a coarser grain (see core::ImarsAccelerator, which applies
  /// the paper's worst-case ET-lookup cost model on top of functional
  /// access). Not part of the hardware API: no mode check, no charge.
  util::BitVec peek_row(std::size_t row) const;

  /// Unaccounted, allocation-free acc[l] += lane l of `row` (see peek_row).
  /// `acc` must hold cols/8 lanes.
  void peek_accumulate_i8(std::size_t row, std::span<std::int32_t> acc) const;

 private:
  /// The programmed contents a copy or replica shares with its source.
  struct Storage {
    std::vector<std::uint64_t> data;  ///< rows x words_per_row_ stored bits
    std::vector<bool> valid;          ///< row has been written
  };

  /// The storage for writing: copied first if any other array shares it.
  Storage& own();

  void check_row(std::size_t row) const;
  void require_mode(Mode m, const char* op) const;
  /// RAM-mode read checks + charge shared by read_row and read_row_i8.
  const std::uint64_t* charge_read(std::size_t row, device::Ns* latency) const;
  /// Valid-row check shared by the peek_* views.
  const std::uint64_t* peek_words(std::size_t row) const;
  /// Marks a freshly stored row written and charges the RAM write.
  device::Ns commit_write(Storage& s, std::size_t row);

  std::uint64_t* row_words(Storage& s, std::size_t row) noexcept {
    return s.data.data() + row * words_per_row_;
  }
  const std::uint64_t* row_words(std::size_t row) const noexcept {
    return store_->data.data() + row * words_per_row_;
  }

  const device::DeviceProfile* profile_;
  device::EnergyLedger* ledger_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t words_per_row_;
  Mode mode_ = Mode::kRam;
  /// Read-only here; only own() hands out a writable reference.
  std::shared_ptr<const Storage> store_;
};

}  // namespace imars::cma
