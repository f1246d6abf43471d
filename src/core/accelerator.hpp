// The iMARS machine (Fig. 3(a)): CMA banks holding embedding tables,
// near-memory adder trees, the RSC bus / IBC network, and the controller.
//
// The accelerator is *functional*: embedding rows and LSH signatures really
// live in simulated CMA bit arrays, lookups really read them, the TCAM
// search really evaluates matchlines, pooling really runs through the
// in-memory accumulator and adder trees. Every operation simultaneously
// charges the Table II energy FoM to the ledger and composes latency the
// way the paper does: CMAs within a mat and mats within a bank operate in
// parallel, banks operate in parallel, accumulation and bus traffic
// serialize under the controller's fixed schedule.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adder/adder_tree.hpp"
#include "cma/cma.hpp"
#include "core/config.hpp"
#include "core/mapping.hpp"
#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "noc/bus.hpp"
#include "noc/controller.hpp"
#include "recsys/types.hpp"
#include "tensor/qtensor.hpp"
#include "util/bitvec.hpp"

namespace imars::core {

/// One lookup+pool request against a loaded table.
struct LookupRequest {
  std::size_t table_id = 0;
  std::vector<std::size_t> indices;
  bool mean_pool = false;  ///< divide by count in the digital periphery
};

/// Result of a pooled lookup: int32 lanes (pre-division) + the table's
/// quantization scale. value[i] = scale * lanes[i] (/ count if mean).
struct PooledResult {
  std::vector<std::int32_t> lanes;
  float scale = 1.0f;
  std::size_t count = 0;
  bool mean_pool = false;

  /// Dequantized float view.
  tensor::Vector dequantized() const;
};

/// Timing mode for ET operations (Sec IV-C1 uses the worst case).
enum class TimingMode {
  kActualPlacement,    ///< serialize only true same-CMA collisions
  kWorstCaseSameArray, ///< paper's model: all of a table's lookups collide
};

/// The iMARS accelerator fabric.
class ImarsAccelerator {
 public:
  ImarsAccelerator(const ArchConfig& arch,
                   const device::DeviceProfile& profile);

  /// Replica of `image` on `profile`: shares the image's loaded tables (the
  /// CMA bits, copy-on-write; see cma::Cma) and builds its own ledger, NoC,
  /// adder trees and CTR buffer, so every charge follows `profile`. The
  /// image may be destroyed first. `profile` needs the image's geometry.
  ImarsAccelerator(const ImarsAccelerator& image,
                   const device::DeviceProfile& profile);

  // Components keep pointers to profile_ and ledger_: no copy or move.
  ImarsAccelerator(const ImarsAccelerator&) = delete;
  ImarsAccelerator& operator=(const ImarsAccelerator&) = delete;
  ImarsAccelerator(ImarsAccelerator&&) = delete;
  ImarsAccelerator& operator=(ImarsAccelerator&&) = delete;

  const ArchConfig& arch() const noexcept { return arch_; }

  /// The accelerator's own stable copy of the device profile (safe to pass
  /// to components that keep references, e.g. xbar::XbarMlp).
  const device::DeviceProfile& profile() const noexcept { return profile_; }
  device::EnergyLedger& ledger() noexcept { return ledger_; }
  const device::EnergyLedger& ledger() const noexcept { return ledger_; }

  /// Clears accumulated energy (e.g. after one-time table loading).
  void reset_energy() { ledger_.clear(); }

  // --- Table loading (one-time) ----------------------------------------

  /// Loads a UIET; returns its table id. Rows are written CMA by CMA.
  std::size_t load_uiet(const std::string& name, const tensor::QMatrix& table);

  /// Loads the ItET with per-entry LSH signatures (paired signature CMAs).
  std::size_t load_itet(const std::string& name, const tensor::QMatrix& table,
                        std::span<const util::BitVec> signatures);

  std::size_t table_count() const noexcept { return banks_.size(); }
  std::size_t table_rows(std::size_t table_id) const;

  /// Active-resource census (functional-machine version of Table I).
  std::size_t active_banks() const noexcept { return banks_.size(); }
  std::size_t active_mats() const;
  std::size_t active_cmas() const;

  /// A table's data arrays and (ItET only) signature arrays, read-only:
  /// for audits of the stored image and the array modes.
  std::span<const cma::Cma> data_cmas(std::size_t table_id) const;
  std::span<const cma::Cma> sig_cmas(std::size_t table_id) const;

  // --- ET operations -----------------------------------------------------

  /// Executes several table lookups in parallel (one bank per table).
  /// Latency: max over banks + serialized RSC transfers; adds into `cost`
  /// when non-null.
  std::vector<PooledResult> lookup_pooled(std::span<const LookupRequest> reqs,
                                          TimingMode mode,
                                          recsys::OpCost* cost);

  /// Reads one embedding row (RAM mode; used by the ranking stage item
  /// fetch). Adds into `cost` when non-null.
  PooledResult read_row(std::size_t table_id, std::size_t row,
                        recsys::OpCost* cost);

  /// Fixed-radius NNS over the ItET signature CMAs (TCAM threshold match,
  /// all arrays in parallel). Returns matching entry ids (ascending).
  std::vector<std::size_t> nns(std::size_t itet_id, const util::BitVec& query,
                               std::size_t radius, recsys::OpCost* cost);

  /// Top-k over CTR scores using the CTR-buffer CMA: scores are written as
  /// int8 rows and selected with threshold matches against an all-ones
  /// query, sweeping the dummy-cell reference (binary search, worst case
  /// log2(levels) searches). Returns candidate positions sorted by
  /// descending score.
  std::vector<std::size_t> topk_ctr(std::span<const float> scores,
                                    std::size_t k, recsys::OpCost* cost);

 private:
  struct BankState {
    std::string name;
    float scale = 1.0f;
    std::size_t rows = 0;
    bool has_sigs = false;
    RowPlacement placement = RowPlacement::kSequential;
    std::vector<cma::Cma> data_cmas;
    std::vector<cma::Cma> sig_cmas;
  };

  BankState& bank(std::size_t table_id);
  const BankState& bank(std::size_t table_id) const;

  /// Lookup+pool within one bank; returns pooled lanes and the bank-local
  /// latency (parallel mats, serialized accumulation).
  PooledResult bank_lookup(BankState& b, const LookupRequest& req,
                           TimingMode mode, device::Ns* latency);

  ArchConfig arch_;
  // Owned copy: callers may pass a temporary profile (value semantics keep
  // the internal component pointers valid for the accelerator's lifetime).
  device::DeviceProfile profile_;
  device::EnergyLedger ledger_;
  EtMapping mapping_;
  noc::RscBus rsc_;
  noc::IbcNetwork ibc_;
  noc::Controller controller_;
  adder::IntraBankAdderTree bank_tree_;
  std::vector<BankState> banks_;
  std::unique_ptr<cma::Cma> ctr_buffer_;
};

}  // namespace imars::core
