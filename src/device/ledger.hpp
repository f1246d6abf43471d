// Energy/operation accounting, broken down by hardware component.
//
// Every simulated hardware action (CMA read, TCAM search, adder-tree pass,
// bus transfer, ...) charges one ledger entry. Benches aggregate ledgers to
// reproduce the paper's energy columns and the Fig. 2 operation breakdown.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "device/units.hpp"

namespace imars::device {

/// Hardware components that consume energy in iMARS (Fig. 3).
enum class Component : std::uint8_t {
  kCmaRam,        ///< CMA RAM-mode read/write
  kCmaSearch,     ///< CMA TCAM-mode search
  kCmaAdd,        ///< CMA GPCiM-mode in-memory addition
  kIntraMatTree,  ///< intra-mat adder tree
  kIntraBankTree, ///< intra-bank adder tree
  kCrossbar,      ///< crossbar matrix-vector multiply
  kRscBus,        ///< RecSys communication bus
  kIbcNetwork,    ///< intra-bank communication network
  kController,    ///< CTRL block (clock + counters)
  kPeripheral,    ///< array peripherals (drivers, decoders, SAs) per access
  kCount          ///< sentinel
};

/// Human-readable component name.
std::string_view component_name(Component c);

/// Per-component energy and op-count accumulator.
class EnergyLedger {
 public:
  /// Charges `energy` (and one op) to component `c`.
  void charge(Component c, Pj energy);

  /// Charges `energy` and `ops` operations to component `c`.
  void charge(Component c, Pj energy, std::size_t ops);

  Pj energy(Component c) const;
  std::size_t ops(Component c) const;

  /// Total energy across all components.
  Pj total() const;

  /// Opens an order-independent per-call measurement window. While a
  /// capture is open, every charge() also accumulates into a fresh sum
  /// starting at zero, so the measured energy of a code region depends
  /// only on the charges inside it. A `total()` delta does NOT have that
  /// property: floating-point addition makes
  /// `(prior + e1 + ... + en) - prior` depend on the accumulated `prior`
  /// in the last bits, which breaks bit-identical serving reports the
  /// moment call order changes (overlapped execution interleaves
  /// per-shard work differently from phased). Single-level: a nested
  /// begin_capture() is a bug.
  void begin_capture();

  /// Closes the window; returns the energy charged since begin_capture().
  Pj end_capture();

  /// Resets all counters (and abandons any open capture).
  void clear();

 private:
  std::array<double, static_cast<std::size_t>(Component::kCount)> energy_pj_{};
  std::array<std::size_t, static_cast<std::size_t>(Component::kCount)> ops_{};
  double capture_pj_ = 0.0;
  bool capturing_ = false;
};

/// RAII capture window: opens on construction and guarantees the window
/// closes on scope exit even when the measured region throws (a rejected
/// op must leave the ledger usable for the next call). Call take() to
/// close the window and read the captured energy on the success path.
class ScopedEnergyCapture {
 public:
  explicit ScopedEnergyCapture(EnergyLedger& ledger) : ledger_(&ledger) {
    ledger_->begin_capture();
  }
  ~ScopedEnergyCapture() {
    if (open_) (void)ledger_->end_capture();
  }
  ScopedEnergyCapture(const ScopedEnergyCapture&) = delete;
  ScopedEnergyCapture& operator=(const ScopedEnergyCapture&) = delete;

  /// Closes the window and returns the energy charged inside it.
  Pj take() {
    open_ = false;
    return ledger_->end_capture();
  }

 private:
  EnergyLedger* ledger_;
  bool open_ = true;
};

}  // namespace imars::device
