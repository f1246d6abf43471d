// Array-level figures of merit (paper Table II) and technology presets.
//
// The paper obtains these numbers from HSPICE simulation of a complete
// 256x256 FeFET CMA (Preisach FeFET model + 45nm PTM), RTL synthesis of the
// adder trees / communication network (NanGate 45nm), and Neurosim for the
// crossbars. We carry the published values as the device layer; the rest of
// the system composes them exactly as the paper does (Sec IV-A).
#pragma once

#include <cstddef>
#include <string>

#include "device/units.hpp"

namespace imars::device {

/// Energy + latency of a single array-level operation.
struct OpCost {
  Pj energy;
  Ns latency;
};

/// Full device profile for one technology point.
struct DeviceProfile {
  std::string name;

  // --- CMA (256x256), Table II rows 1-4 -------------------------------
  std::size_t cma_rows = 256;
  std::size_t cma_cols = 256;
  OpCost cma_write;    ///< one row write (RAM mode)
  OpCost cma_read;     ///< one row read (RAM mode)
  OpCost cma_add;      ///< one in-memory addition (GPCiM mode)
  OpCost cma_search;   ///< one full-array TCAM threshold search

  // --- Near-memory adder trees, Table II rows 5-6 ----------------------
  OpCost intra_mat_add;   ///< 256-bit add across the C CMAs of one mat
  OpCost intra_bank_add;  ///< 256-bit add across 4 mats (fan-in 4)

  // --- Crossbar (256x128), Table II row 7 ------------------------------
  std::size_t xbar_rows = 256;
  std::size_t xbar_cols = 128;
  OpCost xbar_matmul;  ///< one tile matrix-vector multiply

  // --- Hot-embedding buffer (serving extension) ------------------------
  /// One row read from the digital hot-row SRAM buffer at the controller
  /// periphery (the serve/ hot-embedding cache). A hit serves the row
  /// without touching the CMA arrays or the serialized RSC bus. Register-
  /// file-class SRAM macro, NanGate 45nm synthesis numbers.
  OpCost cache_read{Pj{1.1}, Ns{0.5}};

  /// One row write into the hot-row SRAM buffer (periphery-buffer fill: a
  /// write-back cache absorbs embedding-update traffic here instead of
  /// paying the CMA write). Same register-file-class macro as cache_read;
  /// writes cost slightly more than reads (full bitline swing).
  OpCost cache_write{Pj{1.4}, Ns{0.6}};

  // --- Tiered embedding memory (serving extension) ---------------------
  /// Initiation cost of one cold-tier block fault: command decode, bulk
  /// row-address setup and sense-amp precharge before the block streams
  /// out. The cold tier models dense bulk FeFET/ReRAM banks behind the
  /// working arrays (RecFlash-style capacity tier); access is block-
  /// granular, so the initiation is paid once per fault.
  OpCost cold_block_access{Pj{220.0}, Ns{180.0}};
  /// Per-row streaming cost while a faulted block drains into the warm
  /// arrays (pipelined bulk read + array write; the RSC transfer of each
  /// row is charged separately at the usual per-row serialization).
  OpCost cold_row_stream{Pj{60.0}, Ns{12.0}};

  /// Per-layer digital overhead of a crossbar DNN pass (DAC input streaming,
  /// ADC conversion, activation periphery). Calibrated so that the filtering
  /// DNN stack (3 layers) reproduces the paper's reported 2.69x improvement
  /// over the GPU DNN stack (Sec IV-C3): 6.3us / 2.69 = 2.34us for 3 layers
  /// -> 0.78us per layer, of which 0.225us is the Table II matmul itself.
  Ns xbar_layer_overhead{555.0};
  Pj xbar_layer_energy{300.0};

  // --- Communication (RSC bus / IBC network, Sec III-A3) ---------------
  // The paper states the widths (RSC 256-bit, IBC 128 B/shot) and that the
  // serialization overhead is included in its results, but does not publish
  // the cycle-level numbers; these follow the NanGate 45nm synthesis numbers
  // typical of on-chip buses of those widths. The RSC term is part of the
  // serialized sequence kWorstCaseLookupsPerTable is solved against
  // (core/calibration.hpp).
  std::size_t rsc_bus_bits = 256;
  Ns rsc_cycle{2.0};        ///< per 256-bit transfer on the RSC bus
  Pj rsc_energy{12.0};      ///< per 256-bit transfer
  std::size_t ibc_shot_bytes = 128;
  Ns ibc_cycle{1.5};        ///< per 128-byte IBC shot
  Pj ibc_energy{20.0};      ///< per 128-byte IBC shot
  Ns controller_cycle{1.0}; ///< per scheduling decision of the CTRL block
  Pj controller_energy{0.5};

  /// Write-endurance budget of one cell (polarization switches for FeFET,
  /// SET/RESET cycles for ReRAM; effectively unlimited for SRAM).
  std::uint64_t endurance_cycles = 100000000000ULL;  // FeFET ~1e11

  // --- Area proxies (relative units; for the dimensioning ablation) ----
  double cma_area = 1.0;    ///< one 256x256 CMA
  double xbar_area = 0.35;  ///< one 256x128 crossbar
  double mat_tree_area = 0.12;
  double bank_tree_area = 0.40;

  /// FeFET 45nm profile: exactly the paper's Table II.
  static DeviceProfile fefet45();

  /// CMOS 45nm (push-rule 6T CMA per Jeloka et al. [15]): larger cells,
  /// higher search/leakage energy, faster writes. Illustrative preset for
  /// the technology ablation (the paper cites FeFET > CMOS density/energy).
  static DeviceProfile cmos45();

  /// ReRAM 45nm: comparable reads, much slower/most costly writes.
  /// Illustrative preset for the technology ablation.
  static DeviceProfile reram45();

  /// FeFET on 22nm FDSOI (Dunkel et al., IEDM'17 [10], which the paper
  /// cites for large-scale FeFET feasibility): documented scaling of the
  /// 45nm point for the technology-scaling ablation.
  static DeviceProfile fefet22();
};

}  // namespace imars::device
