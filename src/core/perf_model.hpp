// Closed-form performance model (the paper's Sec IV-C composition).
//
// PerfModel mirrors the accounting rules of ImarsAccelerator analytically so
// the table benches can evaluate worst-case costs without instantiating the
// functional machine, and so tests can cross-check that the two never
// diverge. Each formula's derivation is commented at its definition in
// perf_model.cpp; the calibration constants live in core/calibration.hpp.
#pragma once

#include <cstddef>
#include <span>

#include "core/config.hpp"
#include "device/profile.hpp"
#include "recsys/types.hpp"

namespace imars::core {

/// Inputs of the worst-case ET-lookup cost (Table III).
struct EtLookupParams {
  std::size_t tables = 1;             ///< banks touched in parallel
  std::size_t lookups_per_table = 1;  ///< L, serialized in one array
  std::size_t mats_per_table = 1;     ///< contributing mats (worst case: 1)
  std::size_t active_cmas = 0;        ///< arrays of all touched tables
};

/// Analytical iMARS cost model.
class PerfModel {
 public:
  PerfModel(const ArchConfig& arch, const device::DeviceProfile& profile);

  /// Worst-case ET lookup+pool cost for one input (Sec IV-C1).
  recsys::OpCost et_lookup(const EtLookupParams& params) const;

  /// NNS cost: one parallel TCAM search over `sig_cmas` signature arrays.
  recsys::OpCost nns(std::size_t sig_cmas) const;

  /// Crossbar DNN forward cost for an MLP with the given layer widths
  /// (dims = {in, h1, ..., out}).
  recsys::OpCost dnn(std::span<const std::size_t> dims) const;

  /// Top-k through the CTR buffer over `candidates` scores, worst case
  /// (full threshold binary search).
  recsys::OpCost topk(std::size_t candidates, std::size_t k) const;

  // --- Hot-embedding cache costs (serving extension) --------------------
  // The serve/ subsystem uses these to swap device-accounted ET row costs
  // for buffer-hit costs without re-running the functional machine, so the
  // batched/pipelined throughput numbers stay anchored to Table II.

  /// One ET row fetched in RAM mode and moved over the RSC bus (the
  /// ranking-stage item fetch; the cache-miss cost of a row read).
  recsys::OpCost row_fetch() const;

  /// One row folded into an in-array pooled accumulation (the cache-miss
  /// cost of a pooled UIET/ItET lookup row).
  recsys::OpCost pooled_row() const;

  /// One row served from the controller-periphery hot-row SRAM buffer
  /// (the cache-hit cost: no CMA access, no RSC transfer).
  recsys::OpCost cached_row() const;

  /// One ET row written back to its CMA array over the RSC bus (embedding-
  /// update write-through, and the dirty-row flush of the write-back
  /// cache). The RAM-mode row write is the dual of row_fetch()'s read.
  recsys::OpCost row_write() const;

  /// One embedding-update row absorbed into the periphery hot-row buffer
  /// (write-back fill: no CMA write, no RSC transfer — the array write is
  /// deferred until the dirty row is evicted).
  recsys::OpCost buffer_fill() const;

  // --- Tiered embedding memory (serving extension) ----------------------

  /// One cold-tier block fault pulling `rows` rows into the warm arrays:
  /// block initiation, then per-row bulk streaming plus the row's RSC
  /// serialization into its array. Zero cost for rows == 0 (tier
  /// disabled).
  recsys::OpCost cold_block_fetch(std::size_t rows) const;

  /// One dirty row flushed past the warm arrays into the cold bulk tier:
  /// the extra stream-out on top of row_write() (which covers the array
  /// write + RSC transfer).
  recsys::OpCost cold_flush_extra() const;

  const ArchConfig& arch() const noexcept { return arch_; }
  const device::DeviceProfile& profile() const noexcept { return profile_; }

 private:
  /// Scheduled IBC groups for `mats` outputs at the intra-bank fan-in.
  std::size_t ibc_groups(std::size_t mats) const;
  /// Intra-bank tree rounds for `mats` inputs (>= 1 pass even for one mat).
  std::size_t bank_rounds(std::size_t mats) const;

  ArchConfig arch_;
  // Owned copy: callers may pass a temporary profile.
  device::DeviceProfile profile_;
};

}  // namespace imars::core
