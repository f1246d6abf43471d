#include "core/perf_model.hpp"

#include "core/calibration.hpp"
#include "util/error.hpp"

namespace imars::core {

using device::Ns;
using device::Pj;
using recsys::OpCost;

PerfModel::PerfModel(const ArchConfig& arch,
                     const device::DeviceProfile& profile)
    : arch_(arch), profile_(profile) {}

std::size_t PerfModel::ibc_groups(std::size_t mats) const {
  if (mats == 0) return 0;
  if (mats <= arch_.bank_fan_in) return 1;
  const std::size_t per_round = arch_.bank_fan_in - 1;
  return 1 + (mats - arch_.bank_fan_in + per_round - 1) / per_round;
}

std::size_t PerfModel::bank_rounds(std::size_t mats) const {
  // Matches ImarsAccelerator: a single mat still crosses the intra-bank
  // stage once; K mats need the multi-round formula.
  if (mats <= 1) return 1;
  if (mats <= arch_.bank_fan_in) return 1;
  const std::size_t per_round = arch_.bank_fan_in - 1;
  return 1 + (mats - arch_.bank_fan_in + per_round - 1) / per_round;
}

OpCost PerfModel::et_lookup(const EtLookupParams& params) const {
  IMARS_REQUIRE(params.tables >= 1 && params.lookups_per_table >= 1,
                "PerfModel::et_lookup: degenerate parameters");
  const auto& p = profile_;
  const double L = static_cast<double>(params.lookups_per_table);
  const double T = static_cast<double>(params.tables);
  const std::size_t mats = std::max<std::size_t>(params.mats_per_table, 1);

  // Array phase (worst case, all L lookups in one array, banks parallel):
  // read + (L-1) x (read + write + add).
  const Ns array_lat = p.cma_read.latency * L +
                       (p.cma_write.latency + p.cma_add.latency) * (L - 1.0);
  const Pj array_energy =
      (p.cma_read.energy * L +
       (p.cma_write.energy + p.cma_add.energy) * (L - 1.0)) *
      T;

  // Adder trees + IBC.
  const Ns tree_lat = p.intra_mat_add.latency;
  const Pj tree_energy =
      p.intra_mat_add.energy * static_cast<double>(mats) * T;
  const std::size_t groups = ibc_groups(mats);
  const Ns ibc_lat = p.ibc_cycle * static_cast<double>(groups);
  const Pj ibc_energy = p.ibc_energy * static_cast<double>(groups) * T;
  const std::size_t rounds = bank_rounds(mats);
  const Ns bank_lat = p.intra_bank_add.latency * static_cast<double>(rounds);
  const Pj bank_energy =
      p.intra_bank_add.energy * static_cast<double>(rounds) * T;

  // Controller: one decision per IBC group and one mode reconfiguration per
  // table's (single, worst-case) array group.
  const Pj ctrl_energy =
      p.controller_energy * static_cast<double>(groups + 1) * T;

  // RSC serialization: index distribution in + one 256-bit result per bank.
  const std::size_t idx_bytes =
      params.tables * params.lookups_per_table * 4;
  const std::size_t rsc_cycles =
      (idx_bytes * 8 + p.rsc_bus_bits - 1) / p.rsc_bus_bits + params.tables;
  const Ns rsc_lat = p.rsc_cycle * static_cast<double>(rsc_cycles);
  const Pj rsc_energy = p.rsc_energy * static_cast<double>(rsc_cycles);

  // Peripheral overhead of every array in the activated tables.
  const Pj peripheral{kPeripheralPjPerActiveCmaPerOp *
                      static_cast<double>(params.active_cmas)};

  OpCost cost;
  cost.latency = array_lat + tree_lat + ibc_lat + bank_lat + rsc_lat;
  cost.energy = array_energy + tree_energy + ibc_energy + bank_energy +
                ctrl_energy + rsc_energy + peripheral;
  return cost;
}

OpCost PerfModel::nns(std::size_t sig_cmas) const {
  const auto& p = profile_;
  OpCost cost;
  cost.latency = p.cma_search.latency + p.controller_cycle;
  cost.energy = p.cma_search.energy * static_cast<double>(sig_cmas) +
                p.controller_energy +
                Pj{kSearchPeripheralPjPerActiveCma *
                   static_cast<double>(sig_cmas)};
  return cost;
}

OpCost PerfModel::dnn(std::span<const std::size_t> dims) const {
  IMARS_REQUIRE(dims.size() >= 2, "PerfModel::dnn: need >= 2 dims");
  const auto& p = profile_;
  OpCost cost;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const std::size_t rt = (dims[i] + p.xbar_rows - 1) / p.xbar_rows;
    const std::size_t ct = (dims[i + 1] + p.xbar_cols - 1) / p.xbar_cols;
    std::size_t merge_levels = 0;
    for (std::size_t n = rt; n > 1; n = (n + 1) / 2) ++merge_levels;
    cost.latency += p.xbar_matmul.latency +
                    p.controller_cycle * static_cast<double>(merge_levels) +
                    p.xbar_layer_overhead;
    cost.energy += p.xbar_matmul.energy * static_cast<double>(rt * ct) +
                   p.controller_energy * static_cast<double>(merge_levels) +
                   p.xbar_layer_energy;
  }
  return cost;
}

OpCost PerfModel::topk(std::size_t candidates, std::size_t k) const {
  (void)k;  // the sweep depth is independent of k in the worst case
  const auto& p = profile_;
  // Serialized CTR writes, then a full binary search of the threshold
  // (log2(cols) probes), then the k result ids on the RSC bus.
  std::size_t probes = 0;
  for (std::size_t n = arch_.cma_cols; n > 1; n /= 2) ++probes;
  OpCost cost;
  cost.latency = p.cma_write.latency * static_cast<double>(candidates) +
                 p.cma_search.latency * static_cast<double>(probes) +
                 p.rsc_cycle;
  cost.energy = p.cma_write.energy * static_cast<double>(candidates) +
                p.cma_search.energy * static_cast<double>(probes) +
                p.rsc_energy + Pj{kSearchPeripheralPjPerActiveCma};
  return cost;
}

OpCost PerfModel::row_fetch() const {
  const auto& p = profile_;
  // RAM-mode row read + one 32-byte embedding transfer on the RSC bus
  // (matches ImarsAccelerator::read_row's accounting).
  const std::size_t bytes = arch_.emb_dim;  // int8 lanes
  const std::size_t cycles =
      (bytes * 8 + p.rsc_bus_bits - 1) / p.rsc_bus_bits;
  OpCost cost;
  cost.latency = p.cma_read.latency + p.rsc_cycle * static_cast<double>(cycles);
  cost.energy = p.cma_read.energy + p.rsc_energy * static_cast<double>(cycles);
  return cost;
}

OpCost PerfModel::pooled_row() const {
  const auto& p = profile_;
  // One additional row folded into the running in-array sum: read +
  // write-back + GPCiM add (the per-lookup increment of et_lookup's
  // serialized array phase).
  OpCost cost;
  cost.latency =
      p.cma_read.latency + p.cma_write.latency + p.cma_add.latency;
  cost.energy = p.cma_read.energy + p.cma_write.energy + p.cma_add.energy;
  return cost;
}

OpCost PerfModel::cached_row() const {
  return OpCost{profile_.cache_read.latency, profile_.cache_read.energy};
}

OpCost PerfModel::row_write() const {
  const auto& p = profile_;
  // One 32-byte embedding transfer over the RSC bus into the array, then a
  // RAM-mode row write (the dual of row_fetch's read + transfer).
  const std::size_t bytes = arch_.emb_dim;  // int8 lanes
  const std::size_t cycles =
      (bytes * 8 + p.rsc_bus_bits - 1) / p.rsc_bus_bits;
  OpCost cost;
  cost.latency =
      p.cma_write.latency + p.rsc_cycle * static_cast<double>(cycles);
  cost.energy =
      p.cma_write.energy + p.rsc_energy * static_cast<double>(cycles);
  return cost;
}

OpCost PerfModel::buffer_fill() const {
  return OpCost{profile_.cache_write.latency, profile_.cache_write.energy};
}

OpCost PerfModel::cold_block_fetch(std::size_t rows) const {
  if (rows == 0) return OpCost{};
  const auto& p = profile_;
  // One block initiation, then every row of the block streams out of the
  // bulk tier and crosses the RSC bus into its warm array (the same
  // per-row serialization row_fetch() charges).
  const std::size_t bytes = arch_.emb_dim;  // int8 lanes
  const std::size_t cycles =
      (bytes * 8 + p.rsc_bus_bits - 1) / p.rsc_bus_bits;
  const double r = static_cast<double>(rows);
  OpCost cost;
  cost.latency = p.cold_block_access.latency +
                 (p.cold_row_stream.latency +
                  p.rsc_cycle * static_cast<double>(cycles)) *
                     r;
  cost.energy = p.cold_block_access.energy +
                (p.cold_row_stream.energy +
                 p.rsc_energy * static_cast<double>(cycles)) *
                    r;
  return cost;
}

OpCost PerfModel::cold_flush_extra() const {
  const auto& p = profile_;
  return OpCost{p.cold_row_stream.latency, p.cold_row_stream.energy};
}

}  // namespace imars::core
