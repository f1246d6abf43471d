// iMARS architecture parameters (Sec III-A, IV).
#pragma once

#include <cstddef>
#include <cstdint>

namespace imars::core {

/// How embedding-table rows map onto the CMAs of a bank.
enum class RowPlacement : std::uint8_t {
  /// Row r -> CMA r/R, local row r%R (the paper's layout: consecutive rows
  /// fill one array before the next one starts).
  kSequential,
  /// Row r -> CMA r%n, local row r/n (extension: interleaving spreads
  /// multi-hot lookups across arrays, trading the paper's simple layout for
  /// fewer same-array collisions in the actual-placement timing mode).
  kStriped,
};

/// Dimensioning of the iMARS fabric. Defaults follow the paper's evaluation
/// configuration, sized for the largest workload (Criteo Kaggle, Sec IV):
/// B=32 banks (26 sparse features + headroom), M=4 mats per bank, C=32 CMAs
/// per mat, 256x256 CMAs, intra-bank adder fan-in 4.
struct ArchConfig {
  std::size_t banks = 32;          ///< B
  std::size_t mats_per_bank = 4;   ///< M
  std::size_t cmas_per_mat = 32;   ///< C
  std::size_t cma_rows = 256;      ///< R (rows per CMA)
  std::size_t cma_cols = 256;      ///< one 32-d int8 embedding per row
  std::size_t bank_fan_in = 4;     ///< intra-bank adder tree fan-in
  std::size_t lsh_bits = 256;      ///< ItET signature length (Sec III-B)
  std::size_t emb_dim = 32;        ///< int8 lanes per row
  RowPlacement placement = RowPlacement::kSequential;  ///< paper default

  /// Capacity of one bank in ET rows (single-CMA entries).
  std::size_t bank_capacity_rows() const {
    return mats_per_bank * cmas_per_mat * cma_rows;
  }

  /// Total CMA count when fully populated.
  std::size_t total_cmas() const {
    return banks * mats_per_bank * cmas_per_mat;
  }
};

}  // namespace imars::core
