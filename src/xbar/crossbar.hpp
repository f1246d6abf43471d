// 256x128 crossbar array for matrix-vector multiplication (Sec III-A2).
//
// Crossbars hold the DNN-stack weights: every input (row) connects to every
// output (column) through a memory cell whose conductance encodes an int8
// weight; driving the rows with the input vector produces column currents
// proportional to the dot products. The functional model computes the exact
// integer gemv (the paper quantizes the DNN to int8 and evaluates crossbars
// with Neurosim's 45nm FeFET FoM, Table II row 7).
//
// Geometry convention: a tile holds `rows` input lanes x `cols` output
// lanes, i.e. it computes out[c] = sum_r w[r][c] * in[r].
//
// Storage: a tile keeps only its occupied block, the used_rows() x
// used_cols() weights load_weights() programmed; every other cell is 0, is
// never driven and adds nothing to any sum. Each stored row is padded with
// zeros to a multiple of 16 columns, and the kernel runs fixed 16-lane
// int8 -> int32 steps over the occupied rows and columns only: a 128 -> 1
// layer computes one 16-lane block, not 128 columns. Integer sums are
// exact, so the outputs equal the full-tile product.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "tensor/qtensor.hpp"

namespace imars::xbar {

/// One crossbar tile.
class Crossbar {
 public:
  Crossbar(const device::DeviceProfile& profile, device::EnergyLedger* ledger);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// The occupied block: the shape of the last load_weights() (0 x 0 before
  /// any).
  std::size_t used_rows() const noexcept { return used_rows_; }
  std::size_t used_cols() const noexcept { return used_cols_; }

  /// Programs the tile with `w` (r x c <= rows x cols) as its occupied
  /// block; every other cell is 0. Programming cost is accounted as
  /// one-time CMA-RAM-class writes.
  void load_weights(const tensor::QMatrix& w);

  /// Tile gemv over the occupied block, added into `out`:
  /// out[c] += sum_r w[r][c] * in[r], with in.size() == used_rows() and
  /// out.size() == used_cols() (the other lanes contribute and sense 0).
  /// Charges one xbar matmul FoM; latency via out-parameter.
  void gemv(std::span<const std::int8_t> in, std::span<std::int32_t> out,
            device::Ns* latency) const;

  /// Stored weight of any cell (for tests): 0 outside the occupied block.
  std::int8_t weight(std::size_t r, std::size_t c) const;

 private:
  const device::DeviceProfile* profile_;
  device::EnergyLedger* ledger_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t used_rows_ = 0;
  std::size_t used_cols_ = 0;
  std::size_t stride_ = 0;      // used_cols_ rounded up to 16
  std::vector<std::int8_t> w_;  // used_rows_ x stride_, row-major
};

/// A weight matrix tiled over as many crossbars as needed.
///
/// Computes out = W x for W of arbitrary (out_dim x in_dim):
///   * input dimension is split into ceil(in/rows) row-tiles,
///   * output dimension into ceil(out/cols) column-tiles,
///   * all tiles evaluate in parallel (one xbar matmul latency),
///   * partial sums along the input split are merged by the digital
///     periphery (one controller cycle per merge level).
class TiledMatVec {
 public:
  /// W is (out_dim x in_dim) int8; layout is transposed internally to the
  /// crossbar's (input-row x output-col) orientation.
  TiledMatVec(const device::DeviceProfile& profile,
              device::EnergyLedger* ledger, const tensor::QMatrix& w);

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept { return out_dim_; }
  std::size_t tile_count() const noexcept { return tiles_.size(); }

  /// out[o] = sum_i W[o][i] * in[i], exact int32, into the caller's
  /// out_dim() values (overwritten).
  void gemv(std::span<const std::int8_t> in, std::span<std::int32_t> out,
            device::Ns* latency) const;

 private:
  const device::DeviceProfile* profile_;
  device::EnergyLedger* ledger_;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::size_t row_tiles_ = 0;
  std::size_t col_tiles_ = 0;
  std::vector<Crossbar> tiles_;  // row-tile major: tile(i,j) = tiles_[i*col_tiles_+j]
};

}  // namespace imars::xbar
