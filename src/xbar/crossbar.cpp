#include "xbar/crossbar.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace imars::xbar {

using device::Component;
using device::Ns;

namespace {

// Columns per kernel step; stored rows are padded to a multiple of it.
constexpr std::size_t kLanes = 16;

// GCC/Clang vector extensions on 16-byte registers, which x86-64's
// baseline SSE2 carries: no -m flag. Loads and stores go through memcpy.
typedef std::int16_t i16x8 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));

// out[k] += sum_r in[r] * w[r * stride + k] for the n <= 16 columns of one
// block. Each step reads one row's 16 int8 weights as eight int16 lanes and
// sign-extends the even and the odd bytes by shifts; an int8 x int8
// product is at most 128 * 128 in magnitude, so one int16 multiply per
// half is exact, and the products widen to int32 the same way. The four
// int32 accumulators hold the columns {0,4,8,12}, {2,6,10,14}, {1,5,9,13}
// and {3,7,11,15}; a transpose puts them back in column order.
void gemv_block(const std::int8_t* w, std::size_t stride,
                std::span<const std::int8_t> in, std::int32_t* out,
                std::size_t n) {
  i32x4 a0 = {0, 0, 0, 0};
  i32x4 a1 = a0;
  i32x4 a2 = a0;
  i32x4 a3 = a0;
  for (std::size_t r = 0; r < in.size(); ++r, w += stride) {
    i16x8 wv;
    std::memcpy(&wv, w, sizeof wv);
    const std::int16_t x = in[r];
    const i16x8 xv = {x, x, x, x, x, x, x, x};
    const i16x8 even = ((wv << 8) >> 8) * xv;
    const i16x8 odd = (wv >> 8) * xv;
    i32x4 e;
    i32x4 o;
    std::memcpy(&e, &even, sizeof e);
    std::memcpy(&o, &odd, sizeof o);
    a0 += (e << 16) >> 16;
    a1 += e >> 16;
    a2 += (o << 16) >> 16;
    a3 += o >> 16;
  }
  // Rows of [a0 a2 a1 a3] are the columns 4j .. 4j+3.
  const i32x4 t0 = __builtin_shufflevector(a0, a2, 0, 4, 1, 5);
  const i32x4 t1 = __builtin_shufflevector(a0, a2, 2, 6, 3, 7);
  const i32x4 t2 = __builtin_shufflevector(a1, a3, 0, 4, 1, 5);
  const i32x4 t3 = __builtin_shufflevector(a1, a3, 2, 6, 3, 7);
  const i32x4 cols[4] = {
      __builtin_shufflevector(t0, t2, 0, 1, 4, 5),
      __builtin_shufflevector(t0, t2, 2, 3, 6, 7),
      __builtin_shufflevector(t1, t3, 0, 1, 4, 5),
      __builtin_shufflevector(t1, t3, 2, 3, 6, 7),
  };
  std::int32_t sums[kLanes];
  std::memcpy(sums, cols, sizeof sums);
  for (std::size_t k = 0; k < n; ++k) out[k] += sums[k];
}

}  // namespace

Crossbar::Crossbar(const device::DeviceProfile& profile,
                   device::EnergyLedger* ledger)
    : profile_(&profile),
      ledger_(ledger),
      rows_(profile.xbar_rows),
      cols_(profile.xbar_cols) {
  IMARS_REQUIRE(ledger != nullptr, "Crossbar: ledger must not be null");
}

void Crossbar::load_weights(const tensor::QMatrix& w) {
  IMARS_REQUIRE(w.rows() <= rows_ && w.cols() <= cols_,
                "Crossbar::load_weights: block larger than tile");
  used_rows_ = w.rows();
  used_cols_ = w.cols();
  stride_ = (used_cols_ + kLanes - 1) / kLanes * kLanes;
  w_.assign(used_rows_ * stride_, 0);
  for (std::size_t r = 0; r < used_rows_; ++r) {
    const auto src = w.row(r);
    std::copy(src.begin(), src.end(), w_.begin() + r * stride_);
  }
  // Cell programming: one row-write-equivalent per occupied row.
  ledger_->charge(Component::kCmaRam,
                  profile_->cma_write.energy * static_cast<double>(w.rows()),
                  w.rows());
}

void Crossbar::gemv(std::span<const std::int8_t> in,
                    std::span<std::int32_t> out, device::Ns* latency) const {
  IMARS_REQUIRE(in.size() == used_rows_, "Crossbar::gemv: input size mismatch");
  IMARS_REQUIRE(out.size() == used_cols_,
                "Crossbar::gemv: output size mismatch");
  for (std::size_t c = 0; c < used_cols_; c += kLanes)
    gemv_block(w_.data() + c, stride_, in, out.data() + c,
               std::min(kLanes, used_cols_ - c));
  ledger_->charge(Component::kCrossbar, profile_->xbar_matmul.energy);
  if (latency != nullptr) *latency = profile_->xbar_matmul.latency;
}

std::int8_t Crossbar::weight(std::size_t r, std::size_t c) const {
  IMARS_REQUIRE(r < rows_ && c < cols_, "Crossbar::weight out of range");
  if (r >= used_rows_ || c >= used_cols_) return 0;
  return w_[r * stride_ + c];
}

TiledMatVec::TiledMatVec(const device::DeviceProfile& profile,
                         device::EnergyLedger* ledger,
                         const tensor::QMatrix& w)
    : profile_(&profile),
      ledger_(ledger),
      in_dim_(w.cols()),
      out_dim_(w.rows()) {
  IMARS_REQUIRE(ledger != nullptr, "TiledMatVec: ledger must not be null");
  IMARS_REQUIRE(in_dim_ > 0 && out_dim_ > 0, "TiledMatVec: empty matrix");

  const std::size_t tr = profile.xbar_rows;  // input lanes per tile
  const std::size_t tc = profile.xbar_cols;  // output lanes per tile
  row_tiles_ = (in_dim_ + tr - 1) / tr;
  col_tiles_ = (out_dim_ + tc - 1) / tc;

  tiles_.reserve(row_tiles_ * col_tiles_);
  for (std::size_t i = 0; i < row_tiles_; ++i) {
    for (std::size_t j = 0; j < col_tiles_; ++j) {
      // Tile (i,j) holds W[j*tc .. , i*tr ..]^T in (input-row, output-col)
      // orientation.
      const std::size_t in_lo = i * tr;
      const std::size_t in_hi = std::min(in_dim_, in_lo + tr);
      const std::size_t out_lo = j * tc;
      const std::size_t out_hi = std::min(out_dim_, out_lo + tc);
      tensor::QMatrix block(in_hi - in_lo, out_hi - out_lo, w.params());
      for (std::size_t r = in_lo; r < in_hi; ++r)
        for (std::size_t c = out_lo; c < out_hi; ++c)
          block.at(r - in_lo, c - out_lo) = w.at(c, r);
      tiles_.emplace_back(profile, ledger);
      tiles_.back().load_weights(block);
    }
  }
}

void TiledMatVec::gemv(std::span<const std::int8_t> in,
                       std::span<std::int32_t> out, device::Ns* latency) const {
  IMARS_REQUIRE(in.size() == in_dim_, "TiledMatVec::gemv: input size");
  IMARS_REQUIRE(out.size() == out_dim_, "TiledMatVec::gemv: output size");
  const std::size_t tr = profile_->xbar_rows;
  const std::size_t tc = profile_->xbar_cols;

  // Each tile adds its partial sums straight into its output columns.
  std::fill(out.begin(), out.end(), 0);
  Ns tile_latency{0.0};
  for (std::size_t i = 0; i < row_tiles_; ++i) {
    for (std::size_t j = 0; j < col_tiles_; ++j) {
      const Crossbar& tile = tiles_[i * col_tiles_ + j];
      Ns lat{0.0};
      tile.gemv(in.subspan(i * tr, tile.used_rows()),
                out.subspan(j * tc, tile.used_cols()), &lat);
      tile_latency = device::max(tile_latency, lat);
    }
  }

  if (latency != nullptr) {
    // All tiles fire in parallel; partial sums along the input split merge
    // in a log2-depth digital reduction in the periphery.
    Ns merge{0.0};
    std::size_t levels = 0;
    for (std::size_t n = row_tiles_; n > 1; n = (n + 1) / 2) ++levels;
    merge = profile_->controller_cycle * static_cast<double>(levels);
    if (levels > 0)
      ledger_->charge(Component::kController,
                      profile_->controller_energy * static_cast<double>(levels),
                      levels);
    *latency = tile_latency + merge;
  }
}

}  // namespace imars::xbar
