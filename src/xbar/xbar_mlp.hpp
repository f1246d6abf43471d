// int8 MLP inference on crossbar banks.
//
// Maps a float-trained nn::Mlp onto TiledMatVec crossbar layers:
//   * weights are quantized per-layer (symmetric int8),
//   * activations are quantized per-layer with scales calibrated from
//     representative inputs (max-abs calibration),
//   * biases fold into the int32 accumulator domain,
//   * ReLU happens in the periphery as an int32 clamp before requantize,
//   * the final layer returns float (identity or sigmoid evaluated by the
//     digital periphery, as in the paper's Neurosim-based DNN-stack eval).
//
// Layers execute back-to-back: each layer's tiles fire in parallel, layers
// serialize — the composition the paper uses for the DNN stack (Sec IV-C3).
#pragma once

#include <span>
#include <vector>

#include "device/ledger.hpp"
#include "device/profile.hpp"
#include "nn/mlp.hpp"
#include "xbar/crossbar.hpp"

namespace imars::xbar {

/// A quantized MLP resident in crossbar arrays.
class XbarMlp {
 public:
  /// Quantizes `mlp` and programs the crossbars. `calibration` supplies
  /// representative inputs for activation-scale calibration (>= 1 needed).
  XbarMlp(const device::DeviceProfile& profile, device::EnergyLedger* ledger,
          const nn::Mlp& mlp,
          std::span<const tensor::Vector> calibration);

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept { return out_dim_; }
  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Total crossbar tiles programmed (for Table I style mapping stats).
  std::size_t tile_count() const noexcept;

  /// Runs int8 inference; returns float outputs and the end-to-end latency
  /// (sum of layer latencies) via out-parameter. Every input must be finite.
  tensor::Vector infer(std::span<const float> x, device::Ns* latency) const;

 private:
  struct Layer {
    TiledMatVec matvec;
    std::vector<std::int32_t> bias_q;  // bias in accumulator domain
    float in_scale = 1.0f;             // activation quant scale (input side)
    float w_scale = 1.0f;              // weight quant scale
    float out_scale = 1.0f;            // next layer's activation scale
    nn::Activation act = nn::Activation::kIdentity;
    bool is_last = false;
  };

  const device::DeviceProfile* profile_ = nullptr;
  device::EnergyLedger* ledger_ = nullptr;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::size_t max_width_ = 0;  // widest layer boundary: infer's scratch size
  std::vector<Layer> layers_;
};

}  // namespace imars::xbar
