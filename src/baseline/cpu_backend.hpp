// CPU reference backends.
//
// CpuBackend is the functional oracle: it executes the RecSys algorithms
// exactly (float model, or the quantized/LSH variants of Sec III-B) with no
// hardware cost accounting. GpuModelBackend runs the same functional
// algorithm as the paper's GPU baseline (fp32 model + chosen NNS kind) and
// charges the calibrated GpuModel costs.
#pragma once

#include <optional>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "lsh/lsh.hpp"
#include "recsys/dlrm.hpp"
#include "recsys/types.hpp"
#include "recsys/youtube_dnn.hpp"
#include "tensor/qtensor.hpp"
#include "util/bitvec.hpp"

namespace imars::baseline {

/// Filtering-NNS algorithm variant (the Sec IV-B accuracy comparison).
enum class FilterVariant {
  kFp32Cosine,      ///< original: float embeddings + cosine top-N
  kInt8Cosine,      ///< int8-quantized embeddings + cosine top-N
  kInt8LshHamming,  ///< int8 + 256-bit LSH + fixed-radius Hamming (iMARS)
};

/// Configuration for CpuBackend.
struct CpuBackendConfig {
  FilterVariant variant = FilterVariant::kFp32Cosine;
  std::size_t candidates = 100;  ///< top-N for the cosine variants
  std::size_t lsh_bits = 256;    ///< paper signature length
  std::size_t lsh_radius = 96;   ///< fixed-radius threshold (Hamming)
};

/// Exact software execution of the two-stage pipeline.
class CpuBackend : public recsys::FilterRankBackend {
 public:
  CpuBackend(const recsys::YoutubeDnn& model, const CpuBackendConfig& cfg);

  std::string_view name() const override { return "cpu-reference"; }

  std::vector<std::size_t> filter(const recsys::UserContext& user,
                                  recsys::StageStats* stats) override;

  std::vector<recsys::ScoredItem> rank(
      const recsys::UserContext& user,
      std::span<const std::size_t> candidates, std::size_t k,
      recsys::StageStats* stats) override;

  const CpuBackendConfig& config() const noexcept { return cfg_; }

  /// Item LSH signatures (present for the kInt8LshHamming variant);
  /// exposed so tests can check parity with the iMARS TCAM path.
  const std::vector<util::BitVec>& item_signatures() const {
    return signatures_;
  }

  /// Query signature for an arbitrary user embedding (kInt8LshHamming).
  util::BitVec signature_of(std::span<const float> embedding) const;

 private:
  const recsys::YoutubeDnn* model_;
  CpuBackendConfig cfg_;
  tensor::QMatrix items_q_;          ///< int8 snapshot of the ItET
  tensor::Matrix items_deq_;         ///< dequantized int8 items (cosine)
  std::optional<lsh::RandomHyperplaneLsh> lsh_;
  std::vector<util::BitVec> signatures_;
};

/// GPU baseline: original algorithm + calibrated costs.
struct GpuBackendConfig {
  std::size_t candidates = 20;  ///< candidate count (end-to-end calibration)
  GpuNnsKind nns = GpuNnsKind::kFaissAnn;
};

class GpuModelBackend : public recsys::FilterRankBackend {
 public:
  GpuModelBackend(const recsys::YoutubeDnn& model, const GpuModel& gpu,
                  const GpuBackendConfig& cfg);

  std::string_view name() const override { return "gpu-gtx1080-model"; }

  std::vector<std::size_t> filter(const recsys::UserContext& user,
                                  recsys::StageStats* stats) override;

  std::vector<recsys::ScoredItem> rank(
      const recsys::UserContext& user,
      std::span<const std::size_t> candidates, std::size_t k,
      recsys::StageStats* stats) override;

 private:
  const recsys::YoutubeDnn* model_;
  const GpuModel* gpu_;
  GpuBackendConfig cfg_;
};

/// Exact software DLRM scoring (functional oracle).
class CpuCtrBackend : public recsys::CtrBackend {
 public:
  explicit CpuCtrBackend(const recsys::Dlrm& model) : model_(&model) {}
  std::string_view name() const override { return "cpu-reference"; }
  float score(const tensor::Vector& dense,
              std::span<const std::size_t> sparse,
              recsys::StageStats* stats) override;

 private:
  const recsys::Dlrm* model_;
};

/// GPU DLRM scoring: float model + calibrated costs.
class GpuCtrBackend : public recsys::CtrBackend {
 public:
  GpuCtrBackend(const recsys::Dlrm& model, const GpuModel& gpu)
      : model_(&model), gpu_(&gpu) {}
  std::string_view name() const override { return "gpu-gtx1080-model"; }
  float score(const tensor::Vector& dense,
              std::span<const std::size_t> sparse,
              recsys::StageStats* stats) override;

 private:
  const recsys::Dlrm* model_;
  const GpuModel* gpu_;
};

}  // namespace imars::baseline
