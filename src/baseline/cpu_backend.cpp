#include "baseline/cpu_backend.hpp"

#include <algorithm>

#include "baseline/exact_nns.hpp"
#include "util/error.hpp"

namespace imars::baseline {

using recsys::OpKind;
using recsys::ScoredItem;
using recsys::StageStats;
using recsys::UserContext;

namespace {

// Scores candidates with the float ranking model, sorts descending,
// truncates to k. Shared by the CPU and GPU-model backends.
std::vector<ScoredItem> score_and_topk(const recsys::YoutubeDnn& model,
                                       const UserContext& user,
                                       std::span<const std::size_t> candidates,
                                       std::size_t k) {
  std::vector<ScoredItem> scored;
  scored.reserve(candidates.size());
  for (auto item : candidates)
    scored.push_back({item, model.ctr(user, item)});
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

std::size_t mlp_macs(const nn::Mlp& mlp) {
  std::size_t macs = 0;
  const auto& dims = mlp.dims();
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) macs += dims[i] * dims[i + 1];
  return macs;
}

}  // namespace

CpuBackend::CpuBackend(const recsys::YoutubeDnn& model,
                       const CpuBackendConfig& cfg)
    : model_(&model),
      cfg_(cfg),
      items_q_(model.item_table().quantized()),
      items_deq_(items_q_.dequantize()) {
  if (cfg_.variant == FilterVariant::kInt8LshHamming) {
    lsh_.emplace(model.config().emb_dim, cfg_.lsh_bits, lsh::kLshSeed);
    signatures_.reserve(items_deq_.rows());
    // Signatures are computed from the quantized (then dequantized) item
    // embeddings: the chip stores int8 rows, so the stored LSH planes see
    // the quantized values (Sec III-B).
    for (std::size_t r = 0; r < items_deq_.rows(); ++r)
      signatures_.push_back(lsh_->encode(items_deq_.row(r)));
  }
}

util::BitVec CpuBackend::signature_of(std::span<const float> embedding) const {
  IMARS_REQUIRE(lsh_.has_value(),
                "CpuBackend: signatures only exist for the LSH variant");
  return lsh_->encode(embedding);
}

std::vector<std::size_t> CpuBackend::filter(const UserContext& user,
                                            StageStats* stats) {
  (void)stats;  // functional oracle: no hardware costs
  const tensor::Vector u = model_->user_embedding(user);
  switch (cfg_.variant) {
    case FilterVariant::kFp32Cosine:
      return topk_cosine(model_->item_table(), u, cfg_.candidates);
    case FilterVariant::kInt8Cosine:
      return topk_cosine(items_deq_, u, cfg_.candidates);
    case FilterVariant::kInt8LshHamming: {
      const util::BitVec q = lsh_->encode(u);
      return radius_hamming(signatures_, q, cfg_.lsh_radius);
    }
  }
  return {};
}

std::vector<ScoredItem> CpuBackend::rank(
    const UserContext& user, std::span<const std::size_t> candidates,
    std::size_t k, StageStats* stats) {
  (void)stats;
  return score_and_topk(*model_, user, candidates, k);
}

GpuModelBackend::GpuModelBackend(const recsys::YoutubeDnn& model,
                                 const GpuModel& gpu,
                                 const GpuBackendConfig& cfg)
    : model_(&model), gpu_(&gpu), cfg_(cfg) {}

std::vector<std::size_t> GpuModelBackend::filter(const UserContext& user,
                                                 StageStats* stats) {
  // Functional result: the original fp32 cosine top-N (what the GPU runs).
  const tensor::Vector u = model_->user_embedding(user);
  auto candidates = topk_cosine(model_->item_table(), u, cfg_.candidates);

  if (stats != nullptr) {
    // Tables touched: every filtering UIET plus the ItET history pooling.
    stats->at(OpKind::kEtLookup) +=
        gpu_->et_lookup(model_->filter_features().size() + 1);
    stats->at(OpKind::kDnn) += gpu_->dnn(model_->filter_mlp().layer_count(),
                                         mlp_macs(model_->filter_mlp()));
    stats->at(OpKind::kNns) +=
        gpu_->nns(cfg_.nns, model_->item_table().rows());
  }
  return candidates;
}

std::vector<ScoredItem> GpuModelBackend::rank(
    const UserContext& user, std::span<const std::size_t> candidates,
    std::size_t k, StageStats* stats) {
  auto out = score_and_topk(*model_, user, candidates, k);
  if (stats != nullptr) {
    const double n = static_cast<double>(candidates.size());
    // Per candidate: ET lookups (rank UIETs + ItET candidate + history
    // pooling) and the ranking DNN + feature-assembly kernels.
    recsys::OpCost et = gpu_->et_lookup(model_->rank_features().size() + 1);
    recsys::OpCost dnn = gpu_->dnn(model_->rank_mlp().layer_count(),
                                   mlp_macs(model_->rank_mlp()));
    dnn += gpu_->rank_pair_overhead();
    stats->at(OpKind::kEtLookup) += {et.latency * n, et.energy * n};
    stats->at(OpKind::kDnn) += {dnn.latency * n, dnn.energy * n};
    stats->at(OpKind::kTopK) += gpu_->topk(candidates.size());
  }
  return out;
}

float CpuCtrBackend::score(const tensor::Vector& dense,
                           std::span<const std::size_t> sparse,
                           StageStats* stats) {
  (void)stats;
  return model_->infer(dense, sparse);
}

float GpuCtrBackend::score(const tensor::Vector& dense,
                           std::span<const std::size_t> sparse,
                           StageStats* stats) {
  const float ctr = model_->infer(dense, sparse);
  if (stats != nullptr) {
    stats->at(OpKind::kEtLookup) += gpu_->et_lookup(model_->table_count());
    // Bottom + top MLP layers plus one kernel for the pairwise-dot
    // interaction layer.
    std::size_t macs = 0;
    for (const auto* mlp : {&model_->bottom_mlp(), &model_->top_mlp()}) {
      const auto& dims = mlp->dims();
      for (std::size_t i = 0; i + 1 < dims.size(); ++i)
        macs += dims[i] * dims[i + 1];
    }
    const std::size_t layers =
        model_->bottom_mlp().layer_count() + model_->top_mlp().layer_count() + 1;
    stats->at(OpKind::kDnn) += gpu_->dnn(layers, macs);
  }
  return ctr;
}

}  // namespace imars::baseline
