#include "core/backend.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace imars::core {

using device::Ns;
using device::Pj;
using recsys::OpCost;
using recsys::OpKind;
using recsys::ScoredItem;
using recsys::StageStats;
using recsys::UserContext;

ImarsBackend::ImarsBackend(const recsys::YoutubeDnn& model,
                           const ArchConfig& arch,
                           const device::DeviceProfile& profile,
                           const ImarsBackendConfig& cfg,
                           std::span<const UserContext> calibration)
    : model_(&model),
      cfg_(cfg),
      acc_(std::make_unique<ImarsAccelerator>(arch, profile)),
      lsh_(model.config().emb_dim, arch.lsh_bits, lsh::kLshSeed) {
  IMARS_REQUIRE(cfg_.max_candidates <= arch.cma_rows,
                "ImarsBackend: candidate cap exceeds the CTR buffer");

  // (Load-time) quantize and install every UIET.
  const auto& schema = model.schema();
  uiet_ids_.resize(schema.user_item.size());
  for (std::size_t f = 0; f < schema.user_item.size(); ++f) {
    uiet_ids_[f] =
        acc_->load_uiet(schema.user_item[f].name, model.uiet(f).quantized());
  }

  // ItET rows + LSH signatures of the *quantized* embeddings (the stored
  // int8 values are what the planes see; matches CpuBackend's LSH variant).
  const tensor::QMatrix items_q = model.item_table().quantized();
  const tensor::Matrix items_deq = items_q.dequantize();
  std::vector<util::BitVec> sigs;
  sigs.reserve(items_deq.rows());
  for (std::size_t r = 0; r < items_deq.rows(); ++r)
    sigs.push_back(lsh_.encode(items_deq.row(r)));
  itet_id_ = acc_->load_itet("ItET", items_q, sigs);
  program_dnns(calibration);
}

ImarsBackend::ImarsBackend(const ImarsBackend& image,
                           const device::DeviceProfile& profile,
                           std::span<const UserContext> calibration)
    : model_(image.model_),
      cfg_(image.cfg_),
      acc_(std::make_unique<ImarsAccelerator>(*image.acc_, profile)),
      lsh_(image.lsh_),
      uiet_ids_(image.uiet_ids_),
      itet_id_(image.itet_id_) {
  program_dnns(calibration);
}

void ImarsBackend::program_dnns(std::span<const UserContext> calibration) {
  IMARS_REQUIRE(!calibration.empty(),
                "ImarsBackend: calibration contexts required");
  // Crossbar DNN banks, calibrated on representative inputs.
  const recsys::YoutubeDnn& model = *model_;
  std::vector<tensor::Vector> filter_calib;
  std::vector<tensor::Vector> rank_calib;
  filter_calib.reserve(calibration.size());
  rank_calib.reserve(calibration.size());
  for (const auto& ctx : calibration) {
    filter_calib.push_back(model.filter_input(ctx));
    const std::size_t item =
        ctx.history.empty() ? 0 : ctx.history.front();
    rank_calib.push_back(model.rank_input(ctx, item));
  }
  // Use the accelerator's stable profile copy: the caller's `profile`
  // reference may be a temporary.
  filter_dnn_ = std::make_unique<xbar::XbarMlp>(acc_->profile(),
                                                &acc_->ledger(),
                                                model.filter_mlp(),
                                                filter_calib);
  rank_dnn_ = std::make_unique<xbar::XbarMlp>(acc_->profile(), &acc_->ledger(),
                                              model.rank_mlp(), rank_calib);

  // Loading and programming are one-time costs; query accounting starts
  // clean.
  acc_->reset_energy();
}

util::BitVec ImarsBackend::signature_of(
    std::span<const float> embedding) const {
  return lsh_.encode(embedding);
}

tensor::Vector ImarsBackend::user_embedding_hw(const UserContext& user,
                                               StageStats* stats) {
  // (1a) Sparse features -> ET lookups and pooling.
  std::vector<LookupRequest> reqs;
  for (auto f : model_->filter_features()) {
    const auto ids = user.sparse[f];
    reqs.push_back(
        {uiet_ids_[f], {ids.begin(), ids.end()}, /*mean_pool=*/true});
  }
  if (!user.history.empty())
    reqs.push_back({itet_id_, user.history, /*mean_pool=*/true});

  OpCost et_cost;
  const auto pooled = acc_->lookup_pooled(reqs, cfg_.timing, &et_cost);
  if (stats != nullptr) stats->at(OpKind::kEtLookup) += et_cost;

  // Assemble the tower input exactly as the float model does.
  tensor::Vector in;
  in.reserve(model_->filter_input_dim());
  for (const auto& p : pooled) {
    const auto v = p.dequantized();
    in.insert(in.end(), v.begin(), v.end());
  }
  if (user.history.empty()) {
    // No history: the history segment is all-zero.
    in.insert(in.end(), model_->config().emb_dim, 0.0f);
  }
  in.insert(in.end(), user.dense.begin(), user.dense.end());

  // (1b/1c) Filtering DNN stack on crossbars. Captured, not a total()
  // delta: the measured energy must not depend on ledger history (see
  // EnergyLedger::begin_capture).
  device::ScopedEnergyCapture capture(acc_->ledger());
  Ns dnn_lat{0.0};
  auto u = filter_dnn_->infer(in, &dnn_lat);
  const Pj dnn_pj = capture.take();
  if (stats != nullptr) stats->at(OpKind::kDnn) += OpCost{dnn_lat, dnn_pj};
  return u;
}

std::vector<std::size_t> ImarsBackend::filter(const UserContext& user,
                                              StageStats* stats) {
  const tensor::Vector u = user_embedding_hw(user, stats);

  // (1d) Fixed-radius NNS via TCAM threshold match over the signature CMAs.
  const util::BitVec query = lsh_.encode(u);
  OpCost nns_cost;
  auto candidates = acc_->nns(itet_id_, query, cfg_.nns_radius, &nns_cost);
  if (stats != nullptr) stats->at(OpKind::kNns) += nns_cost;

  // (1d*) Item buffer holds at most max_candidates entries; the priority
  // encoder drains matches in ascending row order, so the buffer keeps the
  // first max_candidates of them.
  if (candidates.size() > cfg_.max_candidates)
    candidates.resize(cfg_.max_candidates);
  return candidates;
}

std::vector<ScoredItem> ImarsBackend::rank(
    const UserContext& user, std::span<const std::size_t> candidates,
    std::size_t k, StageStats* stats) {
  if (candidates.empty()) return {};

  // (2b) Per candidate, the ranking embeddings are retrieved from the rank
  // UIETs and the ItET (Sec III-C; Table III's ranking ET lookup is "for
  // one item input", i.e. the full lookup repeats for every candidate).
  std::vector<LookupRequest> reqs;
  for (auto f : model_->rank_features()) {
    const auto ids = user.sparse[f];
    reqs.push_back(
        {uiet_ids_[f], {ids.begin(), ids.end()}, /*mean_pool=*/true});
  }
  if (!user.history.empty())
    reqs.push_back({itet_id_, user.history, /*mean_pool=*/true});

  const std::size_t n_rank_features = model_->rank_features().size();

  // (2b..2d) Per candidate: ET lookups + item-embedding fetch + crossbar
  // ranking DNN; candidates serialize through the fabric.
  std::vector<float> scores;
  scores.reserve(candidates.size());
  OpCost et_cost;
  OpCost rank_dnn_cost;
  for (auto item : candidates) {
    const auto pooled = acc_->lookup_pooled(reqs, cfg_.timing, &et_cost);
    std::vector<tensor::Vector> feature_segments;
    feature_segments.reserve(n_rank_features);
    for (std::size_t i = 0; i < n_rank_features; ++i)
      feature_segments.push_back(pooled[i].dequantized());
    tensor::Vector history_segment;
    if (!user.history.empty()) {
      history_segment = pooled.back().dequantized();
    } else {
      history_segment.assign(model_->config().emb_dim, 0.0f);
    }

    OpCost fetch;
    const auto item_row = acc_->read_row(itet_id_, item, &fetch);
    et_cost += fetch;

    tensor::Vector in;
    in.reserve(model_->rank_input_dim());
    for (const auto& seg : feature_segments)
      in.insert(in.end(), seg.begin(), seg.end());
    const auto item_v = item_row.dequantized();
    in.insert(in.end(), item_v.begin(), item_v.end());
    in.insert(in.end(), history_segment.begin(), history_segment.end());
    in.insert(in.end(), user.dense.begin(), user.dense.end());

    device::ScopedEnergyCapture capture(acc_->ledger());
    Ns lat{0.0};
    const auto out = rank_dnn_->infer(in, &lat);
    rank_dnn_cost += OpCost{lat, capture.take()};
    scores.push_back(out[0]);
  }
  if (stats != nullptr) {
    stats->at(OpKind::kEtLookup) += et_cost;
    stats->at(OpKind::kDnn) += rank_dnn_cost;
  }

  // (2e) Top-k through the CTR buffer.
  OpCost topk_cost;
  const auto top_pos = acc_->topk_ctr(scores, k, &topk_cost);
  if (stats != nullptr) stats->at(OpKind::kTopK) += topk_cost;

  std::vector<ScoredItem> out;
  out.reserve(top_pos.size());
  for (auto pos : top_pos) out.push_back({candidates[pos], scores[pos]});
  return out;
}

ImarsCtrBackend::ImarsCtrBackend(const recsys::Dlrm& model,
                                 const ArchConfig& arch,
                                 const device::DeviceProfile& profile,
                                 TimingMode timing,
                                 std::span<const data::CriteoSample> calibration)
    : model_(&model),
      timing_(timing),
      acc_(std::make_unique<ImarsAccelerator>(arch, profile)) {
  const auto& schema = model.schema();
  table_ids_.resize(schema.user_item.size());
  for (std::size_t f = 0; f < schema.user_item.size(); ++f) {
    table_ids_[f] =
        acc_->load_uiet(schema.user_item[f].name, model.table(f).quantized());
  }
  program_dnns(calibration);
}

ImarsCtrBackend::ImarsCtrBackend(
    const ImarsCtrBackend& image, const device::DeviceProfile& profile,
    std::span<const data::CriteoSample> calibration)
    : model_(image.model_),
      timing_(image.timing_),
      acc_(std::make_unique<ImarsAccelerator>(*image.acc_, profile)),
      table_ids_(image.table_ids_) {
  program_dnns(calibration);
}

void ImarsCtrBackend::program_dnns(
    std::span<const data::CriteoSample> calibration) {
  IMARS_REQUIRE(!calibration.empty(),
                "ImarsCtrBackend: calibration samples required");
  const recsys::Dlrm& model = *model_;
  const auto& schema = model.schema();
  std::vector<tensor::Vector> bottom_calib;
  std::vector<tensor::Vector> top_calib;
  bottom_calib.reserve(calibration.size());
  top_calib.reserve(calibration.size());
  for (const auto& s : calibration) {
    bottom_calib.push_back(s.dense);
    const tensor::Vector b = model.bottom_mlp().infer(s.dense);
    std::vector<tensor::Vector> embs;
    embs.reserve(schema.user_item.size());
    for (std::size_t f = 0; f < schema.user_item.size(); ++f)
      model.table(f).copy_row(s.sparse[f],
                              embs.emplace_back(model.table(f).dim()));
    top_calib.push_back(model.interact(embs, b));
  }
  bottom_dnn_ = std::make_unique<xbar::XbarMlp>(acc_->profile(),
                                                &acc_->ledger(),
                                                model.bottom_mlp(),
                                                bottom_calib);
  top_dnn_ = std::make_unique<xbar::XbarMlp>(acc_->profile(), &acc_->ledger(),
                                             model.top_mlp(), top_calib);
  acc_->reset_energy();
}

std::vector<tensor::Vector> ImarsCtrBackend::gather_tower(
    std::span<const std::size_t> sparse, StageStats* stats) {
  IMARS_REQUIRE(sparse.size() == table_ids_.size(),
                "ImarsCtrBackend: sparse feature count mismatch");
  // 26 one-hot lookups, one bank per feature, all banks in parallel.
  std::vector<LookupRequest> reqs;
  reqs.reserve(sparse.size());
  for (std::size_t f = 0; f < sparse.size(); ++f)
    reqs.push_back({table_ids_[f], {sparse[f]}, /*mean_pool=*/false});
  OpCost et_cost;
  const auto pooled = acc_->lookup_pooled(reqs, timing_, &et_cost);
  if (stats != nullptr) stats->at(OpKind::kEtLookup) += et_cost;
  std::vector<tensor::Vector> embs;
  embs.reserve(pooled.size());
  for (const auto& p : pooled) embs.push_back(p.dequantized());
  return embs;
}

tensor::Vector ImarsCtrBackend::dense_tower(const tensor::Vector& dense,
                                            StageStats* stats) {
  // Bottom MLP on crossbars.
  device::ScopedEnergyCapture capture(acc_->ledger());
  Ns lat{0.0};
  tensor::Vector b = bottom_dnn_->infer(dense, &lat);
  const Pj dnn_pj = capture.take();
  if (stats != nullptr) stats->at(OpKind::kDnn) += OpCost{lat, dnn_pj};
  return b;
}

float ImarsCtrBackend::interact_top(std::span<const tensor::Vector> embeddings,
                                    const tensor::Vector& bottom,
                                    StageStats* stats) {
  // Feature interaction in the digital periphery: 27 vectors cross the RSC
  // bus; the pairwise dots are computed beside the crossbar bank.
  const tensor::Vector z = model_->interact(embeddings, bottom);

  // Top MLP on crossbars.
  device::ScopedEnergyCapture capture(acc_->ledger());
  Ns lat{0.0};
  const tensor::Vector out = top_dnn_->infer(z, &lat);
  const Pj dnn_pj = capture.take();
  if (stats != nullptr) stats->at(OpKind::kDnn) += OpCost{lat, dnn_pj};
  return out[0];
}

float ImarsCtrBackend::score(const tensor::Vector& dense,
                             std::span<const std::size_t> sparse,
                             StageStats* stats) {
  // Accumulate into a zeroed local and merge once, so callers summing
  // stats across many calls see the same rounding as the pre-staged fused
  // implementation (one ET term and one bottom+top DNN term per call).
  StageStats local;
  const auto embs = gather_tower(sparse, &local);
  const tensor::Vector b = dense_tower(dense, &local);
  const float out = interact_top(embs, b, &local);
  if (stats != nullptr) stats->merge(local);
  return out;
}

}  // namespace imars::core
