#include "serve/servable_funnel.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace imars::serve {

using recsys::OpKind;
using recsys::StageStats;

namespace {

// Stage indices (spec order below; the re-rank stage exists only when
// FunnelConfig::rerank is on).
constexpr std::size_t kRetrieveStage = 0;
constexpr std::size_t kFilterStage = 1;
constexpr std::size_t kRankStage = 2;
constexpr std::size_t kRerankStage = 3;

/// `cost` charged `n` times (the analytical stages price per candidate).
recsys::OpCost scaled(const recsys::OpCost& cost, std::size_t n) {
  const double f = static_cast<double>(n);
  return {device::Ns{cost.latency.value * f}, device::Pj{cost.energy.value * f}};
}

/// IVF-Flat retrieval adapter (the FAISS-style tier of the GPU baseline).
class IvfRetrieval final : public RetrievalBackend {
 public:
  IvfRetrieval(const tensor::Matrix& items,
               const baseline::IvfIndex::Config& cfg)
      : index_(items, cfg) {}

  std::vector<std::size_t> retrieve(std::span<const float> embedding,
                                    std::size_t k,
                                    std::size_t* scanned) const override {
    if (scanned != nullptr) {
      // Centroid evaluations + the probed lists' entries (scan_fraction is
      // the exact probed share under the index's balance).
      const double frac = index_.scan_fraction(index_.config().nprobe);
      *scanned = index_.nlist() +
                 static_cast<std::size_t>(
                     std::ceil(frac * static_cast<double>(index_.size())));
    }
    return index_.search(embedding, k);
  }

 private:
  baseline::IvfIndex index_;
};

}  // namespace

PipelineSpec FunnelServable::pipeline_spec(const FunnelConfig& cfg) {
  PipelineSpec spec;
  StageSpec retrieve{"retrieve", StageKind::kReplicated, {}};
  StageSpec filter{"filter", StageKind::kReplicated, {"retrieve"}};
  filter.consume_items = true;
  StageSpec rank{"rank", StageKind::kSharded, {"filter"}};
  if (cfg.rerank) {
    IMARS_REQUIRE(cfg.rank_keep >= 1,
                  "FunnelServable: rerank needs rank_keep >= 1");
    rank.emit_topk = cfg.rank_keep;
    StageSpec rerank{"rerank", StageKind::kSharded, {"rank"}};
    spec.stages = {std::move(retrieve), std::move(filter), std::move(rank),
                   std::move(rerank)};
  } else {
    spec.stages = {std::move(retrieve), std::move(filter), std::move(rank)};
  }
  spec.merge_topk = true;
  return spec;
}

FunnelServable::FunnelServable(const recsys::YoutubeDnn& model,
                               const core::ArchConfig& arch,
                               const core::BackendFactory& factory,
                               std::span<const device::DeviceProfile> profiles,
                               FunnelConfig cfg, TrafficSpec traffic)
    : FunnelServable(model, arch, core::per_slot(factory), profiles,
                     std::move(cfg), std::move(traffic)) {}

FunnelServable::FunnelServable(const recsys::YoutubeDnn& model,
                               const core::ArchConfig& arch,
                               const core::ShardedBackendFactory& factory,
                               std::span<const device::DeviceProfile> profiles,
                               FunnelConfig cfg, TrafficSpec traffic)
    : model_(&model),
      arch_(arch),
      cfg_(std::move(cfg)),
      spec_(pipeline_spec(cfg_)),
      traffic_(std::move(traffic)) {
  IMARS_REQUIRE(!profiles.empty(), "FunnelServable: need at least one shard");
  IMARS_REQUIRE(cfg_.retrieve_k >= 1, "FunnelServable: retrieve_k >= 1");

  shards_ = core::build_replicas(factory, profiles);
  perf_.reserve(profiles.size());
  for (const auto& p : profiles) perf_.emplace_back(arch_, p);

  // Signatures for the narrowing filter: the planes of the hardware's
  // stored ItET signatures.
  const auto& items = model.item_table();
  lsh_ = std::make_unique<lsh::RandomHyperplaneLsh>(
      items.dim(), arch_.lsh_bits, lsh::kLshSeed);
  item_sigs_.reserve(items.rows());
  items.for_each_page([&](std::size_t, std::span<const float> values) {
    for (std::size_t at = 0; at < values.size(); at += items.dim())
      item_sigs_.push_back(lsh_->encode(values.subspan(at, items.dim())));
  });
  switch (cfg_.retrieval) {
    case RetrievalKind::kIvf:
      retrieval_ = std::make_unique<IvfRetrieval>(items.dense(), cfg_.ivf);
      break;
    case RetrievalKind::kFixed:
      break;  // replica filter pass
  }
}

void FunnelServable::bind_users(std::span<const recsys::UserContext> users) {
  IMARS_REQUIRE(!users.empty(), "FunnelServable: empty user population");
  users_ = users;
}

const recsys::UserContext& FunnelServable::user_of(const Request& req) const {
  IMARS_REQUIRE(req.user < users_.size(),
                "FunnelServable: user out of range (bind_users first)");
  return users_[req.user];
}

std::size_t FunnelServable::sig_cmas(std::size_t entries) const {
  const std::size_t rows = std::max<std::size_t>(arch_.cma_rows, 1);
  const std::size_t per_entry = (arch_.lsh_bits + 255) / 256;  // paper: 2 CMAs
  return std::max<std::size_t>((entries + rows - 1) / rows, 1) *
         std::max<std::size_t>(per_entry, 1);
}

std::vector<std::size_t> FunnelServable::retrieve_on(
    std::size_t shard, const recsys::UserContext& user,
    recsys::StageStats* stats) {
  if (cfg_.retrieval == RetrievalKind::kFixed)
    return shards_[shard]->filter(user, stats);  // measured on the replica
  std::size_t scanned = 0;
  auto candidates =
      retrieval_->retrieve(model_->user_embedding(user), cfg_.retrieve_k,
                           &scanned);
  charge_retrieve(shard, user, scanned, stats);
  return candidates;
}

void FunnelServable::charge_retrieve(std::size_t shard,
                                     const recsys::UserContext& user,
                                     std::size_t scanned,
                                     recsys::StageStats* stats) const {
  if (stats == nullptr) return;
  const auto& pm = perf_[shard];
  const auto& schema = model_->schema();
  // User tower: pooled filter-feature lookups + history, then the filter
  // MLP — the same work the replica's own filter pass performs before its
  // NNS, priced analytically on this shard's profile.
  core::EtLookupParams et;
  et.tables = model_->filter_features().size() + 1;  // + ItET history pool
  et.lookups_per_table = std::max<std::size_t>(user.history.size(), 1);
  et.mats_per_table = 1;
  const std::size_t rows = std::max<std::size_t>(arch_.cma_rows, 1);
  std::size_t cmas = (schema.item_count + rows - 1) / rows;
  for (std::size_t f : model_->filter_features())
    cmas += (schema.user_item[f].cardinality + rows - 1) / rows;
  et.active_cmas = std::max<std::size_t>(cmas, 1);
  stats->at(OpKind::kEtLookup) += pm.et_lookup(et);

  std::vector<std::size_t> dims;
  dims.push_back(model_->filter_input_dim());
  for (std::size_t h : model_->config().filter_hidden) dims.push_back(h);
  stats->at(OpKind::kDnn) += pm.dnn(dims);

  // The ANN scan: `scanned` entries evaluated in-array (IVF list scans /
  // the full signature sweep), then the candidate top-k selection.
  stats->at(OpKind::kNns) += pm.nns(sig_cmas(scanned));
  stats->at(OpKind::kTopK) +=
      pm.topk(std::max<std::size_t>(scanned, 1), cfg_.retrieve_k);
}

void FunnelServable::charge_rerank(std::size_t shard,
                                   const recsys::UserContext& user,
                                   std::size_t items, std::size_t k,
                                   recsys::StageStats* stats) const {
  if (stats == nullptr) return;
  const auto& pm = perf_[shard];
  const auto& schema = model_->schema();
  const std::size_t rows = std::max<std::size_t>(arch_.cma_rows, 1);

  // Per candidate: the rank-feature pooled lookups, the candidate's ItET
  // row fetch, and one rank-MLP forward.
  core::EtLookupParams et;
  et.tables = model_->rank_features().size() + 1;  // + ItET history pool
  std::size_t cmas = (schema.item_count + rows - 1) / rows;
  for (std::size_t f : model_->rank_features())
    cmas += (schema.user_item[f].cardinality + rows - 1) / rows;
  et.lookups_per_table = std::max<std::size_t>(user.history.size(), 1);
  et.mats_per_table = 1;
  et.active_cmas = std::max<std::size_t>(cmas, 1);
  stats->at(OpKind::kEtLookup) += scaled(pm.et_lookup(et), items);
  stats->at(OpKind::kEtLookup) += scaled(pm.row_fetch(), items);

  std::vector<std::size_t> dims;
  dims.push_back(model_->rank_input_dim());
  for (std::size_t h : model_->config().rank_hidden) dims.push_back(h);
  dims.push_back(1);
  stats->at(OpKind::kDnn) += scaled(pm.dnn(dims), items);

  stats->at(OpKind::kTopK) += pm.topk(std::max<std::size_t>(items, 1), k);
}

std::vector<std::size_t> FunnelServable::retrieval_candidates(
    const recsys::UserContext& user) {
  return retrieve_on(0, user, nullptr);
}

std::vector<std::size_t> FunnelServable::narrowed_candidates(
    const recsys::UserContext& user,
    std::span<const std::size_t> fed) const {
  const util::BitVec sig = lsh_->encode(model_->user_embedding(user));
  std::vector<std::size_t> kept;
  kept.reserve(fed.size());
  for (std::size_t item : fed) {
    if (item < item_sigs_.size() &&
        item_sigs_[item].hamming(sig) <= cfg_.filter_radius)
      kept.push_back(item);
  }
  // A radius that empties the funnel would starve the rank stage; keep the
  // retrieval set instead (deterministic, and strictly more work — the
  // conservative failure mode).
  if (kept.empty()) return {fed.begin(), fed.end()};
  return kept;
}

std::vector<std::size_t> FunnelServable::run_replicated(
    std::size_t stage, std::size_t shard, const Request& req,
    StageStats* stats) {
  IMARS_REQUIRE(stage == kRetrieveStage,
                "FunnelServable: only retrieve runs without fed items");
  return retrieve_on(shard, user_of(req), stats);
}

std::vector<std::size_t> FunnelServable::run_replicated_fed(
    std::size_t stage, std::size_t shard, const Request& req,
    std::span<const std::size_t> fed, StageStats* stats) {
  IMARS_REQUIRE(stage == kFilterStage,
                "FunnelServable: only the filter stage consumes items");
  const auto& user = user_of(req);
  auto kept = narrowed_candidates(user, fed);
  if (stats != nullptr)
    stats->at(OpKind::kNns) += perf_[shard].nns(sig_cmas(fed.size()));
  return kept;
}

std::vector<recsys::ScoredItem> FunnelServable::run_sharded(
    std::size_t stage, std::size_t shard, const Request& req,
    std::span<const std::size_t> slice, std::size_t k, StageStats* stats) {
  const auto& user = user_of(req);
  if (stage == kRankStage) return shards_[shard]->rank(user, slice, k, stats);
  IMARS_REQUIRE(stage == kRerankStage,
                "FunnelServable: unknown sharded stage");
  // Full-precision re-rank of the rank stage's survivors (the float
  // reference model; the quantized crossbar pass already ordered them).
  std::vector<recsys::ScoredItem> scored;
  scored.reserve(slice.size());
  for (std::size_t item : slice)
    scored.push_back({item, model_->ctr(user, item)});
  std::sort(scored.begin(), scored.end(),
            [](const recsys::ScoredItem& a, const recsys::ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
  if (scored.size() > k) scored.resize(k);
  charge_rerank(shard, user, slice.size(), k, stats);
  return scored;
}

void FunnelServable::accesses_into(std::size_t stage, const Request& req,
                                   std::span<const std::size_t> slice,
                                   std::vector<RowAccess>& out) const {
  const auto& user = user_of(req);
  if (stage == kRetrieveStage) {
    append_pooled_pass(user, traffic_.filter_features, out);
    return;
  }
  if (stage == kFilterStage) return;  // signature sweep: no ET rows
  if (stage == kRankStage) {
    append_rank_pass(user, traffic_.rank_features, slice, out);
    return;
  }
  IMARS_REQUIRE(stage == kRerankStage, "FunnelServable: unknown stage");
  append_rank_pass(user, model_->rank_features(), slice, out);
}

std::vector<RowAccess> FunnelServable::update_accesses(
    const Request& req) const {
  std::vector<RowAccess> out;
  append_pooled_pass(user_of(req), traffic_.filter_features, out);
  return out;
}

std::vector<std::size_t> FunnelServable::profile_items(const Request& req) {
  const auto& user = user_of(req);
  return narrowed_candidates(user, retrieve_on(0, user, nullptr));
}

std::vector<device::Ns> FunnelServable::stage_cost_estimate(std::size_t k) {
  if (users_.empty()) return {};
  const auto& probe = users_.front();
  std::vector<device::Ns> costs;
  StageStats retrieve_stats;
  auto candidates = retrieve_on(0, probe, &retrieve_stats);
  costs.push_back(retrieve_stats.total().latency);
  StageStats filter_stats;
  filter_stats.at(OpKind::kNns) +=
      perf_.front().nns(sig_cmas(candidates.size()));
  auto kept = narrowed_candidates(probe, candidates);
  costs.push_back(filter_stats.total().latency);
  const std::size_t rank_k =
      cfg_.rerank ? cfg_.rank_keep : std::max<std::size_t>(k, 1);
  StageStats rank_stats;
  if (!kept.empty())
    (void)shards_.front()->rank(probe, kept, rank_k, &rank_stats);
  costs.push_back(rank_stats.total().latency);
  if (cfg_.rerank) {
    StageStats rerank_stats;
    charge_rerank(0, probe, cfg_.rank_keep, std::max<std::size_t>(k, 1),
                  &rerank_stats);
    costs.push_back(rerank_stats.total().latency);
  }
  return costs;
}

}  // namespace imars::serve
