#include "serve/servable_ctr.hpp"

#include "util/error.hpp"

namespace imars::serve {

using recsys::StageStats;

namespace {

// Tower-graph stage indices (spec order below).
constexpr std::size_t kGatherStage = 0;
constexpr std::size_t kDenseStage = 1;
constexpr std::size_t kInteractStage = 2;

}  // namespace

PipelineSpec CtrServable::pipeline_spec(CtrGraph graph) {
  PipelineSpec spec;
  spec.merge_topk = false;  // one shard scores the impression; no tournament
  switch (graph) {
    case CtrGraph::kFused:
      spec.stages = {{"score", StageKind::kSharded, {}}};
      break;
    case CtrGraph::kTowerChain:
      // The same three tower stages, serialized as a chain: the dense
      // stage passes the impression through as the interact stage's work
      // item.
      spec.stages = {{"gather", StageKind::kSharded, {}},
                     {"dense", StageKind::kReplicated, {"gather"}},
                     {"interact", StageKind::kSharded, {"dense"}}};
      break;
    case CtrGraph::kTowerDag:
      // Parallel feature towers: gather (CMA banks) and dense (crossbars)
      // are both sources; interact joins on the later arriving tower.
      spec.stages = {{"gather", StageKind::kSharded, {}},
                     {"dense", StageKind::kReplicated, {}},
                     {"interact", StageKind::kSharded, {"gather", "dense"}}};
      break;
  }
  return spec;
}

CtrServable::CtrServable(const core::CtrBackendFactory& factory,
                         std::span<const device::DeviceProfile> profiles,
                         CtrGraph graph)
    : graph_(graph), spec_(pipeline_spec(graph)) {
  IMARS_REQUIRE(!profiles.empty(), "CtrServable: need at least one shard");
  shards_ = core::build_replicas(factory, profiles);
  if (graph_ != CtrGraph::kFused)
    for (const auto& shard : shards_)
      IMARS_REQUIRE(shard->supports_towers(),
                    "CtrServable: tower graphs need a staged CtrBackend");
}

void CtrServable::bind_samples(std::span<const data::CriteoSample> samples) {
  IMARS_REQUIRE(!samples.empty(), "CtrServable: empty impression population");
  samples_ = samples;
}

const data::CriteoSample& CtrServable::sample_of(const Request& req) const {
  IMARS_REQUIRE(req.user < samples_.size(),
                "CtrServable: sample out of range (bind_samples first)");
  return samples_[req.user];
}

std::vector<device::Ns> CtrServable::probe_score_cost(
    const data::CriteoSample& probe) {
  std::vector<device::Ns> costs;
  costs.reserve(shards_.size());
  for (auto& shard : shards_) {
    StageStats stats;
    (void)shard->score(probe.dense, probe.sparse, &stats);
    costs.push_back(stats.total().latency);
  }
  return costs;
}

std::vector<device::Ns> CtrServable::stage_cost_estimate(std::size_t /*k*/) {
  if (samples_.empty()) return {};
  const auto& probe = samples_.front();
  auto& shard = *shards_.front();
  if (graph_ == CtrGraph::kFused) {
    StageStats stats;
    (void)shard.score(probe.dense, probe.sparse, &stats);
    return {stats.total().latency};
  }
  StageStats gather_stats, dense_stats, interact_stats;
  const auto embs = shard.gather_tower(probe.sparse, &gather_stats);
  const auto b = shard.dense_tower(probe.dense, &dense_stats);
  (void)shard.interact_top(embs, b, &interact_stats);
  return {gather_stats.total().latency, dense_stats.total().latency,
          interact_stats.total().latency};
}

std::vector<std::size_t> CtrServable::run_replicated(std::size_t stage,
                                                     std::size_t shard,
                                                     const Request& req,
                                                     StageStats* stats) {
  IMARS_REQUIRE(graph_ != CtrGraph::kFused && stage == kDenseStage,
                "CtrServable: no such replicated stage in the CTR graph");
  const auto& s = sample_of(req);
  (void)shards_[shard]->dense_tower(s.dense, stats);
  // Pass the impression through as the interact stage's work item (the
  // interact stage partitions its replicated feeder's output).
  return {req.id};
}

std::vector<recsys::ScoredItem> CtrServable::run_sharded(
    std::size_t stage, std::size_t shard, const Request& req,
    std::span<const std::size_t> slice, std::size_t /*k*/,
    StageStats* stats) {
  std::vector<recsys::ScoredItem> out;
  if (graph_ == CtrGraph::kFused) {
    IMARS_REQUIRE(stage == 0, "CtrServable: score is stage 0");
    // The slice carries the request's own id (initial_items); score the
    // impression the request references.
    out.reserve(slice.size());
    for (std::size_t key : slice) {
      IMARS_REQUIRE(key == req.id, "CtrServable: foreign work item");
      const auto& s = sample_of(req);
      const float ctr = shards_[shard]->score(s.dense, s.sparse, stats);
      out.push_back({req.user, ctr});
    }
    return out;
  }

  IMARS_REQUIRE(stage == kGatherStage || stage == kInteractStage,
                "CtrServable: no such sharded stage in the tower graph");
  for (std::size_t key : slice) {
    IMARS_REQUIRE(key == req.id, "CtrServable: foreign work item");
    const auto& s = sample_of(req);
    if (stage == kGatherStage) {
      // The gather tower: measures the ET traffic; its embeddings are
      // recomputed (unmeasured) at the join, keeping the servable
      // stateless across stages.
      (void)shards_[shard]->gather_tower(s.sparse, stats);
      continue;
    }
    const auto embs = shards_[shard]->gather_tower(s.sparse, nullptr);
    const auto b = shards_[shard]->dense_tower(s.dense, nullptr);
    const float ctr = shards_[shard]->interact_top(embs, b, stats);
    out.push_back({req.user, ctr});
  }
  return out;
}

void CtrServable::accesses_into(std::size_t stage, const Request& req,
                                std::span<const std::size_t> slice,
                                std::vector<RowAccess>& out) const {
  // One row fetch per categorical feature per scored impression (DLRM
  // looks up exactly one row per table; no pooling chain). The 26 banks
  // read in parallel — the measured ET latency is the slowest bank, not a
  // sum — so hits are flagged parallel_bank, grouped per impression:
  // energy is credited per hit, latency only when a whole impression hits.
  // In the tower graphs only the gather stage touches the ET banks.
  if (graph_ != CtrGraph::kFused && stage != kGatherStage) return;
  const auto& s = sample_of(req);
  out.reserve(out.size() + slice.size() * s.sparse.size());
  for (std::size_t i = 0; i < slice.size(); ++i)
    for (std::size_t f = 0; f < s.sparse.size(); ++f)
      out.push_back({static_cast<std::uint32_t>(f),
                     static_cast<std::uint32_t>(s.sparse[f]),
                     /*pooled=*/false, /*first_in_table=*/false,
                     /*parallel_bank=*/true,
                     /*parallel_group=*/static_cast<std::uint32_t>(i)});
}

std::vector<RowAccess> CtrServable::update_accesses(const Request& req) const {
  // One row write per categorical feature (DLRM reads exactly one row per
  // table, and the update refreshes the same rows). Pooling/parallel flags
  // are read-path concepts; the write path only needs the keys.
  std::vector<RowAccess> out;
  const auto& s = sample_of(req);
  out.reserve(s.sparse.size());
  for (std::size_t f = 0; f < s.sparse.size(); ++f)
    out.push_back({static_cast<std::uint32_t>(f),
                   static_cast<std::uint32_t>(s.sparse[f]),
                   /*pooled=*/false, /*first_in_table=*/false});
  return out;
}

}  // namespace imars::serve
