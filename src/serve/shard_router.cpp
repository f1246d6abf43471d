#include "serve/shard_router.hpp"

#include "util/error.hpp"

namespace imars::serve {

using recsys::StageStats;

PipelineSpec ShardRouter::pipeline_spec() {
  PipelineSpec spec;
  spec.stages = {{"filter", StageKind::kReplicated, {}},
                 {"rank", StageKind::kSharded, {"filter"}}};
  spec.merge_topk = true;
  return spec;
}

ShardRouter::ShardRouter(const core::BackendFactory& factory,
                         std::size_t shards, TrafficSpec traffic)
    : spec_(pipeline_spec()), traffic_(std::move(traffic)) {
  IMARS_REQUIRE(shards >= 1, "ShardRouter: need at least one shard");
  // Uniform replicas ignore the slot; any profile placeholder works.
  const std::vector<device::DeviceProfile> slots(shards,
                                                 device::DeviceProfile{});
  shards_ = core::build_replicas(core::per_slot(factory), slots);
}

ShardRouter::ShardRouter(const core::ShardedBackendFactory& factory,
                         std::span<const device::DeviceProfile> profiles,
                         TrafficSpec traffic)
    : spec_(pipeline_spec()), traffic_(std::move(traffic)) {
  IMARS_REQUIRE(!profiles.empty(), "ShardRouter: need at least one shard");
  shards_ = core::build_replicas(factory, profiles);
}

void ShardRouter::bind_users(std::span<const recsys::UserContext> users) {
  IMARS_REQUIRE(!users.empty(), "ShardRouter: empty user population");
  users_ = users;
}

const recsys::UserContext& ShardRouter::user_of(const Request& req) const {
  IMARS_REQUIRE(req.user < users_.size(),
                "ShardRouter: user out of range (bind_users first)");
  return users_[req.user];
}

std::vector<device::Ns> ShardRouter::probe_rank_cost(
    const recsys::UserContext& probe, std::span<const std::size_t> items) {
  std::vector<device::Ns> costs;
  costs.reserve(shards_.size());
  for (auto& shard : shards_) {
    StageStats stats;
    (void)shard->rank(probe, items, std::max<std::size_t>(items.size(), 1),
                      &stats);
    costs.push_back(stats.total().latency);
  }
  return costs;
}

std::vector<device::Ns> ShardRouter::stage_cost_estimate(std::size_t k) {
  if (users_.empty()) return {};
  const auto& probe = users_.front();
  auto& shard = *shards_.front();
  StageStats filter_stats;
  const auto candidates = shard.filter(probe, &filter_stats);
  StageStats rank_stats;
  if (!candidates.empty())
    (void)shard.rank(probe, candidates, std::max<std::size_t>(k, 1),
                     &rank_stats);
  return {filter_stats.total().latency, rank_stats.total().latency};
}

std::vector<std::size_t> ShardRouter::run_replicated(std::size_t stage,
                                                     std::size_t shard,
                                                     const Request& req,
                                                     StageStats* stats) {
  IMARS_REQUIRE(stage == 0, "ShardRouter: filter is stage 0");
  return shards_[shard]->filter(user_of(req), stats);
}

std::vector<recsys::ScoredItem> ShardRouter::run_sharded(
    std::size_t stage, std::size_t shard, const Request& req,
    std::span<const std::size_t> slice, std::size_t k, StageStats* stats) {
  IMARS_REQUIRE(stage == 1, "ShardRouter: rank is stage 1");
  return shards_[shard]->rank(user_of(req), slice, k, stats);
}

void append_pooled_pass(const recsys::UserContext& user,
                        std::span<const std::size_t> features,
                        std::vector<RowAccess>& out) {
  auto add_feature = [&](std::size_t f) {
    bool first = true;
    for (std::size_t idx : user.sparse[f]) {
      out.push_back(
          {ShardRouter::kUietTableBase + static_cast<std::uint32_t>(f),
           static_cast<std::uint32_t>(idx), true, first});
      first = false;
    }
  };
  if (features.empty()) {
    for (std::size_t f = 0; f < user.sparse.size(); ++f) add_feature(f);
  } else {
    for (std::size_t f : features) add_feature(f);
  }
  bool first = true;
  for (std::size_t item : user.history) {
    out.push_back({ShardRouter::kItetTable, static_cast<std::uint32_t>(item),
                   true, first});
    first = false;
  }
}

void append_rank_pass(const recsys::UserContext& user,
                      std::span<const std::size_t> features,
                      std::span<const std::size_t> items,
                      std::vector<RowAccess>& out) {
  for (std::size_t item : items) {
    append_pooled_pass(user, features, out);
    out.push_back(
        {ShardRouter::kItetTable, static_cast<std::uint32_t>(item), false});
  }
}

void ShardRouter::accesses_into(std::size_t stage, const Request& req,
                                std::span<const std::size_t> slice,
                                std::vector<RowAccess>& out) const {
  const auto& user = user_of(req);
  if (stage == 0)
    append_pooled_pass(user, traffic_.filter_features, out);
  else
    append_rank_pass(user, traffic_.rank_features, slice, out);
}

std::vector<RowAccess> ShardRouter::update_accesses(const Request& req) const {
  std::vector<RowAccess> out;
  append_pooled_pass(user_of(req), traffic_.filter_features, out);
  return out;
}

std::vector<std::size_t> ShardRouter::profile_items(const Request& req) {
  StageStats stats;  // observational probe; costs discarded
  return shards_.front()->filter(user_of(req), &stats);
}

}  // namespace imars::serve
