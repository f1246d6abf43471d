// The two-stage (YouTubeDNN filter/rank) servable: FilterRankBackend
// replicas behind the generic staged-pipeline engine.
//
// The filter stage is *replicated* — any shard can run any query's
// filtering pass over the full catalog (queries spread over shards by the
// ShardMap), while the rank stage is *sharded* — each shard ranks only the
// candidate items it owns under the ShardMap's disjoint cover and ships its
// local top-k to the merge unit. Because the slices are disjoint and cover
// all candidates, merged results equal single-backend results for ANY
// capability weighting, including empty slices on zero-weight shards.
//
// This class is the workload adapter only; execution (worker threads,
// event-model clocks, cache rewriting, merge timing) lives in
// serve/stage_pipeline.*. PR 1's ShardRouter fused the two and hard-coded
// `item % N` placement; the modulo is gone from the public API — every
// item→shard decision routes through the engine's ShardMap.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/backend_factory.hpp"
#include "serve/stage_pipeline.hpp"

namespace imars::serve {

/// Which ET rows each stage touches, mirroring ImarsBackend's computation
/// flow so cache adjustments rewrite exactly the traffic that was measured:
/// the filter stage pools its feature subset + history once; the rank stage
/// re-runs its pooled lookups *per candidate* (Table III's ranking lookup
/// is "for one item input") and row-fetches each candidate's embedding.
struct TrafficSpec {
  std::vector<std::size_t> filter_features;  ///< empty = all sparse features
  std::vector<std::size_t> rank_features;    ///< empty = all sparse features
};

class ShardRouter final : public ServableBackend {
 public:
  /// Table-key namespace of RowAccess: the ItET plus one UIET per sparse
  /// feature (filter and rank replicas share the hot buffer).
  static constexpr std::uint32_t kItetTable = 0;
  static constexpr std::uint32_t kUietTableBase = 1;

  /// The filter/rank stage graph this servable implements.
  static PipelineSpec pipeline_spec();

  /// Uniform fabric: `shards` identical replicas from `factory` (built in
  /// shard order; see core::build_replicas). `traffic` describes the
  /// per-stage ET row accesses for cache bookkeeping.
  ShardRouter(const core::BackendFactory& factory, std::size_t shards,
              TrafficSpec traffic = {});

  /// Heterogeneous fabric: one replica per slot, each built on its own
  /// device profile (mixed technologies).
  ShardRouter(const core::ShardedBackendFactory& factory,
              std::span<const device::DeviceProfile> profiles,
              TrafficSpec traffic = {});

  /// Binds the user-context population `Request::user` indexes. Must be
  /// called before serving and while no batch is in flight; the span must
  /// outlive the serving run.
  void bind_users(std::span<const recsys::UserContext> users);

  /// Measures each shard's rank-stage cost on `probe` over `items`
  /// (hardware latency per slice), for capability-weighted ShardMaps.
  /// Purely observational: replicas are not mutated functionally. Runs the
  /// replicas on the calling thread, so it must NOT be called while a
  /// batch is in flight (probe before serving, like the benches do).
  std::vector<device::Ns> probe_rank_cost(
      const recsys::UserContext& probe, std::span<const std::size_t> items);

  // --- ServableBackend -----------------------------------------------------
  std::string_view name() const override { return "filter-rank"; }
  const PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return shards_.size(); }

  std::vector<std::size_t> run_replicated(
      std::size_t stage, std::size_t shard, const Request& req,
      recsys::StageStats* stats) override;

  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t stage, std::size_t shard, const Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) override;

  void accesses_into(std::size_t stage, const Request& req,
                     std::span<const std::size_t> slice,
                     std::vector<RowAccess>& out) const override;

  /// An embedding update writes the user's profile rows: the filter-feature
  /// sparse rows plus the interaction history (the rows an online trainer
  /// refreshes after the user acts on a recommendation).
  std::vector<RowAccess> update_accesses(const Request& req) const override;

  /// Candidate items of the request's filter pass, probed on replica 0 —
  /// the keys its rank stage routes through the ShardMap (warm-pin
  /// frequency profiling).
  std::vector<std::size_t> profile_items(const Request& req) override;

  /// {filter, rank} hardware-latency estimates probed on shard 0 against
  /// the first bound user (empty before bind_users). The rank estimate
  /// covers the full candidate set of the probe's filter pass at top-`k`.
  std::vector<device::Ns> stage_cost_estimate(std::size_t k) override;

 private:
  const recsys::UserContext& user_of(const Request& req) const;

  PipelineSpec spec_;
  TrafficSpec traffic_;
  std::vector<std::unique_ptr<recsys::FilterRankBackend>> shards_;
  std::span<const recsys::UserContext> users_;
};

/// Appends one pooled pass over the user's `features` sparse rows (every
/// sparse feature when empty) + history: a query's filter pass. The first
/// row of each table's chain is marked (its in-array cost is a bare read,
/// not a read+write+add increment).
void append_pooled_pass(const recsys::UserContext& user,
                        std::span<const std::size_t> features,
                        std::vector<RowAccess>& out);

/// Appends a rank pass over `items`: per candidate, one pooled pass over
/// `features` + history (the backend re-pools them for every item; Table
/// III prices the ranking lookup per item input) plus the candidate's own
/// ItET row fetch.
void append_rank_pass(const recsys::UserContext& user,
                      std::span<const std::size_t> features,
                      std::span<const std::size_t> items,
                      std::vector<RowAccess>& out);

}  // namespace imars::serve
