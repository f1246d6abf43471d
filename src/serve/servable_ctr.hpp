// The DLRM/Criteo CTR servable: ranking-only scoring behind the generic
// staged-pipeline engine (ROADMAP "larger-scale serving bench" item).
//
// Three stage graphs serve the same model (CtrGraph):
//
//   kFused       one *sharded* "score" stage — each impression is one work
//                item, placed on a shard by the ShardMap, scored in a
//                single fused pass. The pre-DAG behavior, timed
//                identically.
//   kTowerChain  the model's tower structure as a linear chain:
//                gather (sharded, ET traffic) -> dense (replicated, bottom
//                MLP on crossbars) -> interact (sharded, interaction + top
//                MLP). Same per-impression work as kFused, split across
//                three stage units.
//   kTowerDag    the towers as a DAG: gather and dense are both sources
//                and run IN PARALLEL (the CMA banks gather embeddings
//                while the crossbars run the bottom MLP — disjoint
//                hardware), joining at interact. This is the MicroRec-
//                style tower pipelining the stage-DAG engine exists for.
//
// In every graph the impression lands on one shard (the ShardMap places
// `Request::id`, and the dense stage's home shard uses the same map), so a
// capability-weighted map still sends proportionally more traffic to
// faster shards and sharded scores equal the serial
// ImarsCtrBackend::score by construction.
//
// The per-impression ET traffic (26 single-row fetches, one per categorical
// feature) flows through the same hot-embedding cache as the filter/rank
// servable — attributed to the gather stage in the tower graphs.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/backend_factory.hpp"
#include "data/criteo.hpp"
#include "serve/stage_pipeline.hpp"

namespace imars::serve {

/// Which stage graph a CtrServable serves the DLRM model through.
enum class CtrGraph : std::uint8_t {
  kFused,       ///< single sharded score stage (pre-DAG timing)
  kTowerChain,  ///< gather -> dense -> interact, serialized chain
  kTowerDag,    ///< gather and dense in parallel, joining at interact
};

class CtrServable final : public ServableBackend {
 public:
  /// The stage graph this servable implements for `graph`.
  static PipelineSpec pipeline_spec(CtrGraph graph = CtrGraph::kFused);

  /// One CtrBackend replica per profile slot, each built on its own device
  /// technology (built in parallel). `model` captured by `factory` must
  /// outlive the servable. Tower graphs require replicas implementing the
  /// staged CtrBackend API (recsys::CtrBackend::supports_towers).
  CtrServable(const core::CtrBackendFactory& factory,
              std::span<const device::DeviceProfile> profiles,
              CtrGraph graph = CtrGraph::kFused);

  /// Binds the impression population `Request::user` indexes. The span must
  /// outlive the serving run.
  void bind_samples(std::span<const data::CriteoSample> samples);

  /// Measures each shard's per-impression scoring cost on `probe` (hardware
  /// latency), for capability-weighted ShardMaps. Runs the replicas on the
  /// calling thread, so it must NOT be called while a batch is in flight
  /// (probe before serving, like the benches do).
  std::vector<device::Ns> probe_score_cost(const data::CriteoSample& probe);

  // --- ServableBackend -----------------------------------------------------
  std::string_view name() const override { return "ctr-dlrm"; }
  const PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return shards_.size(); }

  /// The impression itself is the only work item; keyed by request id so
  /// the ShardMap spreads the stream in arrival order, weighted by
  /// capability (sample ids would pin every repeat of a Zipf-hot impression
  /// to one shard).
  std::vector<std::size_t> initial_items(const Request& req) const override {
    return {req.id};
  }

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

  /// An embedding update writes the impression's categorical rows (one row
  /// per sparse feature — the rows an online trainer refreshes after the
  /// click label lands).
  std::vector<RowAccess> update_accesses(const Request& req) const override;

  /// Per-stage scoring cost probed on shard 0 against the first bound
  /// sample (empty before bind_samples): {score} for kFused,
  /// {gather, dense, interact} for the tower graphs. `k` is irrelevant to
  /// single-impression scoring.
  std::vector<device::Ns> stage_cost_estimate(std::size_t k) override;

 private:
  const data::CriteoSample& sample_of(const Request& req) const;

  CtrGraph graph_;
  PipelineSpec spec_;
  std::vector<std::unique_ptr<recsys::CtrBackend>> shards_;
  std::span<const data::CriteoSample> samples_;
};

}  // namespace imars::serve
