// Full-funnel servable: retrieval -> filter -> rank -> re-rank as ONE
// stage-DAG served by the generic engine (serve/stage_pipeline.*).
//
// The two-stage ShardRouter starts from the backend's own candidate
// generation (the TCAM fixed-radius NNS). Production funnels in the papers
// this repo tracks put an explicit ANN *retrieval* tier in front (FAISS-style
// IVF or an LSH top-k), narrow its output with a cheap signature filter,
// rank the survivors on the quantized hardware path, and finish with a
// small, precise *re-rank* over the rank stage's best few dozen items.
// FunnelServable expresses that shape as a single PipelineSpec:
//
//   retrieve (replicated)  — per-query ANN candidate generation through a
//                            RetrievalBackend adapter (IVF or the
//                            backend's own filter pass);
//   filter   (replicated,  — narrows the retrieved candidates to those
//             consume_items) within a Hamming radius of the user's LSH
//                            signature (the TCAM threshold semantics,
//                            restricted to the fed item set);
//   rank     (sharded,     — the existing quantized rank pass over the
//             emit_topk)     ShardMap's slices; per-shard partials merge
//                            into the global top-`rank_keep` item list;
//   rerank   (sharded)     — full-precision YoutubeDnn::ctr scoring of the
//                            rank stage's survivors; the merged top-k is
//                            the query's answer.
//
// Stage technologies follow the engine's per-slot DeviceProfile story: each
// shard's replica is built on its own profile and the funnel-specific
// stages (retrieve / filter / rerank) charge their analytical costs through
// that shard's PerfModel, so a heterogeneous fabric prices every stage on
// the silicon it actually runs on.
//
// Every configuration serves retrieve -> filter -> rank, plus rerank when
// FunnelConfig::rerank is on.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "baseline/ivf.hpp"
#include "core/backend_factory.hpp"
#include "core/perf_model.hpp"
#include "lsh/lsh.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/shard_router.hpp"
#include "serve/stage_pipeline.hpp"
#include "util/bitvec.hpp"

namespace imars::serve {

/// Which ANN engine generates the retrieval tier's candidates.
enum class RetrievalKind : std::uint8_t {
  /// The backend replica's own filter pass (the TCAM fixed-radius NNS) —
  /// the "stubbed to a fixed candidate list" mode.
  kFixed,
  /// IVF-Flat over the item embeddings (baseline::IvfIndex).
  kIvf,
};

/// Funnel shape and knobs. Every field defaults to the paper-anchored
/// values.
struct FunnelConfig {
  RetrievalKind retrieval = RetrievalKind::kIvf;
  /// Candidates the retrieval tier emits per query (ANN top-k).
  std::size_t retrieve_k = 256;
  /// Hamming narrowing radius of the signature filter stage (the TCAM
  /// threshold, applied to the fed candidates only). A radius >= the
  /// signature length keeps everything.
  std::size_t filter_radius = 96;
  /// Items the rank stage's merged partials keep for the re-rank
  /// (StageSpec::emit_topk of the rank stage).
  std::size_t rank_keep = 64;
  /// Present the re-rank stage (off = the rank stage is the output).
  bool rerank = true;
  /// IVF build/search parameters (RetrievalKind::kIvf).
  baseline::IvfIndex::Config ivf{};
};

/// The retrieval tier behind a uniform adapter: one engine turns a user
/// embedding into a candidate list and reports what it scanned, so the
/// servable can charge the scan through the owning shard's PerfModel.
class RetrievalBackend {
 public:
  virtual ~RetrievalBackend() = default;
  /// Candidate item ids for `embedding`, best-first where the engine
  /// defines an order. `scanned` (when non-null) receives the number of
  /// item entries the engine evaluated (the cost driver).
  virtual std::vector<std::size_t> retrieve(std::span<const float> embedding,
                                            std::size_t k,
                                            std::size_t* scanned) const = 0;
};

class FunnelServable final : public ServableBackend {
 public:
  /// The stage graph `cfg` implies: 3 stages (no re-rank) or 4 (full
  /// funnel).
  static PipelineSpec pipeline_spec(const FunnelConfig& cfg);

  /// Uniform fabric: `profiles.size()` replicas from `factory` (the slot is
  /// ignored functionally); each shard's analytical stage costs use its own
  /// profile's PerfModel. `model` and `profiles` must outlive the servable.
  FunnelServable(const recsys::YoutubeDnn& model, const core::ArchConfig& arch,
                 const core::BackendFactory& factory,
                 std::span<const device::DeviceProfile> profiles,
                 FunnelConfig cfg, TrafficSpec traffic = {});

  /// Heterogeneous fabric: one replica per slot, built on the slot profile.
  FunnelServable(const recsys::YoutubeDnn& model, const core::ArchConfig& arch,
                 const core::ShardedBackendFactory& factory,
                 std::span<const device::DeviceProfile> profiles,
                 FunnelConfig cfg, TrafficSpec traffic = {});

  /// Binds the user-context population Request::user indexes (same
  /// contract as ShardRouter::bind_users).
  void bind_users(std::span<const recsys::UserContext> users);

  /// Offline probe of the retrieval tier for one user (recall@k audits):
  /// the candidate list the retrieve stage would produce, no cost
  /// accounting, replica 0 for RetrievalKind::kFixed.
  std::vector<std::size_t> retrieval_candidates(
      const recsys::UserContext& user);

  /// Offline probe of the signature filter: `fed` narrowed to the user's
  /// Hamming radius (fed order preserved; falls back to `fed` when the
  /// radius empties it, so the rank stage never starves).
  std::vector<std::size_t> narrowed_candidates(
      const recsys::UserContext& user, std::span<const std::size_t> fed) const;

  // --- ServableBackend -----------------------------------------------------
  std::string_view name() const override { return "funnel"; }
  const PipelineSpec& spec() const override { return spec_; }
  std::size_t shards() const override { return shards_.size(); }

  std::vector<std::size_t> run_replicated(
      std::size_t stage, std::size_t shard, const Request& req,
      recsys::StageStats* stats) override;

  std::vector<std::size_t> run_replicated_fed(
      std::size_t stage, std::size_t shard, const Request& req,
      std::span<const std::size_t> fed, recsys::StageStats* stats) override;

  std::vector<recsys::ScoredItem> run_sharded(
      std::size_t stage, std::size_t shard, const Request& req,
      std::span<const std::size_t> slice, std::size_t k,
      recsys::StageStats* stats) override;

  void accesses_into(std::size_t stage, const Request& req,
                     std::span<const std::size_t> slice,
                     std::vector<RowAccess>& out) const override;

  std::vector<RowAccess> update_accesses(const Request& req) const override;

  std::vector<std::size_t> profile_items(const Request& req) override;

  std::vector<device::Ns> stage_cost_estimate(std::size_t k) override;

 private:
  const recsys::UserContext& user_of(const Request& req) const;
  /// Retrieval candidates + scanned-entry count for cost accounting
  /// (replica `shard` runs the kFixed pass).
  std::vector<std::size_t> retrieve_on(std::size_t shard,
                                       const recsys::UserContext& user,
                                       recsys::StageStats* stats);
  /// Analytical cost of the user-tower + ANN scan on shard `shard`.
  void charge_retrieve(std::size_t shard, const recsys::UserContext& user,
                       std::size_t scanned, recsys::StageStats* stats) const;
  /// Analytical per-slice cost of the re-rank pass on shard `shard`.
  void charge_rerank(std::size_t shard, const recsys::UserContext& user,
                     std::size_t items, std::size_t k,
                     recsys::StageStats* stats) const;
  /// Signature CMAs spanned by `entries` item signatures.
  std::size_t sig_cmas(std::size_t entries) const;

  const recsys::YoutubeDnn* model_;
  core::ArchConfig arch_;
  FunnelConfig cfg_;
  PipelineSpec spec_;
  TrafficSpec traffic_;

  std::vector<std::unique_ptr<recsys::FilterRankBackend>> shards_;
  std::vector<core::PerfModel> perf_;  ///< one per shard (slot profile)
  std::span<const recsys::UserContext> users_;

  std::unique_ptr<RetrievalBackend> retrieval_;    // null for kFixed
  std::unique_ptr<lsh::RandomHyperplaneLsh> lsh_;  // signatures
  std::vector<util::BitVec> item_sigs_;            // per item, lsh_ planes
};

}  // namespace imars::serve
