// iMARS execution backends: the paper's computation flow (Sec III-C, labels
// (1a)-(2e) in Fig. 3) implemented on the functional accelerator.
//
// Filtering: (1a) sparse features -> UIET/ItET lookups + pooling (in-memory
// adds, intra-mat/intra-bank trees); (1b/1c) pooled features + dense
// features -> filtering DNN on crossbars -> user embedding; (1d) TCAM
// fixed-radius NNS over the ItET signature arrays -> candidate item ids
// into the item buffer.
//
// Ranking: (2a/2b) per candidate, item embedding fetch + rank UIET lookups;
// (2c/2d) ranking DNN on crossbars -> CTR into the CTR buffer; (2e) top-k by
// threshold-matching an all-ones query against the CTR buffer.
#pragma once

#include <memory>
#include <vector>

#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "lsh/lsh.hpp"
#include "recsys/dlrm.hpp"
#include "recsys/types.hpp"
#include "recsys/youtube_dnn.hpp"
#include "xbar/xbar_mlp.hpp"

namespace imars::core {

/// Configuration of the iMARS backend.
struct ImarsBackendConfig {
  std::size_t nns_radius = 96;    ///< fixed-radius Hamming threshold
  TimingMode timing = TimingMode::kActualPlacement;
  /// Candidate cap = CTR-buffer rows (one CMA): the item buffer holds at
  /// most this many candidates per query.
  std::size_t max_candidates = 256;
};

/// Two-stage (YouTubeDNN) pipeline on iMARS.
class ImarsBackend : public recsys::FilterRankBackend {
 public:
  /// Quantizes the trained model, loads every ET into CMA banks, programs
  /// the two crossbar banks. `calibration` supplies representative user
  /// contexts for activation-scale calibration of the crossbar MLPs.
  ImarsBackend(const recsys::YoutubeDnn& model, const ArchConfig& arch,
               const device::DeviceProfile& profile,
               const ImarsBackendConfig& cfg,
               std::span<const recsys::UserContext> calibration);

  /// Replica of `image` on `profile`: shares its loaded tables, LSH planes
  /// and table ids (see ImarsAccelerator's replica constructor) and programs
  /// its own crossbar banks on `profile`. Behaves exactly like a backend
  /// constructed on `profile` from the image's model, config and
  /// `calibration`.
  ImarsBackend(const ImarsBackend& image, const device::DeviceProfile& profile,
               std::span<const recsys::UserContext> calibration);

  std::string_view name() const override { return "imars-fefet"; }

  std::vector<std::size_t> filter(const recsys::UserContext& user,
                                  recsys::StageStats* stats) override;

  std::vector<recsys::ScoredItem> rank(
      const recsys::UserContext& user,
      std::span<const std::size_t> candidates, std::size_t k,
      recsys::StageStats* stats) override;

  /// The machine (for resource census and energy inspection).
  ImarsAccelerator& accelerator() noexcept { return *acc_; }
  const ImarsAccelerator& accelerator() const noexcept { return *acc_; }

  /// Hardware user embedding (crossbar tower output) — exposed for parity
  /// tests against the float tower.
  tensor::Vector user_embedding_hw(const recsys::UserContext& user,
                                   recsys::StageStats* stats);

  /// Query signature for an embedding (same LSH planes as the stored ItET
  /// signatures).
  util::BitVec signature_of(std::span<const float> embedding) const;

  const ImarsBackendConfig& config() const noexcept { return cfg_; }

 private:
  /// Programs the crossbar DNN banks on the accelerator's profile, then
  /// clears the one-time set-up energy.
  void program_dnns(std::span<const recsys::UserContext> calibration);

  const recsys::YoutubeDnn* model_;
  ImarsBackendConfig cfg_;
  std::unique_ptr<ImarsAccelerator> acc_;
  lsh::RandomHyperplaneLsh lsh_;
  std::vector<std::size_t> uiet_ids_;  // schema feature -> table id
  std::size_t itet_id_ = 0;
  std::unique_ptr<xbar::XbarMlp> filter_dnn_;
  std::unique_ptr<xbar::XbarMlp> rank_dnn_;
};

/// DLRM (ranking-only) pipeline on iMARS.
class ImarsCtrBackend : public recsys::CtrBackend {
 public:
  /// `calibration` supplies representative (dense, sparse) samples.
  ImarsCtrBackend(const recsys::Dlrm& model, const ArchConfig& arch,
                  const device::DeviceProfile& profile, TimingMode timing,
                  std::span<const data::CriteoSample> calibration);

  /// Replica of `image` on `profile`: shares its loaded tables and table
  /// ids and programs its own crossbar banks on `profile` (as
  /// ImarsBackend's replica constructor does).
  ImarsCtrBackend(const ImarsCtrBackend& image,
                  const device::DeviceProfile& profile,
                  std::span<const data::CriteoSample> calibration);

  std::string_view name() const override { return "imars-fefet"; }

  /// Fused scoring: gather_tower + dense_tower + interact_top (identical
  /// costs and result to composing the staged API below).
  float score(const tensor::Vector& dense,
              std::span<const std::size_t> sparse,
              recsys::StageStats* stats) override;

  // Staged tower API (stage-DAG serving): the 26 one-hot gathers run on
  // the CMA banks while the bottom MLP runs on crossbars — disjoint
  // hardware, so a serving graph may overlap them.
  bool supports_towers() const override { return true; }
  std::vector<tensor::Vector> gather_tower(
      std::span<const std::size_t> sparse,
      recsys::StageStats* stats) override;
  tensor::Vector dense_tower(const tensor::Vector& dense,
                             recsys::StageStats* stats) override;
  float interact_top(std::span<const tensor::Vector> embeddings,
                     const tensor::Vector& bottom,
                     recsys::StageStats* stats) override;

  ImarsAccelerator& accelerator() noexcept { return *acc_; }
  const ImarsAccelerator& accelerator() const noexcept { return *acc_; }

 private:
  /// Programs the bottom and top MLPs on the accelerator's profile, then
  /// clears the one-time set-up energy.
  void program_dnns(std::span<const data::CriteoSample> calibration);

  const recsys::Dlrm* model_;
  TimingMode timing_;
  std::unique_ptr<ImarsAccelerator> acc_;
  std::vector<std::size_t> table_ids_;
  std::unique_ptr<xbar::XbarMlp> bottom_dnn_;
  std::unique_ptr<xbar::XbarMlp> top_dnn_;
};

}  // namespace imars::core
