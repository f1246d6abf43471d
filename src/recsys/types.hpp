// Shared types of the RecSys pipeline: per-operation cost accounting and the
// backend interfaces implemented by the CPU reference, the GPU cost model
// and the iMARS accelerator.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "device/units.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"

namespace imars::recsys {

/// Operation categories of the paper's breakdown (Fig. 2): embedding-table
/// lookup+pooling, DNN stack, nearest-neighbour search, top-k selection,
/// plus explicit communication (iMARS-only; folded into ops on GPU).
enum class OpKind : std::uint8_t {
  kEtLookup,
  kDnn,
  kNns,
  kTopK,
  kComm,
  /// Embedding-table row *writes*: update write-through to the CMA arrays
  /// and dirty-row flushes out of the periphery write-back buffer (serving
  /// extension). Zero on read-only streams, so adding the category does
  /// not perturb any read-path accounting.
  kEtWrite,
  /// Cold-tier block fetches (tiered embedding memory, serving
  /// extension): a miss whose block is not warm-resident streams a whole
  /// block of rows out of the bulk tier. Zero with tiering disabled, so
  /// adding the category does not perturb any flat-store accounting.
  kEtBlock,
  kCount
};

std::string_view op_name(OpKind k);

/// Latency + energy of one operation category.
struct OpCost {
  device::Ns latency;
  device::Pj energy;

  OpCost& operator+=(const OpCost& o) {
    latency += o.latency;
    energy += o.energy;
    return *this;
  }
};

/// Cost breakdown of one pipeline stage (filtering or ranking).
struct StageStats {
  std::array<OpCost, static_cast<std::size_t>(OpKind::kCount)> ops{};

  OpCost& at(OpKind k) { return ops[static_cast<std::size_t>(k)]; }
  const OpCost& at(OpKind k) const { return ops[static_cast<std::size_t>(k)]; }

  /// Sum over all operation categories.
  OpCost total() const;

  void merge(const StageStats& other);
};

/// One scored candidate item.
struct ScoredItem {
  std::size_t item = 0;
  float score = 0.0f;
};

/// One id list per sparse feature (schema order), in one heap block: the
/// feature count, each feature's end position in the block, then every
/// feature's ids, back to back. `ids[f]` views feature f's list.
class FeatureIds {
 public:
  FeatureIds() = default;

  /// `features` lists, which fill_next fills in feature order, with room
  /// for `ids` ids in all. Reading a list before it is filled throws.
  FeatureIds(std::size_t features, std::size_t ids);

  /// Fills the next unfilled feature's list with `list`.
  void fill_next(std::span<const std::size_t> list);

  std::size_t size() const noexcept { return buf_.empty() ? 0 : buf_[0]; }

  std::span<const std::size_t> operator[](std::size_t f) const {
    IMARS_REQUIRE(f < size() && buf_[1 + f] != 0,
                  "FeatureIds: feature out of range or not filled");
    const std::size_t begin = f == 0 ? 1 + size() : buf_[f];
    return std::span(buf_).subspan(begin, buf_[1 + f] - begin);
  }

 private:
  // [count, end_0 .. end_{count-1}, ids]; an end is 0 until its list is
  // filled.
  std::vector<std::size_t> buf_;
};

/// Per-user model inputs (Fig. 1(c)): continuous features, one index list
/// per sparse feature (schema order), and the interaction history.
struct UserContext {
  tensor::Vector dense;
  FeatureIds sparse;
  std::vector<std::size_t> history;
};
// A serving population holds one context per user: three heap blocks each.
static_assert(sizeof(UserContext) == 3 * sizeof(std::vector<std::size_t>));

/// Backend interface for the two-stage (filtering + ranking) pipeline.
/// Implementations: baseline::CpuBackend, baseline::GpuModelBackend,
/// core::ImarsBackend.
class FilterRankBackend {
 public:
  virtual ~FilterRankBackend() = default;

  virtual std::string_view name() const = 0;

  /// Filtering stage: candidate item ids for the user (unordered).
  /// Appends costs to `stats` when non-null.
  virtual std::vector<std::size_t> filter(const UserContext& user,
                                          StageStats* stats) = 0;

  /// Ranking stage: CTR-scored candidates, sorted by descending score,
  /// truncated to `k` (the final top-k of Fig. 1(b)).
  virtual std::vector<ScoredItem> rank(const UserContext& user,
                                       std::span<const std::size_t> candidates,
                                       std::size_t k, StageStats* stats) = 0;
};

/// End-to-end recommendation: filter then rank; fills per-stage stats.
std::vector<ScoredItem> recommend(FilterRankBackend& backend,
                                  const UserContext& user, std::size_t k,
                                  StageStats* filter_stats,
                                  StageStats* rank_stats);

/// Backend interface for the ranking-only (DLRM / Criteo) pipeline.
///
/// Besides the fused `score`, backends may expose the model's *tower*
/// structure — the sparse embedding gather and the dense bottom-MLP run on
/// disjoint hardware (CMA banks vs crossbars) and only join at the feature
/// interaction — so a stage-DAG serving graph can overlap them. A staged
/// backend must satisfy `score(d, s) == interact_top(gather_tower(s),
/// dense_tower(d))` with the three stages' stats summing to the fused
/// stats.
class CtrBackend {
 public:
  virtual ~CtrBackend() = default;
  virtual std::string_view name() const = 0;

  /// Predicted click-through rate of one impression.
  virtual float score(const tensor::Vector& dense,
                      std::span<const std::size_t> sparse,
                      StageStats* stats) = 0;

  /// True when the staged tower API below is implemented.
  virtual bool supports_towers() const { return false; }

  /// Sparse tower: the gathered embedding rows, one per table (ET-lookup
  /// costs). Default: unsupported (throws imars::Error).
  virtual std::vector<tensor::Vector> gather_tower(
      std::span<const std::size_t> sparse, StageStats* stats);

  /// Dense tower: the bottom-MLP output (DNN costs). Default: unsupported.
  virtual tensor::Vector dense_tower(const tensor::Vector& dense,
                                     StageStats* stats);

  /// Join: feature interaction + top MLP over the two towers' outputs
  /// (DNN costs). Default: unsupported.
  virtual float interact_top(std::span<const tensor::Vector> embeddings,
                             const tensor::Vector& bottom, StageStats* stats);
};

}  // namespace imars::recsys
