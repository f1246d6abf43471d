#include "recsys/types.hpp"

#include "util/error.hpp"

namespace imars::recsys {

FeatureIds::FeatureIds(std::size_t features, std::size_t ids) {
  buf_.reserve(1 + features + ids);
  buf_.assign(1 + features, 0);
  buf_[0] = features;
}

void FeatureIds::fill_next(std::span<const std::size_t> list) {
  std::size_t f = 0;
  while (f < size() && buf_[1 + f] != 0) ++f;
  IMARS_REQUIRE(f < size(), "FeatureIds: every feature is filled");
  buf_.insert(buf_.end(), list.begin(), list.end());
  buf_[1 + f] = buf_.size();
}

std::string_view op_name(OpKind k) {
  switch (k) {
    case OpKind::kEtLookup: return "ET Lookup";
    case OpKind::kDnn: return "DNN Stack";
    case OpKind::kNns: return "NNS";
    case OpKind::kTopK: return "TopK";
    case OpKind::kComm: return "Comm";
    case OpKind::kEtWrite: return "ET Write";
    case OpKind::kEtBlock: return "ET Block Fetch";
    case OpKind::kCount: break;
  }
  return "unknown";
}

OpCost StageStats::total() const {
  OpCost t;
  for (const auto& c : ops) t += c;
  return t;
}

void StageStats::merge(const StageStats& other) {
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i] += other.ops[i];
}

std::vector<tensor::Vector> CtrBackend::gather_tower(
    std::span<const std::size_t>, StageStats*) {
  IMARS_REQUIRE(false, std::string(name()) +
                           ": staged tower scoring is not supported");
  return {};
}

tensor::Vector CtrBackend::dense_tower(const tensor::Vector&, StageStats*) {
  IMARS_REQUIRE(false, std::string(name()) +
                           ": staged tower scoring is not supported");
  return {};
}

float CtrBackend::interact_top(std::span<const tensor::Vector>,
                               const tensor::Vector&, StageStats*) {
  IMARS_REQUIRE(false, std::string(name()) +
                           ": staged tower scoring is not supported");
  return 0.0f;
}

std::vector<ScoredItem> recommend(FilterRankBackend& backend,
                                  const UserContext& user, std::size_t k,
                                  StageStats* filter_stats,
                                  StageStats* rank_stats) {
  const auto candidates = backend.filter(user, filter_stats);
  return backend.rank(user, candidates, k, rank_stats);
}

}  // namespace imars::recsys
