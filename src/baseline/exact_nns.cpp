#include "baseline/exact_nns.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace imars::baseline {

namespace {

// Indices of the k largest scores, descending; lower index wins ties.
std::vector<std::size_t> topk_by_score(std::span<const float> scores,
                                       std::size_t k) {
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace

std::vector<std::size_t> topk_cosine(const tensor::Matrix& items,
                                     std::span<const float> query,
                                     std::size_t k) {
  IMARS_REQUIRE(items.cols() == query.size(), "topk_cosine: dim mismatch");
  std::vector<float> scores(items.rows());
  for (std::size_t r = 0; r < items.rows(); ++r)
    scores[r] = tensor::cosine(items.row(r), query);
  return topk_by_score(scores, k);
}

std::vector<std::size_t> topk_cosine(const nn::EmbeddingTable& items,
                                     std::span<const float> query,
                                     std::size_t k) {
  IMARS_REQUIRE(items.dim() == query.size(), "topk_cosine: dim mismatch");
  const std::size_t dim = items.dim();
  std::vector<float> scores(items.rows());
  items.for_each_page([&](std::size_t first, std::span<const float> values) {
    for (std::size_t i = 0; i * dim < values.size(); ++i)
      scores[first + i] = tensor::cosine(values.subspan(i * dim, dim), query);
  });
  return topk_by_score(scores, k);
}

std::vector<std::size_t> radius_hamming(
    std::span<const util::BitVec> signatures, const util::BitVec& query,
    std::size_t radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    if (signatures[i].hamming(query) <= radius) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> topk_hamming(std::span<const util::BitVec> signatures,
                                      const util::BitVec& query,
                                      std::size_t k) {
  std::vector<std::size_t> idx(signatures.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<std::size_t> dist(signatures.size());
  for (std::size_t i = 0; i < signatures.size(); ++i)
    dist[i] = signatures[i].hamming(query);
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      if (dist[a] != dist[b]) return dist[a] < dist[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace imars::baseline
