// Exact (brute-force) nearest-neighbour search references.
//
// Functional stand-in for the FAISS searches the paper uses on GPU; also the
// oracle against which the TCAM threshold search is verified.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/embedding.hpp"
#include "tensor/tensor.hpp"
#include "util/bitvec.hpp"

namespace imars::baseline {

/// Top-k rows of `items` by descending cosine similarity to `query`.
/// Deterministic tie-break: lower index wins.
std::vector<std::size_t> topk_cosine(const tensor::Matrix& items,
                                     std::span<const float> query,
                                     std::size_t k);

/// The same over an embedding table's rows, read a page at a time (no
/// dense copy of the table).
std::vector<std::size_t> topk_cosine(const nn::EmbeddingTable& items,
                                     std::span<const float> query,
                                     std::size_t k);

/// All signature indices with Hamming distance <= radius (ascending index) —
/// the fixed-radius near-neighbour semantics of the TCAM threshold match.
std::vector<std::size_t> radius_hamming(
    std::span<const util::BitVec> signatures, const util::BitVec& query,
    std::size_t radius);

/// Top-k signature indices by ascending Hamming distance (ties: lower index).
std::vector<std::size_t> topk_hamming(std::span<const util::BitVec> signatures,
                                      const util::BitVec& query,
                                      std::size_t k);

}  // namespace imars::baseline
