// Binary (de)serialization of trained model state.
//
// Format: little-endian, versioned, with a per-object magic tag so that a
// stream of heterogeneous objects fails loudly on any mismatch. Intended
// for checkpointing the (slow-to-train) RecSys models between the bench
// runs and for shipping pre-trained weights with applications.
#pragma once

#include <iosfwd>

#include "nn/embedding.hpp"
#include "nn/mlp.hpp"
#include "tensor/tensor.hpp"

namespace imars::nn {

/// Serialization format version (bumped on layout changes).
inline constexpr std::uint32_t kSerializeVersion = 1;

// Matrices ------------------------------------------------------------------

void save(std::ostream& os, const tensor::Matrix& m);
tensor::Matrix load_matrix(std::istream& is);

// Model components -----------------------------------------------------------

/// Saves weights, biases and activation kinds (not gradients).
void save(std::ostream& os, const Mlp& mlp);

/// Loads an MLP saved by save(). The architecture (dims, activations) is
/// restored from the stream.
Mlp load_mlp(std::istream& is);

void save(std::ostream& os, const EmbeddingTable& table);
EmbeddingTable load_embedding_table(std::istream& is);

}  // namespace imars::nn
