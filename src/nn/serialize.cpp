#include "nn/serialize.hpp"

#include <cstring>
#include <istream>
#include <ostream>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace imars::nn {

namespace {

// Primitive little-endian writers/readers. The simulator only targets
// little-endian hosts (checked at startup of load paths).
void check_endianness() {
  const std::uint32_t probe = 0x01020304u;
  std::uint8_t bytes[4];
  std::memcpy(bytes, &probe, 4);
  IMARS_REQUIRE(bytes[0] == 0x04, "serialize: big-endian hosts unsupported");
}

template <class T>
void write_pod(std::ostream& os, T value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  IMARS_REQUIRE(is.good(), "serialize: unexpected end of stream");
  return value;
}

void write_header(std::ostream& os, std::uint32_t magic) {
  write_pod(os, magic);
  write_pod(os, kSerializeVersion);
}

void read_header(std::istream& is, std::uint32_t magic, const char* what) {
  check_endianness();
  const auto got_magic = read_pod<std::uint32_t>(is);
  IMARS_REQUIRE(got_magic == magic,
                std::string("serialize: bad magic while loading ") + what);
  const auto version = read_pod<std::uint32_t>(is);
  IMARS_REQUIRE(version == kSerializeVersion,
                std::string("serialize: unsupported version for ") + what);
}

constexpr std::uint32_t kMagicMatrix = 0x584d5449u;  // "ITMX"
constexpr std::uint32_t kMagicMlp = 0x504c4d49u;     // "IMLP"
constexpr std::uint32_t kMagicEmb = 0x424d4549u;     // "IEMB"

}  // namespace

void save(std::ostream& os, const tensor::Matrix& m) {
  write_header(os, kMagicMatrix);
  write_pod<std::uint64_t>(os, m.rows());
  write_pod<std::uint64_t>(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data().data()),
           static_cast<std::streamsize>(m.data().size() * sizeof(float)));
}

tensor::Matrix load_matrix(std::istream& is) {
  read_header(is, kMagicMatrix, "Matrix");
  const auto rows = read_pod<std::uint64_t>(is);
  const auto cols = read_pod<std::uint64_t>(is);
  tensor::Matrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data().data()),
          static_cast<std::streamsize>(m.data().size() * sizeof(float)));
  IMARS_REQUIRE(is.good(), "serialize: truncated Matrix payload");
  return m;
}

void save(std::ostream& os, const Mlp& mlp) {
  write_header(os, kMagicMlp);
  write_pod<std::uint64_t>(os, mlp.dims().size());
  for (auto d : mlp.dims()) write_pod<std::uint64_t>(os, d);
  write_pod<std::uint8_t>(
      os, static_cast<std::uint8_t>(
              mlp.layer(mlp.layer_count() - 1).activation()));
  for (std::size_t li = 0; li < mlp.layer_count(); ++li) {
    const Dense& l = mlp.layer(li);
    save(os, l.weight());
    write_pod<std::uint64_t>(os, l.bias().size());
    os.write(reinterpret_cast<const char*>(l.bias().data()),
             static_cast<std::streamsize>(l.bias().size() * sizeof(float)));
  }
}

Mlp load_mlp(std::istream& is) {
  read_header(is, kMagicMlp, "Mlp");
  const auto ndims = read_pod<std::uint64_t>(is);
  IMARS_REQUIRE(ndims >= 2 && ndims < 64, "serialize: implausible Mlp dims");
  std::vector<std::size_t> dims(ndims);
  for (auto& d : dims) d = read_pod<std::uint64_t>(is);
  const auto out_act = static_cast<Activation>(read_pod<std::uint8_t>(is));

  // Construct with throwaway init, then overwrite parameters.
  util::Xoshiro256 rng(0);
  Mlp mlp(dims, out_act, rng);
  for (std::size_t li = 0; li < mlp.layer_count(); ++li) {
    Dense& l = mlp.mutable_layer(li);
    tensor::Matrix w = load_matrix(is);
    IMARS_REQUIRE(w.rows() == l.out_dim() && w.cols() == l.in_dim(),
                  "serialize: Mlp layer shape mismatch");
    l.mutable_weight() = std::move(w);
    const auto bias_len = read_pod<std::uint64_t>(is);
    IMARS_REQUIRE(bias_len == l.out_dim(), "serialize: Mlp bias mismatch");
    is.read(reinterpret_cast<char*>(l.mutable_bias().data()),
            static_cast<std::streamsize>(bias_len * sizeof(float)));
  }
  IMARS_REQUIRE(is.good(), "serialize: truncated Mlp payload");
  return mlp;
}

void save(std::ostream& os, const EmbeddingTable& table) {
  write_header(os, kMagicEmb);
  save(os, table.dense());
}

EmbeddingTable load_embedding_table(std::istream& is) {
  read_header(is, kMagicEmb, "EmbeddingTable");
  tensor::Matrix m = load_matrix(is);
  util::Xoshiro256 rng(0);
  EmbeddingTable table(m.rows(), m.cols(), rng);
  for (std::size_t r = 0; r < m.rows(); ++r) table.set_row(r, m.row(r));
  return table;
}

}  // namespace imars::nn
