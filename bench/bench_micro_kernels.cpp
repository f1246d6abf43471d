// Hot-kernel microbenchmarks (google-benchmark): wall-clock throughput of
// the functional simulator's inner loops. These measure *simulator*
// performance (how fast the reproduction runs on the host), complementing
// the modeled hardware numbers in the other benches.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "cma/cma.hpp"
#include "data/criteo.hpp"
#include "data/zipf.hpp"
#include "lsh/lsh.hpp"
#include "nn/embedding.hpp"
#include "nn/layer.hpp"
#include "recsys/dlrm.hpp"
#include "serve/hot_cache.hpp"
#include "serve/observe.hpp"
#include "serve/session_table.hpp"
#include "synth_servable.hpp"
#include "tensor/qtensor.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

using namespace imars;

namespace {

void BM_BitVecHamming(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(1);
  util::BitVec a(bits), b(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    a.set(i, rng.bernoulli(0.5));
    b.set(i, rng.bernoulli(0.5));
  }
  for (auto _ : state) benchmark::DoNotOptimize(a.hamming(b));
}
BENCHMARK(BM_BitVecHamming)->Arg(256)->Arg(1024);

void BM_CmaSearch(benchmark::State& state) {
  const auto profile = device::DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  cma::Cma array(profile, &ledger);
  util::Xoshiro256 rng(2);
  for (std::size_t r = 0; r < 256; ++r) {
    util::BitVec row(256);
    for (std::size_t i = 0; i < 256; ++i) row.set(i, rng.bernoulli(0.5));
    array.write_row(r, row);
  }
  array.set_mode(cma::Mode::kTcam);
  util::BitVec q(256);
  for (auto _ : state) benchmark::DoNotOptimize(array.search(q, 96));
}
BENCHMARK(BM_CmaSearch);

void BM_CmaAccumulate(benchmark::State& state) {
  const auto profile = device::DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  cma::Cma array(profile, &ledger);
  for (std::size_t r = 0; r < 32; ++r)
    array.write_row_i8(r, std::vector<std::int8_t>(32, static_cast<std::int8_t>(r)));
  array.set_mode(cma::Mode::kGpcim);
  std::vector<std::int32_t> acc(32, 0);
  for (auto _ : state) {
    for (std::size_t r = 0; r < 32; ++r) array.accumulate(r, acc);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_CmaAccumulate);

// One tile gemv over an occupied rows x cols block: the full 256x128 tile,
// the ranking tower's 128 -> 1 layer, DLRM's bottom 13 -> 256 (two 13x128
// tiles) and its top 64 -> 1.
void BM_CrossbarGemv(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const auto profile = device::DeviceProfile::fefet45();
  device::EnergyLedger ledger;
  xbar::Crossbar xb(profile, &ledger);
  util::Xoshiro256 rng(3);
  xb.load_weights(tensor::QMatrix::quantize(
      tensor::Matrix::randn(rows, cols, 1.0f, rng)));
  std::vector<std::int8_t> in(rows);
  for (auto& v : in)
    v = static_cast<std::int8_t>(static_cast<int>(rng.below(200)) - 100);
  std::vector<std::int32_t> out(cols, 0);
  for (auto _ : state) {
    xb.gemv(in, out, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CrossbarGemv)
    ->Args({256, 128})
    ->Args({128, 1})
    ->Args({13, 128})
    ->Args({64, 1});

void BM_LshEncode(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  const lsh::RandomHyperplaneLsh hasher(32, bits, 4);
  util::Xoshiro256 rng(5);
  tensor::Vector v(32);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  for (auto _ : state) benchmark::DoNotOptimize(hasher.encode(v));
}
BENCHMARK(BM_LshEncode)->Arg(64)->Arg(256);

// Pooling over stored rows: every row is written first, as training
// writes the rows a trained model's lookups read.
void BM_EmbeddingPool(benchmark::State& state) {
  const auto lookups = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(6);
  nn::EmbeddingTable table(4096, 32, rng);
  tensor::Vector row(32);
  for (std::size_t r = 0; r < 4096; ++r) {
    table.copy_row(r, row);
    table.set_row(r, row);
  }
  std::vector<std::size_t> idx(lookups);
  for (auto& i : idx) i = rng.below(4096);
  for (auto _ : state)
    benchmark::DoNotOptimize(table.lookup_pooled(idx, nn::Pooling::kMean));
}
BENCHMARK(BM_EmbeddingPool)->Arg(1)->Arg(8)->Arg(64);

// The int8 snapshot an image build takes of a Criteo-shaped table: 30,000
// rows of 32 with 6.6% of them written (the share 4,000 training samples
// write in the Criteo tables), drawn like the generator's ids from
// Zipf(1.1). The unwritten rows are regenerated from their pages' init
// streams.
void BM_EmbeddingQuantize(benchmark::State& state) {
  constexpr std::size_t kRows = 30000, kWritten = 1980;
  util::Xoshiro256 rng(13);
  nn::EmbeddingTable table(kRows, 32, rng);
  const data::ZipfSampler zipf(kRows, 1.1);
  std::vector<bool> written(kRows, false);
  tensor::Vector row(32);
  for (std::size_t n = 0; n < kWritten;) {
    const std::size_t r = zipf.sample(rng);
    if (written[r]) continue;
    written[r] = true;
    ++n;
    table.copy_row(r, row);
    table.set_row(r, row);
  }
  for (auto _ : state) benchmark::DoNotOptimize(table.quantized());
}
BENCHMARK(BM_EmbeddingQuantize)->Unit(benchmark::kMillisecond);

// Criteo training's access to one table: per sample, copy_row of a
// Zipf(1.1) row of a 30,000 x 32 table, then a one-row sum-pooled sgd on
// it, over 4,000 samples. Each pass starts from a fresh table (built
// outside the timed region), so its first writes store rows as training's
// do; `per_step` is the host time of one copy_row plus sgd.
void BM_EmbeddingSgd(benchmark::State& state) {
  constexpr std::size_t kRows = 30000, kDim = 32, kSteps = 4000;
  util::Xoshiro256 rng(17);
  const data::ZipfSampler zipf(kRows, 1.1);
  std::vector<std::size_t> stream(kSteps);
  for (auto& r : stream) r = zipf.sample(rng);
  const tensor::Vector grad(kDim, 0.01f);
  tensor::Vector row(kDim);
  for (auto _ : state) {
    state.PauseTiming();
    util::Xoshiro256 init(13);
    auto table = std::make_unique<nn::EmbeddingTable>(kRows, kDim, init);
    state.ResumeTiming();
    for (const std::size_t& r : stream) {
      table->copy_row(r, row);
      table->sgd({&r, 1}, nn::Pooling::kSum, grad, 0.05f);
    }
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
    state.PauseTiming();
    table.reset();
    state.ResumeTiming();
  }
  state.counters["per_step"] = benchmark::Counter(
      static_cast<double>(kSteps),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_EmbeddingSgd)->Unit(benchmark::kMicrosecond);

// One synth_host_1m pass through the hot-row cache: 200k queries from
// Zipf(0.9) users over 10^6, each touching the 24 hashed candidate rows
// the synthetic servable derives from its user, into a fresh 16384-row
// cache — 4.8M accesses over one 10^6-row table. The stream is drawn
// once, outside the timed loop; `per_access` is the layer's host time per
// access.
void BM_HotCacheAccess(benchmark::State& state) {
  // The synthetic servable's item space is its user population.
  constexpr std::size_t kUsers = 1000000, kQueries = 200000;
  constexpr std::size_t kRowsPerQuery = 24;
  const data::ZipfSampler zipf(kUsers, 0.9);
  util::Xoshiro256 rng(11);
  std::vector<std::uint32_t> stream;
  stream.reserve(kQueries * kRowsPerQuery);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const std::uint64_t base = zipf.sample(rng) * 0x9e3779b97f4a7c15ULL;
    for (std::size_t j = 0; j < kRowsPerQuery; ++j)
      stream.push_back(
          static_cast<std::uint32_t>(bench::synth_mix(base + j) % kUsers));
  }
  for (auto _ : state) {
    serve::HotEmbeddingCache cache(serve::HotCacheConfig{16384});
    for (const std::uint32_t row : stream)
      benchmark::DoNotOptimize(cache.access(0, row));
  }
  state.counters["per_access"] = benchmark::Counter(
      static_cast<double>(stream.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_HotCacheAccess)->Unit(benchmark::kMillisecond);

// One user draw of the load generator at Zipf(0.9): over synth_host_1m's
// 10^6 users (a guide cell per 16 users) and over MovieLens-1M's 6,040 (a
// guide cell per user).
void BM_ZipfSample(benchmark::State& state) {
  const data::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 0.9);
  util::Xoshiro256 rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1000000)->Arg(6040);

// One streaming latency report at synth_host_1m's resolution: 1e5
// lognormal latencies around 10 us (sigma 0.3, spanning ~13,000 buckets)
// recorded at rel_err 1e-4 into a fresh histogram, then its p50 and p99.
// The samples are drawn once, outside the timed loop; `per_record` is the
// host time per sample.
void BM_StreamingHistogramRecord(benchmark::State& state) {
  constexpr std::size_t kSamples = 100000;
  util::Xoshiro256 rng(13);
  std::vector<double> latency_ns(kSamples);
  for (double& x : latency_ns) x = 1.0e4 * std::exp(0.3 * rng.normal());
  for (auto _ : state) {
    serve::StreamingHistogram h(1e-4);
    for (const double x : latency_ns) h.record(x);
    benchmark::DoNotOptimize(h.percentile(50.0));
    benchmark::DoNotOptimize(h.percentile(99.0));
  }
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(kSamples),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_StreamingHistogramRecord)->Unit(benchmark::kMillisecond);

// The load generator's session lookup: 2e5 Zipf(0.9) draws over
// synth_host_1m's 10^6 users touch a 2^17-slot session table, which one
// untimed pass of the same draws fills first, so misses walk kick chains
// and force evictions as in the workload's steady state. `per_touch` is
// the host time per touch.
void BM_SessionTouch(benchmark::State& state) {
  constexpr std::size_t kUsers = 1000000, kTouches = 200000;
  const data::ZipfSampler zipf(kUsers, 0.9);
  util::Xoshiro256 rng(17);
  std::vector<std::uint64_t> users(kTouches);
  for (std::uint64_t& u : users) u = zipf.sample(rng);
  serve::SessionTableConfig cfg;
  cfg.capacity = std::size_t{1} << 17;
  serve::SessionTable table(cfg);
  for (const std::uint64_t u : users) table.touch(u);
  for (auto _ : state)
    for (const std::uint64_t u : users)
      benchmark::DoNotOptimize(table.touch(u));
  state.counters["per_touch"] = benchmark::Counter(
      static_cast<double>(kTouches),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SessionTouch)->Unit(benchmark::kMillisecond);

void BM_GemvI8(benchmark::State& state) {
  util::Xoshiro256 rng(8);
  const auto w = tensor::QMatrix::quantize(
      tensor::Matrix::randn(128, 256, 1.0f, rng));
  std::vector<std::int8_t> in(256, 3);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::gemv_i8(w, in));
}
BENCHMARK(BM_GemvI8);

// f32 training kernels at the paper's widest dense layers: the DLRM top
// MLP's first layer (383 -> 256) and the YouTubeDNN filter tower's
// (196 -> 128). Inputs are drawn at run time from a seeded RNG.
tensor::Vector random_vector(std::size_t n, util::Xoshiro256& rng) {
  tensor::Vector v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void BM_GemvF32(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  util::Xoshiro256 rng(9);
  const auto w = tensor::Matrix::randn(out, in, 1.0f, rng);
  const tensor::Vector x = random_vector(in, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::gemv(w, x));
}
BENCHMARK(BM_GemvF32)->Args({383, 256})->Args({196, 128});

// DLRM's feature interaction at paper width: the 351 pairwise dots of 26
// embeddings and the bottom output (27 x 32), plus the concat.
void BM_DlrmInteract(benchmark::State& state) {
  data::CriteoConfig dcfg;
  dcfg.num_samples = 16;
  const data::CriteoSynth ds(dcfg);
  const recsys::Dlrm model(ds.schema(), recsys::DlrmConfig{});
  util::Xoshiro256 rng(12);
  std::vector<tensor::Vector> embs;
  for (std::size_t f = 0; f < model.table_count(); ++f)
    embs.push_back(random_vector(model.config().emb_dim, rng));
  const tensor::Vector bottom = random_vector(model.config().emb_dim, rng);
  for (auto _ : state) benchmark::DoNotOptimize(model.interact(embs, bottom));
}
BENCHMARK(BM_DlrmInteract);

// One per-sample SGD step of a ReLU layer: forward, then backward, which
// returns dLoss/dInput and updates the weights in the same pass. Cycles
// through 64 samples with random-sign upstream gradients and a small
// learning rate, so the weights (and the ReLU mask) barely drift.
void BM_DenseTrainStep(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  util::Xoshiro256 rng(10);
  nn::Dense layer(in, out, nn::Activation::kRelu, rng);
  std::vector<tensor::Vector> xs, gs;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(random_vector(in, rng));
    gs.push_back(random_vector(out, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(xs[i]));
    benchmark::DoNotOptimize(layer.backward(gs[i], 1e-5f));
    i = (i + 1) % xs.size();
  }
  benchmark::DoNotOptimize(layer.weight().data().data());
}
BENCHMARK(BM_DenseTrainStep)->Args({383, 256})->Args({196, 128});

}  // namespace
