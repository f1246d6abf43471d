// Reproduces Sec IV-B: algorithm-level accuracy (hit rate) of the filtering
// stage under the three data-representation / distance configurations:
//   (1) FP32 + cosine            -> paper HR 26.8%
//   (2) int8 + cosine            -> paper HR 26.2%
//   (3) int8 + LSH-256 Hamming   -> paper HR 20.8%  (~5.4 p.p. degradation)
//
// A YouTubeDNN filtering model is trained on the synthetic MovieLens-1M
// dataset (leave-one-out protocol, HR = hits / test users, as in the
// paper); each configuration retrieves a size-matched candidate set.
#include <iostream>

#include "baseline/cpu_backend.hpp"
#include "baseline/exact_nns.hpp"
#include "harness.hpp"
#include "recsys/metrics.hpp"
#include "util/table.hpp"

using namespace imars;
using baseline::CpuBackend;
using baseline::CpuBackendConfig;
using baseline::FilterVariant;

int main() {
  const double scale = 0.5;
  const std::size_t epochs = 8;
  const std::size_t topn = 10;  // HR@10, the usual MovieLens protocol

  std::cout << "=== Sec IV-B: filtering-stage accuracy (HR@" << topn
            << ", leave-one-out) ===\n"
            << "(synthetic MovieLens at scale " << scale << ", " << epochs
            << " training epochs)\n\n";

  auto setup = bench::make_movielens(scale, epochs, 0);
  const auto& ds = *setup.ds;
  const auto& model = *setup.model;

  CpuBackendConfig base;
  base.candidates = topn;

  // (1) FP32 + cosine.
  CpuBackendConfig c1 = base;
  c1.variant = FilterVariant::kFp32Cosine;
  CpuBackend fp32(model, c1);

  // (2) int8 + cosine.
  CpuBackendConfig c2 = base;
  c2.variant = FilterVariant::kInt8Cosine;
  CpuBackend int8(model, c2);

  // (3) int8 + LSH Hamming, size-matched (top-n by signature distance).
  CpuBackendConfig c3 = base;
  c3.variant = FilterVariant::kInt8LshHamming;
  CpuBackend lshv(model, c3);

  const auto hr_backend = [&](CpuBackend& be) {
    return recsys::hit_rate(
        ds.num_users(),
        [&](std::size_t u) {
          return be.filter(model.make_context(ds, u), nullptr);
        },
        [&](std::size_t u) { return ds.user(u).heldout; });
  };
  const double hr1 = hr_backend(fp32);
  const double hr2 = hr_backend(int8);
  const double hr3 = recsys::hit_rate(
      ds.num_users(),
      [&](std::size_t u) {
        const auto ctx = model.make_context(ds, u);
        const auto q = lshv.signature_of(model.user_embedding(ctx));
        return baseline::topk_hamming(lshv.item_signatures(), q, topn);
      },
      [&](std::size_t u) { return ds.user(u).heldout; });

  util::Table t("Hit rate by configuration");
  t.header({"Configuration", "HR (measured)", "HR (paper)"});
  t.row({"(1) FP32 + cosine", util::Table::num(100.0 * hr1, 1) + "%", "26.8%"});
  t.row({"(2) int8 + cosine", util::Table::num(100.0 * hr2, 1) + "%", "26.2%"});
  t.row({"(3) int8 + LSH-256 Hamming", util::Table::num(100.0 * hr3, 1) + "%",
         "20.8%"});
  t.print(std::cout);

  std::cout << "\nDegradation (1)->(2): "
            << util::Table::num(100.0 * (hr1 - hr2), 1)
            << " p.p. [paper 0.6]\nDegradation (1)->(3): "
            << util::Table::num(100.0 * (hr1 - hr3), 1)
            << " p.p. [paper 5.4... paper reports ~5-6 p.p.]\n\n"
            << "Shape check: int8 quantization is nearly free; replacing\n"
            << "cosine with the TCAM-friendly Hamming distance costs a few\n"
            << "points of hit rate -- tolerable because the ranking stage\n"
            << "re-scores every candidate (Sec IV-B). Absolute HR depends\n"
            << "on the synthetic ground truth, so compare the deltas, not\n"
            << "the absolute percentages.\n";
  return 0;
}
