// Ablation X3: LSH signature length.
//
// Sec III-B fixes the signature length at 256 bits ("requires 2 CMAs to
// store a single entry"). This bench sweeps the length and reports the
// retrieval hit rate (size-matched top-10 by Hamming distance, against the
// fp32-cosine reference), the signature storage overhead, and the NNS
// energy (more signature CMAs must be searched).
#include <iostream>

#include "baseline/cpu_backend.hpp"
#include "baseline/exact_nns.hpp"
#include "core/perf_model.hpp"
#include "harness.hpp"
#include "lsh/lsh.hpp"
#include "recsys/metrics.hpp"
#include "util/table.hpp"

using namespace imars;

int main() {
  const double scale = 0.25;
  const std::size_t topn = 10;

  std::cout << "=== Ablation: LSH signature length (paper: 256 bits) ===\n"
            << "(synthetic MovieLens at scale " << scale << ")\n\n";

  auto setup = bench::make_movielens(scale, 6, 0);
  const auto& ds = *setup.ds;
  const auto& model = *setup.model;

  // fp32-cosine reference HR.
  baseline::CpuBackendConfig ccfg;
  ccfg.variant = baseline::FilterVariant::kFp32Cosine;
  ccfg.candidates = topn;
  baseline::CpuBackend fp32(model, ccfg);
  const double hr_ref = recsys::hit_rate(
      ds.num_users(),
      [&](std::size_t u) {
        return fp32.filter(model.make_context(ds, u), nullptr);
      },
      [&](std::size_t u) { return ds.user(u).heldout; });

  const auto items_q = model.item_table().quantized();
  const auto deq = items_q.dequantize();
  const core::PerfModel pm(core::ArchConfig{},
                           device::DeviceProfile::fefet45());

  util::Table t("Signature-length sweep (HR@10 vs cost)");
  t.header({"bits", "HR@10", "vs fp32-cosine", "CMAs per entry",
            "NNS energy (nJ, MovieLens ItET)"});
  t.row({"fp32 cosine (ref)", util::Table::num(100.0 * hr_ref, 1) + "%", "-",
         "1 (no sigs)", "-"});

  for (std::size_t bits : {32, 64, 128, 256, 512}) {
    const lsh::RandomHyperplaneLsh hasher(model.config().emb_dim, bits, 2022);
    std::vector<util::BitVec> sigs;
    sigs.reserve(deq.rows());
    for (std::size_t r = 0; r < deq.rows(); ++r)
      sigs.push_back(hasher.encode(deq.row(r)));

    const double hr = recsys::hit_rate(
        ds.num_users(),
        [&](std::size_t u) {
          const auto ctx = model.make_context(ds, u);
          const auto q = hasher.encode(model.user_embedding(ctx));
          return baseline::topk_hamming(sigs, q, topn);
        },
        [&](std::size_t u) { return ds.user(u).heldout; });

    // Storage: ceil(bits/256) signature CMAs per data CMA; NNS searches all
    // of them (16 data CMAs for the full-size ItET).
    const std::size_t sig_per_data = (bits + 255) / 256;
    const std::size_t sig_cmas = 16 * sig_per_data;
    t.row({std::to_string(bits), util::Table::num(100.0 * hr, 1) + "%",
           util::Table::num(100.0 * (hr - hr_ref), 1) + " p.p.",
           std::to_string(1 + sig_per_data),
           util::Table::num(pm.nns(sig_cmas).energy.nj(), 2)});
  }
  t.print(std::cout);

  std::cout
      << "\nReading: short signatures lose hit rate (high Hamming-estimate\n"
         "variance); beyond 256 bits the gains flatten while every entry\n"
         "needs another CMA and every search touches more arrays. 256 bits\n"
         "-- exactly one extra CMA per entry -- is the paper's sweet spot.\n";
  return 0;
}
