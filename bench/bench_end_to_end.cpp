// Reproduces Sec IV-C3: end-to-end comparison.
//
//   * MovieLens (filtering + ranking): paper reports 16.8x latency and
//     713x energy improvement; 22025 queries/s on iMARS vs 1311 on the GPU.
//   * Criteo Kaggle (ranking only): paper reports 13.2x latency and 57.8x
//     energy improvement.
//   * DNN stack alone: ~2.69x latency improvement (crossbars vs GPU).
//
// iMARS numbers are measured on the functional machine (real CMA banks,
// crossbar MLPs, TCAM NNS, CTR-buffer top-k); GPU numbers come from the
// calibrated cost model executing the identical trained model.
#include <iostream>

#include "baseline/cpu_backend.hpp"
#include "baseline/gpu_model.hpp"
#include "core/backend.hpp"
#include "core/calibration.hpp"
#include "core/perf_model.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace imars;
using bench::PaperWorkloads;
using recsys::OpKind;
using recsys::StageStats;

namespace {

std::size_t mlp_macs(std::span<const std::size_t> dims) {
  std::size_t macs = 0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) macs += dims[i] * dims[i + 1];
  return macs;
}

}  // namespace

int main() {
  const double scale = 1.0;  // full MovieLens-1M shape
  const std::size_t users_to_run = 100;
  const std::size_t k = 10;

  std::cout << "=== Sec IV-C3: end-to-end comparison ===\n"
            << "(functional iMARS vs calibrated GPU model; synthetic "
               "MovieLens at scale "
            << scale << ", " << users_to_run << " measured queries)\n\n";

  // ------------------ MovieLens: filtering + ranking ----------------------
  auto ml = bench::make_movielens(scale, 4, 2);

  std::vector<recsys::UserContext> calib;
  for (std::size_t u = 0; u < 8; ++u)
    calib.push_back(ml.model->make_context(*ml.ds, u));

  // Calibrate the fixed radius (the TCAM's adjustable dummy-cell reference,
  // Sec III-A1) so the candidate set averages ~kEndToEndCandidates items,
  // matching the GPU baseline's top-20 budget.
  core::ImarsBackendConfig icfg;
  icfg.timing = core::TimingMode::kWorstCaseSameArray;  // paper composition
  // Item buffer sized to the ranking budget: the priority encoder drains at
  // most kEndToEndCandidates matches per query (matching the GPU top-20).
  icfg.max_candidates = core::kEndToEndCandidates;
  {
    // One probe backend supplies the hardware user embeddings; candidate
    // counts per radius are evaluated with the software Hamming oracle
    // (bit-identical to the TCAM search, see test_accelerator).
    core::ImarsBackend probe(*ml.model, core::ArchConfig{},
                             device::DeviceProfile::fefet45(), icfg, calib);
    const auto items_q = ml.model->item_table().quantized();
    const auto deq = items_q.dequantize();
    std::vector<util::BitVec> sigs;
    sigs.reserve(deq.rows());
    for (std::size_t r = 0; r < deq.rows(); ++r)
      sigs.push_back(probe.signature_of(deq.row(r)));

    const std::size_t probe_users = std::min<std::size_t>(60, users_to_run);
    std::vector<util::BitVec> queries;
    for (std::size_t u = 0; u < probe_users; ++u) {
      const auto ctx = ml.model->make_context(*ml.ds, u);
      queries.push_back(
          probe.signature_of(probe.user_embedding_hw(ctx, nullptr)));
    }

    std::size_t best_radius = 96;
    double best_err = 1e18;
    for (std::size_t radius = 24; radius <= 120; radius += 4) {
      double total = 0.0;
      for (const auto& q : queries) {
        std::size_t count = 0;
        for (const auto& s : sigs)
          if (s.hamming(q) <= radius) ++count;
        total += static_cast<double>(
            std::min(count, icfg.max_candidates));
      }
      const double err = std::abs(total / static_cast<double>(probe_users) -
                                  static_cast<double>(core::kEndToEndCandidates));
      if (err < best_err) {
        best_err = err;
        best_radius = radius;
      }
    }
    icfg.nns_radius = best_radius;
    std::cerr << "  [calib] fixed radius " << best_radius << " -> ~"
              << core::kEndToEndCandidates << " candidates/query\n";
  }
  core::ImarsBackend imars_be(*ml.model, core::ArchConfig{},
                              device::DeviceProfile::fefet45(), icfg, calib);

  const baseline::GpuModel gpu;
  baseline::GpuBackendConfig gcfg;
  gcfg.candidates = core::kEndToEndCandidates;
  baseline::GpuModelBackend gpu_be(*ml.model, gpu, gcfg);

  StageStats gpu_f, gpu_r, hw_f, hw_r;
  std::size_t hw_candidates = 0;
  for (std::size_t u = 0; u < users_to_run; ++u) {
    const auto ctx = ml.model->make_context(*ml.ds, u);
    (void)recsys::recommend(gpu_be, ctx, k, &gpu_f, &gpu_r);
    StageStats hf, hr;
    const auto cands = imars_be.filter(ctx, &hf);
    hw_candidates += cands.size();
    (void)imars_be.rank(ctx, cands, k, &hr);
    hw_f.merge(hf);
    hw_r.merge(hr);
  }
  const double n = static_cast<double>(users_to_run);

  const double gpu_lat_us =
      (gpu_f.total().latency.us() + gpu_r.total().latency.us()) / n;
  const double hw_lat_us =
      (hw_f.total().latency.us() + hw_r.total().latency.us()) / n;
  const double gpu_e_uj =
      (gpu_f.total().energy.uj() + gpu_r.total().energy.uj()) / n;
  const double hw_e_uj =
      (hw_f.total().energy.uj() + hw_r.total().energy.uj()) / n;

  util::Table t("MovieLens end-to-end (per query averages)");
  t.header({"", "GPU (model)", "iMARS (measured)", "improvement", "paper"});
  t.row({"latency (us)", util::Table::num(gpu_lat_us, 1),
         util::Table::num(hw_lat_us, 2),
         util::Table::factor(gpu_lat_us / hw_lat_us), "16.8x"});
  t.row({"energy (uJ)", util::Table::num(gpu_e_uj, 0),
         util::Table::num(hw_e_uj, 2),
         util::Table::factor(gpu_e_uj / hw_e_uj), "713x"});
  t.row({"queries/s", util::Table::num(1e6 / gpu_lat_us, 0) + " [paper 1311]",
         util::Table::num(1e6 / hw_lat_us, 0) + " [paper 22025]", "", ""});
  t.row({"avg candidates/query",
         std::to_string(core::kEndToEndCandidates),
         util::Table::num(static_cast<double>(hw_candidates) / n, 1), "", ""});
  t.print(std::cout);

  // Per-op breakdown of the iMARS query.
  std::cout << "\n";
  util::Table b("iMARS per-query breakdown (us)");
  b.header({"stage", "ET Lookup", "DNN Stack", "NNS", "TopK", "Comm"});
  const auto row_of = [&](const char* name, const StageStats& s) {
    b.row({name, util::Table::num(s.at(OpKind::kEtLookup).latency.us() / n, 3),
           util::Table::num(s.at(OpKind::kDnn).latency.us() / n, 3),
           util::Table::num(s.at(OpKind::kNns).latency.us() / n, 5),
           util::Table::num(s.at(OpKind::kTopK).latency.us() / n, 3),
           util::Table::num(s.at(OpKind::kComm).latency.us() / n, 3)});
  };
  row_of("filtering", hw_f);
  row_of("ranking", hw_r);
  b.print(std::cout);

  // ------------------ DNN stack alone -------------------------------------
  const core::PerfModel pm(core::ArchConfig{},
                           device::DeviceProfile::fefet45());
  const double imars_dnn_us =
      pm.dnn(PaperWorkloads::kFilterDnnDims).latency.us();
  const double gpu_dnn_us =
      gpu.dnn(3, mlp_macs(PaperWorkloads::kFilterDnnDims)).latency.us();
  std::cout << "\nDNN stack (filtering tower): GPU "
            << util::Table::num(gpu_dnn_us, 2) << " us vs iMARS crossbars "
            << util::Table::num(imars_dnn_us, 2) << " us -> "
            << util::Table::factor(gpu_dnn_us / imars_dnn_us)
            << " [paper ~2.69x]\n\n";

  // ------------------ Criteo: ranking only --------------------------------
  auto cr = bench::make_criteo(6000, 2);
  std::vector<data::CriteoSample> ccalib;
  for (std::size_t i = 0; i < 8; ++i) ccalib.push_back(cr.ds->sample(i));
  core::ImarsCtrBackend imars_ctr(*cr.model, core::ArchConfig{},
                                  device::DeviceProfile::fefet45(),
                                  core::TimingMode::kWorstCaseSameArray,
                                  ccalib);
  baseline::GpuCtrBackend gpu_ctr(*cr.model, gpu);

  StageStats cg, ch;
  const std::size_t impressions = 100;
  for (std::size_t i = 0; i < impressions; ++i) {
    const auto& s = cr.ds->sample(i);
    (void)gpu_ctr.score(s.dense, s.sparse, &cg);
    (void)imars_ctr.score(s.dense, s.sparse, &ch);
  }
  const double ni = static_cast<double>(impressions);
  const double cg_lat = cg.total().latency.us() / ni;
  const double ch_lat = ch.total().latency.us() / ni;
  const double cg_e = cg.total().energy.uj() / ni;
  const double ch_e = ch.total().energy.uj() / ni;

  util::Table c("Criteo Kaggle ranking (per impression averages)");
  c.header({"", "GPU (model)", "iMARS (measured)", "improvement", "paper"});
  c.row({"latency (us)", util::Table::num(cg_lat, 2),
         util::Table::num(ch_lat, 2), util::Table::factor(cg_lat / ch_lat),
         "13.2x"});
  c.row({"energy (uJ)", util::Table::num(cg_e, 1), util::Table::num(ch_e, 2),
         util::Table::factor(cg_e / ch_e), "57.8x"});
  c.print(std::cout);

  bench::JsonReport json("e2e");
  json.record("movielens")
      .set("scale", scale)
      .set("users", users_to_run)
      .set("k", k)
      .set("gpu_latency_us", gpu_lat_us)
      .set("imars_latency_us", hw_lat_us)
      .set("latency_improvement", gpu_lat_us / hw_lat_us)
      .set("paper_latency_improvement", 16.8)
      .set("gpu_energy_uj", gpu_e_uj)
      .set("imars_energy_uj", hw_e_uj)
      .set("energy_improvement", gpu_e_uj / hw_e_uj)
      .set("paper_energy_improvement", 713.0)
      .set("imars_qps", 1e6 / hw_lat_us)
      .set("avg_candidates", static_cast<double>(hw_candidates) / n);
  json.record("dnn_stack")
      .set("gpu_latency_us", gpu_dnn_us)
      .set("imars_latency_us", imars_dnn_us)
      .set("latency_improvement", gpu_dnn_us / imars_dnn_us)
      .set("paper_latency_improvement", 2.69);
  json.record("criteo")
      .set("impressions", impressions)
      .set("gpu_latency_us", cg_lat)
      .set("imars_latency_us", ch_lat)
      .set("latency_improvement", cg_lat / ch_lat)
      .set("paper_latency_improvement", 13.2)
      .set("gpu_energy_uj", cg_e)
      .set("imars_energy_uj", ch_e)
      .set("energy_improvement", cg_e / ch_e)
      .set("paper_energy_improvement", 57.8);
  json.write();

  std::cout << "\nShape check: iMARS wins end-to-end on both workloads and\n"
               "both axes; the end-to-end improvement is dominated by the\n"
               "ranking stage (the filtering stage runs once per user while\n"
               "each candidate is scored in the ranking stage), exactly as\n"
               "the paper observes.\n";
  const bool wins = gpu_lat_us > hw_lat_us && gpu_e_uj > hw_e_uj &&
                    cg_lat > ch_lat && cg_e > ch_e;
  if (!wins)
    std::cout << "\nFAIL: iMARS does not win on both latency and energy "
                 "for both MovieLens and Criteo\n";
  const bool ranking_dominates = hw_r.total().latency > hw_f.total().latency;
  if (!ranking_dominates)
    std::cout << "\nFAIL: the ranking stage does not dominate iMARS's "
                 "MovieLens latency\n";
  return wins && ranking_dominates ? 0 : 1;
}
