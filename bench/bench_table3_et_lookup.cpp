// Reproduces Table III: ET lookup operation comparison between the GPU and
// iMARS (latency, energy, speedup, reduction) for one input on
//   * MovieLens filtering  (6 tables: 5 UIETs + ItET),
//   * MovieLens ranking    (7 tables: 6 UIETs + ItET),
//   * Criteo Kaggle ranking (26 tables).
//
// GPU numbers come from the calibrated GpuModel; iMARS numbers from the
// analytical PerfModel under the paper's worst-case assumption (all of a
// table's lookups collide in one array; L = kWorstCaseLookupsPerTable).
#include <iostream>

#include "baseline/gpu_model.hpp"
#include "core/calibration.hpp"
#include "core/perf_model.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace imars;
using bench::PaperWorkloads;

namespace {

struct Row {
  const char* name = "";
  std::size_t tables = 0;
  std::size_t mats = 1;
  std::size_t active_cmas = 0;
  double paper_gpu_lat_us, paper_imars_lat_us, paper_speedup;
  double paper_gpu_e_uj, paper_imars_e_uj, paper_reduction;
};

}  // namespace

int main() {
  std::cout << "=== Table III: ET operation comparison between the GPU and "
               "iMARS ===\n(one input; worst-case L="
            << core::kWorstCaseLookupsPerTable
            << " lookups per table, per core/calibration.hpp)\n\n";

  const baseline::GpuModel gpu;
  const core::PerfModel imars(core::ArchConfig{},
                              device::DeviceProfile::fefet45());

  const Row rows[] = {
      {"MovieLens Filtering", PaperWorkloads::kMlFilterTables, 1,
       PaperWorkloads::kMlFilterActiveCmas, 9.27, 0.21, 43.61, 203.97, 0.40,
       516.05},
      {"MovieLens Ranking", PaperWorkloads::kMlRankTables, 1,
       PaperWorkloads::kMlRankActiveCmas, 9.60, 0.21, 45.17, 211.26, 0.46,
       458.12},
      {"Criteo Kaggle Ranking", PaperWorkloads::kCriteoTables,
       PaperWorkloads::kCriteoMatsPerTable, PaperWorkloads::kCriteoActiveCmas,
       14.97, 0.24, 61.83, 329.34, 6.88, 47.90},
  };

  util::Table t("ET lookup: latency (us) and energy (uJ)");
  t.header({"Workload", "GPU lat", "iMARS lat", "Speedup", "GPU E", "iMARS E",
            "Reduction"});

  for (const auto& r : rows) {
    const auto g = gpu.et_lookup(r.tables);
    core::EtLookupParams p;
    p.tables = r.tables;
    p.lookups_per_table = core::kWorstCaseLookupsPerTable;
    p.mats_per_table = r.mats;
    p.active_cmas = r.active_cmas;
    const auto m = imars.et_lookup(p);

    const double speedup = g.latency / m.latency;
    const double reduction = g.energy / m.energy;
    t.row({r.name,
           util::Table::num(g.latency.us(), 2) + " [" +
               util::Table::num(r.paper_gpu_lat_us, 2) + "]",
           util::Table::num(m.latency.us(), 2) + " [" +
               util::Table::num(r.paper_imars_lat_us, 2) + "]",
           util::Table::factor(speedup) + " [" +
               util::Table::factor(r.paper_speedup) + "]",
           util::Table::num(g.energy.uj(), 2) + " [" +
               util::Table::num(r.paper_gpu_e_uj, 2) + "]",
           util::Table::num(m.energy.uj(), 2) + " [" +
               util::Table::num(r.paper_imars_e_uj, 2) + "]",
           util::Table::factor(reduction) + " [" +
               util::Table::factor(r.paper_reduction) + "]"});
  }
  t.print(std::cout);

  std::cout
      << "\n[paper values in brackets]\n"
      << "Latency agreement is within ~5% on MovieLens and ~20% on Criteo\n"
      << "(the RSC serialization across 26 banks is modelled explicitly).\n"
      << "Energy: the Criteo point anchors the per-array peripheral\n"
      << "calibration; MovieLens energy composes ~2x below the paper's\n"
      << "value (kPeripheralPjPerActiveCmaPerOp in core/calibration.hpp\n"
      << "carries the derivation). The orderings the paper reports --\n"
      << "iMARS wins latency by 40-60x, energy by 1.5-2.5 orders,\n"
      << "Criteo > MovieLens latency, MovieLens energy reduction >>\n"
      << "Criteo's -- all reproduce.\n";
  return 0;
}
