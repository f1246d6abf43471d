// Checkpointing walk-through: train a model for a fixed number of epochs,
// report its hit rate, save it, reload it, verify bit-identical
// predictions, and deploy the restored model to the iMARS fabric.
//
//   $ ./checkpoint_models [checkpoint.bin]
#include <fstream>
#include <iostream>
#include <sstream>

#include "baseline/exact_nns.hpp"
#include "core/backend.hpp"
#include "data/movielens.hpp"
#include "nn/serialize.hpp"
#include "recsys/metrics.hpp"
#include "util/table.hpp"

using namespace imars;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/imars_checkpoint.bin";

  data::MovieLensConfig dcfg;
  dcfg.num_users = 300;
  dcfg.num_items = 250;
  dcfg.seed = 61;
  const data::MovieLensSynth ds(dcfg);

  recsys::YoutubeDnnConfig mcfg;
  mcfg.seed = 62;
  recsys::YoutubeDnn model(ds.schema(), mcfg);

  std::cout << "training filtering model...\n";
  util::Xoshiro256 rng(63);
  for (int e = 0; e < 6; ++e)
    std::cout << "  epoch " << e + 1
              << ": loss = " << model.train_filter_epoch(ds, rng) << "\n";
  const double hr = recsys::hit_rate(
      ds.num_users(),
      [&](std::size_t u) {
        return baseline::topk_cosine(
            model.item_table(),
            model.user_embedding(model.make_context(ds, u)), 10);
      },
      [&](std::size_t u) { return ds.user(u).heldout; });
  std::cout << "HR@10 " << hr << "\n\n";

  // Save the filtering tower and the two largest tables.
  {
    std::ofstream os(path, std::ios::binary);
    nn::save(os, model.filter_mlp());
    nn::save(os, model.item_table());
    nn::save(os, model.uiet(4));  // user_id UIET
    std::cout << "saved checkpoint to " << path << "\n";
  }

  // Reload and verify bit-identical behaviour.
  std::ifstream is(path, std::ios::binary);
  nn::Mlp tower = nn::load_mlp(is);
  nn::EmbeddingTable items = nn::load_embedding_table(is);
  nn::EmbeddingTable user_ids = nn::load_embedding_table(is);

  bool identical = true;
  for (std::size_t u = 0; u < 20; ++u) {
    const auto ctx = model.make_context(ds, u);
    const auto a = model.user_embedding(ctx);
    const auto b = tower.infer(model.filter_input(ctx));
    for (std::size_t c = 0; c < a.size(); ++c)
      identical &= (a[c] == b[c]);
  }
  std::cout << "restored tower predictions identical: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "restored item table: " << items.rows() << "x" << items.dim()
            << ", user_id table: " << user_ids.rows() << "x" << user_ids.dim()
            << "\n\n";

  // Deploy the (restored) model to the fabric and run one query.
  std::vector<recsys::UserContext> calib;
  for (std::size_t u = 0; u < 8; ++u) calib.push_back(model.make_context(ds, u));
  core::ImarsBackendConfig icfg;
  icfg.nns_radius = 100;
  core::ImarsBackend be(model, core::ArchConfig{},
                        device::DeviceProfile::fefet45(), icfg, calib);
  recsys::StageStats fs, rs;
  const auto recs =
      recsys::recommend(be, model.make_context(ds, 42), 5, &fs, &rs);
  std::cout << "deployed to iMARS; top-" << recs.size()
            << " for user 42:";
  for (const auto& r : recs) std::cout << " " << r.item;
  std::cout << "\n(query cost: "
            << util::Table::num(
                   (fs.total().latency + rs.total().latency).us(), 2)
            << " us, "
            << util::Table::num((fs.total().energy + rs.total().energy).uj(), 3)
            << " uJ)\n";
  return 0;
}
