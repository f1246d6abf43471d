// Shared setup helpers for the bench binaries: trained models at paper scale
// (or a reduced scale for the slower algorithmic experiments), plus the
// Table I workload parameters used by the analytical models.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "data/criteo.hpp"
#include "data/movielens.hpp"
#include "recsys/dlrm.hpp"
#include "recsys/youtube_dnn.hpp"
#include "util/rng.hpp"

namespace imars::bench {

/// Workload constants shared by the analytical benches (Table I / Sec IV).
struct PaperWorkloads {
  // MovieLens-1M (YouTubeDNN, filtering + ranking).
  static constexpr std::size_t kMlItems = 3952;
  static constexpr std::size_t kMlFilterTables = 6;  // 5 UIETs + ItET
  static constexpr std::size_t kMlRankTables = 7;    // 6 UIETs + ItET

  // Criteo Kaggle (DLRM, ranking only). Table I: 26 banks / 104 mats /
  // 2860 CMAs, which bench_paper derives with core::EtMapping.
  static constexpr std::size_t kCriteoTables = 26;
  static constexpr std::size_t kCriteoActiveCmas = 2860;
  static constexpr std::size_t kCriteoMatsPerTable = 4;

  // Paper DNN stacks (layer widths incl. the assembled input dims of our
  // reproduction; the hidden widths are the paper's).
  static constexpr std::size_t kFilterDnnDims[4] = {196, 128, 64, 32};
  static constexpr std::size_t kRankDnnDims[3] = {260, 128, 1};
};

/// A trained MovieLens + YouTubeDNN pair.
struct MovieLensSetup {
  std::unique_ptr<data::MovieLensSynth> ds;
  std::unique_ptr<recsys::YoutubeDnn> model;
};

/// Builds and trains a YouTubeDNN on synthetic MovieLens. `scale` in (0,1]
/// shrinks users/items for the slower algorithmic benches; 1.0 is the full
/// MovieLens-1M shape.
inline MovieLensSetup make_movielens(double scale, std::size_t filter_epochs,
                                     std::size_t rank_epochs,
                                     std::uint64_t seed = 404) {
  data::MovieLensConfig dcfg;
  dcfg.num_users = std::max<std::size_t>(
      50, static_cast<std::size_t>(6040 * scale));
  dcfg.num_items = std::max<std::size_t>(
      60, static_cast<std::size_t>(3952 * scale));
  dcfg.seed = seed;

  MovieLensSetup s;
  s.ds = std::make_unique<data::MovieLensSynth>(dcfg);

  recsys::YoutubeDnnConfig mcfg;  // paper dims: 32-d, 128-64-32 / 128-1
  mcfg.seed = seed + 1;
  s.model = std::make_unique<recsys::YoutubeDnn>(s.ds->schema(), mcfg);

  util::Xoshiro256 rng(seed + 2);
  for (std::size_t e = 0; e < filter_epochs; ++e) {
    const float loss = s.model->train_filter_epoch(*s.ds, rng);
    std::cerr << "  [train] filter epoch " << e + 1 << "/" << filter_epochs
              << " loss " << loss << "\n";
  }
  for (std::size_t e = 0; e < rank_epochs; ++e) {
    const float loss = s.model->train_rank_epoch(*s.ds, rng);
    std::cerr << "  [train] rank epoch " << e + 1 << "/" << rank_epochs
              << " loss " << loss << "\n";
  }
  return s;
}

/// A trained Criteo + DLRM pair.
struct CriteoSetup {
  std::unique_ptr<data::CriteoSynth> ds;
  std::unique_ptr<recsys::Dlrm> model;
};

inline CriteoSetup make_criteo(std::size_t samples, std::size_t epochs,
                               std::uint64_t seed = 505) {
  data::CriteoConfig dcfg;
  dcfg.num_samples = samples;
  dcfg.seed = seed;

  CriteoSetup s;
  s.ds = std::make_unique<data::CriteoSynth>(dcfg);

  recsys::DlrmConfig mcfg;  // paper dims: 256-128-32 / 256-64-1
  mcfg.seed = seed + 1;
  s.model = std::make_unique<recsys::Dlrm>(s.ds->schema(), mcfg);

  util::Xoshiro256 rng(seed + 2);
  for (std::size_t e = 0; e < epochs; ++e) {
    const float loss = s.model->train_epoch(*s.ds, rng);
    std::cerr << "  [train] dlrm epoch " << e + 1 << "/" << epochs << " loss "
              << loss << "\n";
  }
  return s;
}

/// Shared `--self-profile` / `--trace <file>` flags for the serving benches.
/// Both are pure observation: enabling them must never change a reported
/// figure or a BENCH_*.json record. `--trace` exports one representative
/// run (each bench picks its most loaded configuration) as Chrome
/// trace-event JSON; `--self-profile` prints the host-path wall-clock
/// spans of each run.
struct ObserveFlags {
  bool self_profile = false;
  std::string trace_path;
  bool any() const { return self_profile || !trace_path.empty(); }
};

inline ObserveFlags parse_observe_flags(int argc, char** argv) {
  ObserveFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--self-profile")
      flags.self_profile = true;
    else if (arg == "--trace" && i + 1 < argc)
      flags.trace_path = argv[++i];
  }
  return flags;
}

/// One compact line of self-profiled host spans for a run. The total
/// mirrors ServeReport::host_total_us (worker-completion wait excluded).
inline void print_host_spans(
    const std::string& label,
    const std::vector<std::pair<std::string, double>>& spans,
    std::ostream& os) {
  double total = 0.0;
  for (const auto& [name, us] : spans)
    if (name != "host.wait") total += us;
  os << "  [self-profile] " << label << ": host path "
     << static_cast<std::int64_t>(total) << " us";
  for (const auto& [name, us] : spans)
    os << ", " << name << " " << static_cast<std::int64_t>(us);
  os << "\n";
}

/// Machine-readable bench records: collects flat key/value rows and writes
/// them as a JSON array to `BENCH_<bench>.json`, so the perf trajectory of
/// a bench can be tracked across commits. Values are numbers or strings.
class JsonReport {
 public:
  using Value = std::variant<double, std::int64_t, std::string>;

  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  /// Starts a new record; `name` identifies the configuration measured.
  JsonReport& record(const std::string& name) {
    rows_.emplace_back();
    set("bench", bench_);
    set("name", name);
    return *this;
  }

  JsonReport& set(const std::string& key, double v) {
    return put(key, Value{v});
  }
  JsonReport& set(const std::string& key, std::size_t v) {
    return put(key, Value{static_cast<std::int64_t>(v)});
  }
  JsonReport& set(const std::string& key, int v) {
    return put(key, Value{static_cast<std::int64_t>(v)});
  }
  JsonReport& set(const std::string& key, const std::string& v) {
    return put(key, Value{v});
  }
  JsonReport& set(const std::string& key, const char* v) {
    return put(key, Value{std::string(v)});
  }

  /// Writes `BENCH_<bench>.json` (or `path` if given) and reports on
  /// stderr; returns false (loudly) if the file could not be written.
  bool write(const std::string& path = "") const {
    const std::string file = path.empty() ? "BENCH_" + bench_ + ".json" : path;
    std::ofstream out(file);
    if (!out) {
      std::cerr << "[bench] ERROR: cannot open " << file << " for writing\n";
      return false;
    }
    out << "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << "  {";
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        const auto& [key, value] = rows_[r][i];
        out << (i == 0 ? "" : ", ") << '"' << escape(key) << "\": ";
        if (const auto* d = std::get_if<double>(&value)) {
          std::ostringstream num;
          num.precision(12);
          num << *d;
          out << num.str();
        } else if (const auto* n = std::get_if<std::int64_t>(&value)) {
          out << *n;
        } else {
          out << '"' << escape(std::get<std::string>(value)) << '"';
        }
      }
      out << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    out.flush();
    if (!out) {
      std::cerr << "[bench] ERROR: write to " << file << " failed\n";
      return false;
    }
    std::cerr << "[bench] wrote " << rows_.size() << " records to " << file
              << "\n";
    return true;
  }

 private:
  JsonReport& put(const std::string& key, Value value) {
    rows_.back().emplace_back(key, std::move(value));
    return *this;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else if (c == '\t') {
        out += "\\t";
      } else if (c == '\r') {
        out += "\\r";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string bench_;
  std::vector<std::vector<std::pair<std::string, Value>>> rows_;
};

}  // namespace imars::bench
