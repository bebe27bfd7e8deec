// Out-of-core run store — catalog cold-open + first render, text vs packed.
//
// A parameter sweep leaves dozens-to-hundreds of run files behind; the
// interactive loop starts with "open the catalog, look at one run". This
// bench times that start-up path over a 50-run store in three modes:
//
//   text_eager  — every run is parsed and materialized up front (the
//                 pre-attach catalog behavior over text JSON);
//   text_lazy   — runs are attached; only the rendered run is parsed;
//   packed_lazy — runs are attached as .dvr; the rendered run is
//                 reconstructed from mmap-ed column chunks.
//
// Emits bench_out/BENCH_store.json and checks packed_lazy >= 3x faster
// than text_eager, with byte-identical SVG output in all modes.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_store.hpp"
#include "serve/catalog.hpp"

namespace {

using namespace dv;

struct Mode {
  const char* name;
  double seconds = 0.0;   // median cold-open + first-render wall time
  std::string svg{};      // first render (identity-checked across modes)
  std::size_t disk_bytes = 0;
};

std::size_t dir_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace

int main() {
  bench::banner(
      "run store — sweep-scale catalog cold open + first render",
      "a packed lazy catalog reaches the first rendered view >= 3x faster "
      "than eagerly parsing a text store");

  // A 50-run sweep of small runs: cold-open cost scales with run count,
  // which is exactly what the attach path is meant to flatten.
  const std::size_t kRuns = 50;
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 2;  // canonical(2): small per-run, many runs
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 2.0e4;
  cfg.sample_dt = 400.0;

  const auto base =
      std::filesystem::temp_directory_path() / "dv_bench_store";
  std::filesystem::remove_all(base);
  const std::string text_dir = (base / "text").string();
  const std::string packed_dir = (base / "packed").string();
  std::string target;  // name of the run the "first render" touches
  {
    metrics::RunStore text_store(text_dir);
    metrics::RunStore packed_store(packed_dir);
    for (std::size_t i = 0; i < kRuns; ++i) {
      cfg.seed = 100 + i;
      const auto run = app::run_experiment(cfg).run;
      const auto name = "sweep_" + std::to_string(i);
      text_store.add(run, name, metrics::StoreFormat::kText);
      packed_store.add(run, name, metrics::StoreFormat::kPacked);
      if (i == kRuns / 2) target = name;
    }
  }
  std::printf("store: %zu runs, text %.1f MB, packed %.1f MB\n", kRuns,
              dir_bytes(text_dir) / 1e6, dir_bytes(packed_dir) / 1e6);

  const auto spec = core::preset_from_ref("preset:fig4");
  const auto render_one = [&](const serve::RunCatalog& catalog) {
    const auto lr = catalog.get(target);
    const core::ProjectionView view(lr->data, spec, nullptr, &lr->engine);
    return view.to_svg(800, "store bench");
  };
  const auto run_paths = [&](const std::string& dir) {
    metrics::RunStore store(dir);
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& info : store.list()) {
      out.emplace_back(info.name, store.path(info.name));
    }
    return out;
  };

  Mode text_eager{"text_eager"}, text_lazy{"text_lazy"},
      packed_lazy{"packed_lazy"};
  text_eager.disk_bytes = dir_bytes(text_dir);
  text_lazy.disk_bytes = text_eager.disk_bytes;
  packed_lazy.disk_bytes = dir_bytes(packed_dir);

  const int reps = 3;
  text_eager.seconds = bench::median_seconds(reps, [&] {
    serve::RunCatalog catalog;
    for (const auto& [name, path] : run_paths(text_dir)) {
      catalog.load(path, name);
    }
    text_eager.svg = render_one(catalog);
  });
  text_lazy.seconds = bench::median_seconds(reps, [&] {
    serve::RunCatalog catalog;
    for (const auto& [name, path] : run_paths(text_dir)) {
      catalog.attach(path, name);
    }
    text_lazy.svg = render_one(catalog);
  });
  metrics::dvr_reset_stats();
  packed_lazy.seconds = bench::median_seconds(reps, [&] {
    serve::RunCatalog catalog;
    for (const auto& [name, path] : run_paths(packed_dir)) {
      catalog.attach(path, name);
    }
    packed_lazy.svg = render_one(catalog);
  });
  const auto dvr = metrics::dvr_stats();

  for (const Mode* m : {&text_eager, &text_lazy, &packed_lazy}) {
    std::printf("%-12s %9.3f ms to first render  (%.1f MB on disk)\n",
                m->name, m->seconds * 1e3, m->disk_bytes / 1e6);
  }
  const double speedup = text_eager.seconds / packed_lazy.seconds;
  std::printf("packed_lazy vs text_eager: %.1fx; dvr: %llu opens, "
              "%llu chunks read, %llu chunks pruned\n",
              speedup, static_cast<unsigned long long>(dvr.opens),
              static_cast<unsigned long long>(dvr.chunks_read),
              static_cast<unsigned long long>(dvr.chunks_pruned));

  bench::shape_check(text_eager.svg == text_lazy.svg &&
                         text_eager.svg == packed_lazy.svg,
                     "first render is byte-identical across store modes");
  bench::shape_check(speedup >= 3.0,
                     "packed lazy cold open + first render is >= 3x faster "
                     "than eager text");
  bench::shape_check(text_lazy.seconds <= text_eager.seconds,
                     "attaching text runs never loses to eager-loading them");

  const std::string path = bench::out_path("BENCH_store.json");
  std::ofstream os(path, std::ios::binary);
  os << "{\n  \"benchmark\": \"store_cold_open\",\n"
     << "  \"provenance\": " << bench::provenance_json() << ",\n"
     << "  \"runs\": " << kRuns << ",\n"
     << "  \"modes\": [\n";
  const Mode* modes[] = {&text_eager, &text_lazy, &packed_lazy};
  for (std::size_t i = 0; i < 3; ++i) {
    os << "    {\"mode\": \"" << modes[i]->name
       << "\", \"seconds_to_first_render\": " << modes[i]->seconds
       << ", \"disk_bytes\": " << modes[i]->disk_bytes << "}"
       << (i + 1 < 3 ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"speedup_packed_vs_text_eager\": " << speedup << ",\n"
     << "  \"dvr\": {\"opens\": " << dvr.opens
     << ", \"chunks_read\": " << dvr.chunks_read
     << ", \"chunk_bytes_read\": " << dvr.chunk_bytes_read
     << ", \"chunks_pruned\": " << dvr.chunks_pruned << "}\n"
     << "}\n";
  std::printf("wrote %s\n", path.c_str());

  std::filesystem::remove_all(base);
  return bench::footer();
}
