// VA interactive loop — time-windowed re-aggregation with the query cache.
//
// The paper's premise is that design-space exploration stays *interactive*
// while brushing time ranges and re-projecting. This bench quantifies the
// query-engine layers on the DF(1056-terminal) preset (dragonfly
// canonical(4): g=33 a=8 p=4):
//
//   cold     — every brush slices the run (slice_time) and re-aggregates
//              from scratch, the pre-engine path;
//   windowed — a fresh QueryEngine answers the same brushes (group slabs
//              are built once, then each window is an O(groups) delta);
//   cached   — the warmed engine re-answers the same brushes (pure hits).
//
// Emits bench_out/BENCH_va.json and checks cached >= 10x cold. When a
// previous BENCH_va.json exists (DV_BENCH_BASELINE overrides the path),
// the windowed/cached per-query rates must stay within 25% of it — a
// same-machine floor for local runs; CI disables it (DV_BENCH_BASELINE=
// /dev/null) and gates only on machine-relative speedups, because
// absolute timings do not transfer across runner hardware.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/query.hpp"
#include "json/json.hpp"

namespace {

using namespace dv;

struct RingQuery {
  core::Entity entity;
  const char* key;
  const char* attr;
};

// The three rings of the "interactive" preset.
constexpr RingQuery kRings[] = {
    {core::Entity::kGlobalLink, "group_id", "traffic"},
    {core::Entity::kLocalLink, "router_rank", "traffic"},
    {core::Entity::kTerminal, "router_rank", "data_size"},
};

core::AggregationSpec ring_spec(const RingQuery& q) {
  core::AggregationSpec spec;
  spec.keys = {q.key};
  return spec;
}

double checksum(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

struct Mode {
  const char* name;
  double seconds = 0.0;
  std::size_t queries = 0;
  double check = 0.0;  // keeps the work observable
  double ms_per_query() const {
    return queries ? seconds * 1e3 / static_cast<double>(queries) : 0.0;
  }
};

/// ms_per_query recorded for `mode` in a previous BENCH_va.json, or 0 when
/// the file is missing/unreadable (0 skips the floor — CI points
/// `DV_BENCH_BASELINE` at /dev/null for exactly that effect).
double read_baseline_ms(const std::string& default_path,
                        const std::string& mode) {
  const char* env = std::getenv("DV_BENCH_BASELINE");
  const std::string path = env && *env ? env : default_path;
  std::ifstream is(path, std::ios::binary);
  if (!is) return 0.0;
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    const dv::json::Value v = dv::json::parse(buf.str());
    for (const auto& m : v.at("modes").as_array()) {
      if (m.get_string("mode", "") == mode) {
        return m.get_number("ms_per_query", 0.0);
      }
    }
  } catch (...) {
  }
  return 0.0;
}

}  // namespace

int main() {
  bench::banner(
      "VA interactive — windowed re-aggregation with a spec-keyed cache",
      "brushing a time range re-aggregates incrementally; cached brushes "
      "answer >= 10x faster than slicing from scratch");

  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 4;  // 1056 terminals
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 1.0e5;
  cfg.sample_dt = 500.0;
  cfg.seed = 7;
  const auto run = app::run_experiment(cfg).run;
  const core::DataSet data(run);
  std::printf("run: %u terminals, end=%.0f ns, %zu frames of %.0f ns\n",
              run.groups * run.routers_per_group * run.terminals_per_router,
              run.end_time, run.local_traffic_ts.frames(), run.sample_dt);

  // A brushing session: W distinct windows sweeping across the run.
  const std::size_t W = 40;
  std::vector<core::TimeWindow> windows;
  for (std::size_t i = 0; i < W; ++i) {
    const double t0 = run.end_time * 0.6 * static_cast<double>(i) / W;
    windows.push_back(core::TimeWindow{t0, t0 + run.end_time * 0.35});
  }

  Mode cold{"cold"}, windowed{"windowed"}, cached{"cached"};

  {  // cold: slice_time + fresh aggregation per brush
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& w : windows) {
      const core::DataSet sliced = data.slice_time(w.t0, w.t1);
      for (const auto& q : kRings) {
        const core::Aggregation agg(sliced.table(q.entity), ring_spec(q));
        cold.check += checksum(agg.reduce(q.attr, core::Reducer::kSum));
        ++cold.queries;
      }
    }
    cold.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  }

  core::QueryEngine engine(data, 512);
  {  // windowed: fresh engine, slabs amortized across the sweep
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& w : windows) {
      for (const auto& q : kRings) {
        auto spec = ring_spec(q);
        spec.window = w;
        windowed.check += checksum(
            *engine.reduce(q.entity, spec, q.attr, core::Reducer::kSum));
        ++windowed.queries;
      }
    }
    windowed.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  }

  {  // cached: the same brushes again, answered from the LRU
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      for (const auto& w : windows) {
        for (const auto& q : kRings) {
          auto spec = ring_spec(q);
          spec.window = w;
          cached.check += checksum(
              *engine.reduce(q.entity, spec, q.attr, core::Reducer::kSum));
          ++cached.queries;
        }
      }
    }
    cached.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }

  const auto stats = engine.stats();
  for (const Mode* m : {&cold, &windowed, &cached}) {
    std::printf("%-9s %6zu queries in %8.3f ms  (%8.4f ms/query)\n", m->name,
                m->queries, m->seconds * 1e3, m->ms_per_query());
  }
  std::printf("cache: %llu hits / %llu misses, %llu slab builds, "
              "%llu slab reductions\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.slab_builds),
              static_cast<unsigned long long>(stats.slab_reduces));

  const double windowed_speedup = cold.ms_per_query() / windowed.ms_per_query();
  const double cached_speedup = cold.ms_per_query() / cached.ms_per_query();
  std::printf("speedup vs cold: windowed %.1fx, cached %.1fx\n",
              windowed_speedup, cached_speedup);

  // The three paths all sum the same per-window traffic (per-brush checksum
  // sets differ only in repetition count, so compare per-query averages).
  const double cold_avg = cold.check / static_cast<double>(cold.queries);
  const double win_avg = windowed.check / static_cast<double>(windowed.queries);
  const double cache_avg = cached.check / static_cast<double>(cached.queries);
  bench::shape_check(
      std::abs(win_avg - cold_avg) <= 1e-6 + std::abs(cold_avg) * 1e-6 &&
          std::abs(cache_avg - cold_avg) <= 1e-6 + std::abs(cold_avg) * 1e-6,
      "windowed and cached answers agree with slicing from scratch");
  bench::shape_check(cached_speedup >= 10.0,
                     "cached re-aggregation is >= 10x faster than cold");
  bench::shape_check(windowed_speedup >= 2.0,
                     "incremental windowed aggregation beats cold slicing");
  bench::shape_check(stats.slab_builds <= 3,
                     "group slabs are built once per ring, not per brush");

  const std::string path = bench::out_path("BENCH_va.json");
  // Rate floor vs the checked-in baseline, read before it is overwritten.
  // windowed sums ~3ms over 120 queries, so a 25% band absorbs runner
  // jitter while catching real hot-path regressions; cached answers are
  // sub-microsecond lookups where timer noise dominates, so only a 2x
  // slowdown is treated as a real regression there.
  struct Floor {
    const Mode* mode;
    double min_ratio;
  };
  for (const auto& [m, min_ratio] :
       {Floor{&windowed, 0.75}, Floor{&cached, 0.5}}) {
    const double base_ms = read_baseline_ms(path, m->name);
    if (base_ms <= 0.0) continue;
    const double ratio = base_ms / m->ms_per_query();  // >1 means faster
    std::printf("%s vs baseline: %.4f ms/query vs %.4f (%.2fx)\n", m->name,
                m->ms_per_query(), base_ms, ratio);
    bench::shape_check(ratio >= min_ratio,
                       std::string(m->name) + " per-query rate above the " +
                           (min_ratio >= 0.75 ? "25%" : "2x") +
                           " regression floor vs the baseline");
  }
  std::ofstream os(path, std::ios::binary);
  os << "{\n  \"benchmark\": \"va_interactive\",\n"
     << "  \"provenance\": " << bench::provenance_json() << ",\n"
     << "  \"topology\": \"dragonfly canonical(4)\",\n"
     << "  \"terminals\": "
     << run.groups * run.routers_per_group * run.terminals_per_router << ",\n"
     << "  \"frames\": " << run.local_traffic_ts.frames() << ",\n"
     << "  \"brush_windows\": " << W << ",\n"
     << "  \"modes\": [\n";
  const Mode* modes[] = {&cold, &windowed, &cached};
  for (std::size_t i = 0; i < 3; ++i) {
    os << "    {\"mode\": \"" << modes[i]->name
       << "\", \"queries\": " << modes[i]->queries
       << ", \"seconds\": " << modes[i]->seconds
       << ", \"ms_per_query\": " << modes[i]->ms_per_query() << "}"
       << (i + 1 < 3 ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"speedup_windowed_vs_cold\": " << windowed_speedup << ",\n"
     << "  \"speedup_cached_vs_cold\": " << cached_speedup << ",\n"
     << "  \"cache\": {\"hits\": " << stats.hits
     << ", \"misses\": " << stats.misses
     << ", \"slab_builds\": " << stats.slab_builds
     << ", \"slab_reduces\": " << stats.slab_reduces << "}\n"
     << "}\n";
  std::printf("wrote %s\n", path.c_str());
  return bench::footer();
}
