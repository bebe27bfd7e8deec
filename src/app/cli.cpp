// dragonviz CLI: simulate dragonfly networks and render spec-driven
// projection / detail / timeline views headlessly.
//
//   dragonviz sim --p 3 --job amg:0:contiguous --routing adaptive
//       ... --out run.json [--sample-dt 1000] [--scale 0.5]
//   dragonviz render  --run run.json --spec spec.json --out view.svg
//   dragonviz session --run run.json --spec spec.json --out ui.svg
//       ... [--t0 ns --t1 ns] [--brush axis:lo:hi]
//   dragonviz compare --run a.json --run b.json --spec spec.json --out c.svg
//   dragonviz export  --run run.json --entity terminals --out t.csv
//   dragonviz info    --run run.json
#include "app/cli.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "app/sweep.hpp"
#include "core/comparison.hpp"
#include "fault/fault.hpp"
#include "obs/profile.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/views.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_store.hpp"
#include "serve/catalog.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/trace.hpp"
#include "util/str.hpp"

namespace dv::app {

namespace {

/// Strict number parsing for option values: the whole token (surrounding
/// blanks aside) must be one finite number, so `--p 3x` fails instead of
/// running DF(3). `what` names the flag in the error.
double parse_number(const std::string& what, const std::string& token) {
  const std::string t = trim(token);
  char* end = nullptr;
  const double v = t.empty() ? 0.0 : std::strtod(t.c_str(), &end);
  if (t.empty() || end != t.c_str() + t.size() || !std::isfinite(v)) {
    throw Error(what + ": expected a finite number, got '" + token + "'");
  }
  return v;
}

/// parse_number for counts: a non-negative integer that fits in T.
template <typename T>
T parse_count(const std::string& what, const std::string& token) {
  const double v = parse_number(what, token);
  if (v < 0 || v != std::floor(v) ||
      v >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    throw Error(what + ": expected a non-negative integer, got '" + token +
                "'");
  }
  return static_cast<T>(v);
}

/// Minimal option parser: --key value or --key=value (repeatable keys
/// collect). Only the subcommand's own flags are accepted. Keys in
/// kOptionalValue may appear bare; they collect "".
struct Args {
  std::map<std::string, std::vector<std::string>> opts;

  static bool optional_value(const std::string& key) {
    return key == "profile" || key == "cache-stats" || key == "lazy" ||
           key == "flow-coarsen" ||
           // `client` action flags take no value.
           key == "list" || key == "stats" || key == "render" ||
           key == "report" || key == "shutdown";
  }

  static Args parse(int argc, char** argv, int start, const std::string& cmd,
                    const std::vector<std::string>& flags) {
    Args a;
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      DV_REQUIRE(starts_with(key, "--"), "expected --option, got: " + key);
      key = key.substr(2);
      const auto eq = key.find('=');
      const std::string name = key.substr(0, eq);
      if (std::find(flags.begin(), flags.end(), name) == flags.end()) {
        throw Error(cmd + ": unknown option --" + name + " (see dragonviz " +
                    cmd + " --help)");
      }
      if (eq != std::string::npos) {
        a.opts[name].push_back(key.substr(eq + 1));
        continue;
      }
      if (optional_value(key) &&
          (i + 1 >= argc || starts_with(argv[i + 1], "--"))) {
        a.opts[key].push_back("");
        continue;
      }
      DV_REQUIRE(i + 1 < argc, "missing value for --" + key);
      a.opts[key].push_back(argv[++i]);
    }
    return a;
  }

  /// The value of a single-value option, or nullptr when it is absent;
  /// giving it more than once is an error.
  const std::string* single(const std::string& key) const {
    const auto it = opts.find(key);
    if (it == opts.end()) return nullptr;
    DV_REQUIRE(it->second.size() == 1, "--" + key + " given multiple times");
    return &it->second[0];
  }
  const std::string& one(const std::string& key) const {
    const std::string* v = single(key);
    DV_REQUIRE(v != nullptr, "--" + key + " required");
    return *v;
  }
  std::string one_or(const std::string& key, const std::string& dflt) const {
    const std::string* v = single(key);
    return v ? *v : dflt;
  }
  double num_or(const std::string& key, double dflt) const {
    const std::string* v = single(key);
    return v ? parse_number("--" + key, *v) : dflt;
  }
  template <typename T>
  T count_or(const std::string& key, T dflt) const {
    const std::string* v = single(key);
    return v ? parse_count<T>("--" + key, *v) : dflt;
  }
  std::vector<std::string> many(const std::string& key) const {
    const auto it = opts.find(key);
    return it == opts.end() ? std::vector<std::string>{} : it->second;
  }
};

/// Explicit --epoch-dt values must be positive; omitting the flag keeps
/// the flow backend's automatic epoch sizing.
double parse_epoch_dt(const Args& args, const char* cmd) {
  const double dt = args.num_or("epoch-dt", 0.0);
  DV_REQUIRE(args.opts.find("epoch-dt") == args.opts.end() || dt > 0.0,
             std::string(cmd) +
                 ": --epoch-dt must be > 0 ns (omit the flag for automatic "
                 "epoch sizing)");
  return dt;
}

/// Boolean flag: bare `--key`, `--key=1/true/on`, or explicit off values.
bool flag_on(const Args& args, const std::string& key, const char* cmd) {
  const auto it = args.opts.find(key);
  if (it == args.opts.end()) return false;
  const std::string v = to_lower(trim(it->second.back()));
  if (v.empty() || v == "1" || v == "true" || v == "on") return true;
  if (v == "0" || v == "false" || v == "off") return false;
  throw Error(std::string(cmd) + ": bad --" + key + " value: " + v +
              " (expected on|off)");
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// A run file's format follows its extension: `.dvr` is packed, anything
/// else text JSON.
bool is_dvr_path(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".dvr") == 0;
}

void save_run(const metrics::RunMetrics& run, const std::string& path) {
  if (is_dvr_path(path)) {
    metrics::save_dvr(run, path);
  } else {
    run.save(path);
  }
}

/// Writes the observability profile when --profile was given. An empty
/// value (bare --profile) derives the path from `out_path` by replacing a
/// trailing ".json"/".svg" with ".profile.json".
void maybe_write_profile(const Args& args, const std::string& out_path) {
  const auto it = args.opts.find("profile");
  if (it == args.opts.end()) return;
  std::string path = it->second.back();
  if (path.empty()) {
    std::string base = out_path;
    const auto dot = base.find_last_of('.');
    if (dot != std::string::npos && base.find('/', dot) == std::string::npos) {
      base = base.substr(0, dot);
    }
    path = base + ".profile.json";
  }
  const obs::RunProfile profile = obs::capture();
  profile.save(path);
  std::printf("wrote %s (%zu counters, %zu phases, %.3fs wall)\n",
              path.c_str(), profile.counters.size(), profile.phases.size(),
              profile.wall_seconds);
  if (!obs::kEnabled) {
    std::printf("note: built with DV_OBS_ENABLED=OFF — profile is empty\n");
  }
}

/// Collects the fault plan from --faults FILE (at most one) plus any
/// number of inline --fault SPEC arguments.
fault::FaultPlan parse_fault_args(const Args& args) {
  fault::FaultPlan plan;
  const std::string file = args.one_or("faults", "");
  if (!file.empty()) plan = fault::FaultPlan::load(file);
  for (const auto& s : args.many("fault")) {
    plan.faults.push_back(fault::parse_fault(s));
  }
  return plan;
}

/// Applies the --fault-retry-* tuning knobs to the simulation parameters.
void apply_fault_params(const Args& args, netsim::Params& params) {
  params.fault_retry_base =
      args.num_or("fault-retry-base", params.fault_retry_base);
  params.fault_retry_budget =
      args.count_or("fault-retry-budget", params.fault_retry_budget);
}

/// --spec accepts either a script file path or "preset:<name>".
core::ProjectionSpec load_spec(const Args& args) {
  const std::string& ref = args.one("spec");
  if (core::is_preset_ref(ref)) return core::preset_from_ref(ref);
  return core::ProjectionSpec::parse(read_file(ref));
}

/// Parses "--window t0:t1" (ns, half-open) into a spec time window. Note
/// this is the analysis-side window; `sim --window` is the injection
/// window and is unrelated.
core::TimeWindow parse_time_window(const std::string& s) {
  const auto parts = split(s, ':');
  DV_REQUIRE(parts.size() == 2, "--window must be t0:t1 (ns)");
  core::TimeWindow w;
  w.t0 = parse_number("--window", parts[0]);
  w.t1 = parse_number("--window", parts[1]);
  DV_REQUIRE(w.active(), "--window needs t0 < t1");
  return w;
}

/// Applies --window to the projection spec when given.
void maybe_apply_window(const Args& args, core::ProjectionSpec& spec) {
  const std::string w = args.one_or("window", "");
  if (!w.empty()) spec.window = parse_time_window(w);
}

/// Prints the query-engine cache summary when --cache-stats was given.
void maybe_print_cache_stats(const Args& args, const core::QueryStats& s) {
  if (args.opts.find("cache-stats") == args.opts.end()) return;
  std::printf("query cache: %llu hits / %llu misses, %llu evictions, "
              "%llu live entries; group slabs: %llu built, %llu reductions\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.evictions),
              static_cast<unsigned long long>(s.entries),
              static_cast<unsigned long long>(s.slab_builds),
              static_cast<unsigned long long>(s.slab_reduces));
}

int cmd_sim(const Args& args) {
  obs::reset();  // profile this invocation only
  ExperimentConfig cfg;
  cfg.dragonfly_p = args.count_or<std::uint32_t>("p", 3);
  cfg.routing = routing::algo_from_string(args.one_or("routing", "adaptive"));
  cfg.traffic_scale = args.num_or("scale", 1.0);
  cfg.window = args.num_or("window", 2.0e6);
  cfg.sample_dt = args.num_or("sample-dt", 0.0);
  cfg.seed = args.count_or<std::uint64_t>("seed", 1);
  cfg.parallel = args.count_or<std::uint32_t>("parallel", 1);
  cfg.backend = backend_from_string(args.one_or("backend", "packet"));
  cfg.flow_epoch_dt = parse_epoch_dt(args, "sim");
  cfg.flow_coarsen = flag_on(args, "flow-coarsen", "sim");
  cfg.flow_stepping = args.one_or("flow-stepping", "event");
  cfg.faults = parse_fault_args(args);
  apply_fault_params(args, cfg.params);
  const auto jobs = args.many("job");
  DV_REQUIRE(!jobs.empty(),
             "at least one --job workload[:ranks[:policy]] required");
  for (const auto& spec : jobs) {
    const auto parts = split(spec, ':');
    JobSpec job;
    job.workload = parts[0];
    if (parts.size() > 1 && !parts[1].empty()) {
      job.ranks = parse_count<std::uint32_t>("--job ranks", parts[1]);
    }
    if (parts.size() > 2) job.policy = placement::policy_from_string(parts[2]);
    if (parts.size() > 3 && !parts[3].empty()) {
      job.bytes = parse_count<std::uint64_t>("--job bytes", parts[3]);
    }
    DV_REQUIRE(parts.size() <= 4, "bad --job spec: " + spec);
    cfg.jobs.push_back(job);
  }
  const std::string out = args.one("out");
  const auto result = run_experiment(cfg);
  {
    obs::ScopedPhase phase("write");
    save_run(result.run, out);
  }
  std::printf(
      "simulated %s on %s: %llu events, %.2fs wall, end=%.0f ns (%u %s)\n",
      result.run.workload.c_str(), result.topo.describe().c_str(),
      static_cast<unsigned long long>(result.events), result.wall_seconds,
      result.run.end_time, result.partitions,
      result.partitions > 1 ? "partitions" : "partition, sequential");
  if (!cfg.faults.empty()) {
    std::uint64_t retries = 0, drops = 0;
    for (const auto c : result.run.router_retries) retries += c;
    for (const auto c : result.run.router_drops) drops += c;
    std::printf("faults: %zu scheduled, %llu retries, %llu packets dropped\n",
                cfg.faults.faults.size(),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(drops));
  }
  std::printf("wrote %s\n", out.c_str());
  maybe_write_profile(args, out);
  return 0;
}

/// Collects a sweep axis from repeatable --<singular> options plus a
/// comma-separated --<plural> list, e.g. --workload ur --workloads a,b.
std::vector<std::string> axis_values(const Args& args,
                                     const std::string& singular,
                                     const std::string& plural) {
  std::vector<std::string> vals = args.many(singular);
  for (const auto& lst : args.many(plural)) {
    for (const auto& v : split(lst, ',')) {
      if (!trim(v).empty()) vals.push_back(trim(v));
    }
  }
  return vals;
}

int cmd_sweep(const Args& args) {
  obs::reset();
  SweepConfig cfg;
  cfg.base.dragonfly_p = args.count_or<std::uint32_t>("p", 3);
  cfg.base.window = args.num_or("window", 2.0e6);
  cfg.base.sample_dt = args.num_or("sample-dt", 0.0);
  cfg.base.seed = args.count_or<std::uint64_t>("seed", 1);
  cfg.base.backend = backend_from_string(args.one_or("backend", "flow"));
  cfg.base.flow_epoch_dt = parse_epoch_dt(args, "sweep");
  cfg.base.flow_coarsen = flag_on(args, "flow-coarsen", "sweep");
  cfg.base.flow_stepping = args.one_or("flow-stepping", "event");
  cfg.base.parallel = args.count_or<std::uint32_t>("parallel", 1);
  cfg.base.synthetic_bytes_per_rank =
      args.count_or("bytes-per-rank", cfg.base.synthetic_bytes_per_rank);

  cfg.workloads = axis_values(args, "workload", "workloads");
  cfg.routings = axis_values(args, "routing", "routings");
  for (const auto& s : axis_values(args, "scale", "scales")) {
    cfg.scales.push_back(parse_number("--scales", s));
  }
  if (cfg.workloads.empty()) cfg.workloads = {"uniform_random"};
  if (cfg.routings.empty()) cfg.routings = {"adaptive"};
  if (cfg.scales.empty()) cfg.scales = {1.0};

  cfg.store_dir = args.one("store");
  cfg.format =
      metrics::store_format_from_string(args.one_or("format", "dvr"));
  cfg.report_path = args.one_or("report", "");
  cfg.report_spec = args.one_or("spec", "preset:overview");
  cfg.report_title = args.one_or("title", "dragonviz sweep");

  const SweepResult res = run_sweep(cfg);
  for (const auto& p : res.points) {
    std::printf("point %-40s uid=%llu end=%.0f ns %.3fs wall\n",
                p.name.c_str(), static_cast<unsigned long long>(p.uid),
                p.end_time, p.wall_seconds);
  }
  std::printf("sweep: %zu points (%s backend) into %s in %.2fs\n",
              res.points.size(), to_string(cfg.base.backend).c_str(),
              cfg.store_dir.c_str(), res.wall_seconds);
  if (!res.report_path.empty()) {
    std::printf("wrote %s\n", res.report_path.c_str());
  }
  maybe_write_profile(args, res.report_path.empty() ? cfg.store_dir + "/sweep"
                                                    : res.report_path);
  return 0;
}

int cmd_render(const Args& args) {
  obs::reset();
  const core::DataSet data = load_run_dataset(args.one("run"));
  auto spec = load_spec(args);
  maybe_apply_window(args, spec);
  core::QueryEngine engine(data);
  // --focus ring:item applies the paper's click-to-focus drill-down
  // before rendering (may be repeated for nested drill-down).
  for (const auto& f : args.many("focus")) {
    const auto parts = split(f, ':');
    DV_REQUIRE(parts.size() == 2, "--focus must be ring:item");
    const core::ProjectionView overview(data, spec, nullptr, &engine);
    spec = overview.drill_down(parse_count<std::size_t>("--focus", parts[0]),
                               parse_count<std::size_t>("--focus", parts[1]));
  }
  auto build_phase = std::make_unique<obs::ScopedPhase>("build");
  const core::ProjectionView view(data, spec, nullptr, &engine);
  build_phase.reset();
  const std::string out = args.one("out");
  {
    obs::ScopedPhase phase("render");
    view.save_svg(out, args.num_or("size", 800),
                  args.one_or("title", data.run().workload + " / " +
                                           data.run().routing));
  }
  std::printf("wrote %s (%zu rings, %zu ribbons)\n", out.c_str(),
              view.rings().size(), view.ribbons().size());
  maybe_print_cache_stats(args, engine.stats());
  maybe_write_profile(args, out);
  return 0;
}

int cmd_store(const Args& args) {
  metrics::RunStore store(args.one("dir"));
  const std::string action = args.one_or("action", "list");
  if (action == "add") {
    const auto fmt =
        metrics::store_format_from_string(args.one_or("format", "text"));
    const auto run = metrics::RunMetrics::load(args.one("run"));
    const auto name = store.add(run, args.one_or("name", ""), fmt);
    std::printf("stored as '%s' (%s)\n", name.c_str(),
                metrics::to_string(fmt).c_str());
    return 0;
  }
  if (action == "remove") {
    store.remove(args.one("name"));
    std::printf("removed '%s'\n", args.one("name").c_str());
    return 0;
  }
  if (action == "repack") {
    const auto fmt =
        metrics::store_format_from_string(args.one_or("format", "dvr"));
    store.repack(args.one("name"), fmt);
    std::printf("repacked '%s' as %s\n", args.one("name").c_str(),
                metrics::to_string(fmt).c_str());
    return 0;
  }
  DV_REQUIRE(action == "list",
             "store action must be list|add|remove|repack");
  std::printf("%-36s %-20s %-12s %-18s %9s %5s %16s\n", "name", "workload",
              "routing", "placement", "terminals", "fmt", "uid");
  for (const auto& info : store.list()) {
    std::printf("%-36s %-20s %-12s %-18s %9u %5s %016llx\n",
                info.name.c_str(), info.workload.c_str(),
                info.routing.c_str(), info.placement.c_str(), info.terminals,
                metrics::to_string(info.format).c_str(),
                static_cast<unsigned long long>(info.uid));
  }
  std::printf("%zu run(s) in %s\n", store.size(), store.dir().c_str());
  return 0;
}

int cmd_pack(const Args& args) {
  const std::string in = args.one("in");
  const std::string out = args.one("out");
  // Output format: --format wins, else the output extension decides.
  std::string fmt_name = args.one_or("format", "");
  if (fmt_name.empty()) fmt_name = is_dvr_path(out) ? "dvr" : "text";
  const auto fmt = metrics::store_format_from_string(fmt_name);
  const auto run = metrics::RunMetrics::load(in);
  if (fmt == metrics::StoreFormat::kPacked) {
    metrics::save_dvr(run, out);
  } else {
    run.save(out);
  }
  const auto size_of = [](const std::string& p) {
    std::ifstream is(p, std::ios::binary | std::ios::ate);
    return is.good() ? static_cast<long long>(is.tellg()) : 0ll;
  };
  const long long in_b = size_of(in), out_b = size_of(out);
  std::printf("packed %s (%lld bytes) -> %s (%lld bytes, %s, %.2fx)\n",
              in.c_str(), in_b, out.c_str(), out_b,
              metrics::to_string(fmt).c_str(),
              out_b > 0 ? static_cast<double>(in_b) / out_b : 0.0);
  std::printf("run uid: %016llx\n", static_cast<unsigned long long>(
                                        metrics::run_content_uid(run)));
  return 0;
}

int cmd_inspect(const Args& args) {
  const std::string path = args.one("run");
  if (!metrics::is_dvr_file(path)) {
    std::printf("%s: text (JSON) run — no chunk directory; use "
                "`dragonviz pack` to convert, `info` for run summary\n",
                path.c_str());
    return 0;
  }
  // Header + directory only: no column payload is touched, which is the
  // point — this is what a catalog sees before the first query.
  const metrics::DvrFile f(path);
  std::printf("%s: dvr v%u, %llu bytes, run uid %016llx\n", path.c_str(),
              metrics::kDvrVersion,
              static_cast<unsigned long long>(f.file_bytes()),
              static_cast<unsigned long long>(f.run_uid()));
  std::printf("config:   %s / %s / %s\n", f.workload().c_str(),
              f.routing().c_str(), f.placement().c_str());
  std::printf("topology: g=%u a=%u p=%u h=%u, end=%.0f ns%s\n", f.groups(),
              f.routers_per_group(), f.terminals_per_router(),
              f.global_per_router(), f.end_time(),
              f.has_time_series() ? ", sampled" : "");
  // Per-section rollup of the chunk directory.
  std::map<std::uint16_t, std::pair<std::size_t, std::uint64_t>> sections;
  std::size_t zero_chunks = 0;
  for (const auto& c : f.chunks()) {
    auto& [count, bytes] = sections[c.section];
    ++count;
    bytes += c.bytes;
    if (c.zmin == 0.0 && c.zmax == 0.0) ++zero_chunks;
  }
  std::printf("chunks:   %zu total, %zu all-zero (prunable)\n",
              f.chunks().size(), zero_chunks);
  for (const auto& [section, cb] : sections) {
    const char* label = "series";
    switch (static_cast<metrics::DvrSection>(section)) {
      case metrics::DvrSection::kLocalLinks: label = "local_links"; break;
      case metrics::DvrSection::kGlobalLinks: label = "global_links"; break;
      case metrics::DvrSection::kTerminals: label = "terminals"; break;
      case metrics::DvrSection::kRouterTallies: label = "router_tallies"; break;
      default: break;
    }
    std::printf("  section %2u (%s): %zu chunk(s), %llu bytes\n", section,
                label, cb.first,
                static_cast<unsigned long long>(cb.second));
  }
  return 0;
}

int cmd_session(const Args& args) {
  const auto spec = load_spec(args);
  core::AnalysisSession session{load_run_dataset(args.one("run")), spec};
  const double t0 = args.num_or("t0", -1), t1 = args.num_or("t1", -1);
  if (t0 >= 0 && t1 > t0) session.select_time_range(t0, t1);
  // --window t0:t1 is shorthand for --t0/--t1.
  const std::string w = args.one_or("window", "");
  if (!w.empty()) {
    const auto win = parse_time_window(w);
    session.select_time_range(win.t0, win.t1);
  }
  for (const auto& b : args.many("brush")) {
    const auto parts = split(b, ':');
    DV_REQUIRE(parts.size() == 3, "--brush must be axis:lo:hi");
    session.brush(parts[0], parse_number("--brush", parts[1]),
                  parse_number("--brush", parts[2]));
  }
  const std::string out = args.one("out");
  session.save_svg(out, args.num_or("width", 1400),
                   args.num_or("height", 900));
  std::printf("wrote %s\n", out.c_str());
  maybe_print_cache_stats(args, session.query_stats());
  return 0;
}

int cmd_compare(const Args& args) {
  const auto paths = args.many("run");
  DV_REQUIRE(paths.size() >= 2, "compare needs at least two --run files");
  std::vector<core::DataSet> datasets;
  datasets.reserve(paths.size());
  for (const auto& p : paths) datasets.push_back(load_run_dataset(p));
  std::vector<const core::DataSet*> ptrs;
  for (const auto& d : datasets) ptrs.push_back(&d);
  const auto spec = load_spec(args);
  const core::ComparisonView cmp(ptrs, spec);
  const std::string out = args.one("out");
  cmp.save_svg(out, args.num_or("size", 520));
  // Also print the per-job summary table (Fig. 13d style).
  const auto summaries = cmp.job_summaries();
  std::printf("%-32s %-12s %14s %14s %10s\n", "run", "job",
              "avg_latency_ns", "data_bytes", "avg_hops");
  for (std::size_t r = 0; r < summaries.size(); ++r) {
    for (const auto& s : summaries[r]) {
      std::printf("%-32s %-12s %14.1f %14.0f %10.2f\n", cmp.label(r).c_str(),
                  s.name.c_str(), s.avg_latency, s.data_size, s.avg_hops);
    }
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_export(const Args& args) {
  const auto run = metrics::RunMetrics::load(args.one("run"));
  const auto table = run.to_csv(args.one_or("entity", "terminals"));
  const std::string out = args.one("out");
  std::ofstream os(out, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open: " + out);
  write_csv(os, table);
  std::printf("wrote %s (%zu rows)\n", out.c_str(), table.rows.size());
  return 0;
}

int cmd_report(const Args& args) {
  const auto paths = args.many("run");
  DV_REQUIRE(!paths.empty(), "at least one --run required");
  auto spec = load_spec(args);
  maybe_apply_window(args, spec);
  std::vector<core::DataSet> datasets;
  datasets.reserve(paths.size());
  for (const auto& p : paths) datasets.push_back(load_run_dataset(p));

  core::ReportBuilder report(
      args.one_or("title", "dragonviz analysis report"));
  if (datasets.size() == 1) {
    const metrics::RunMetrics& run = datasets[0].run();
    report.run_summary(datasets[0]);
    core::QueryEngine engine(datasets[0]);
    const core::ProjectionView view(datasets[0], spec, nullptr, &engine);
    report.projection(view, run.workload + " / " + run.routing + " / " +
                                run.placement);
    if (args.opts.find("cache-stats") != args.opts.end()) {
      report.query_stats(engine.stats());
    }
    maybe_print_cache_stats(args, engine.stats());
  } else {
    std::vector<const core::DataSet*> ptrs;
    for (const auto& d : datasets) ptrs.push_back(&d);
    const core::ComparisonView cmp(ptrs, spec);
    report.comparison(cmp, "comparison under shared visual scales");
  }
  const std::string out = args.one("out");
  report.save(out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_trace_record(const Args& args) {
  const std::string workload = args.one("workload");
  workload::Config cfg;
  cfg.ranks = args.count_or<std::uint32_t>("ranks", 0);
  DV_REQUIRE(cfg.ranks > 0, "--ranks required");
  cfg.total_bytes = args.count_or<std::uint64_t>("bytes", 0);
  DV_REQUIRE(cfg.total_bytes > 0, "--bytes required");
  cfg.window = args.num_or("window", 2.0e6);
  cfg.seed = args.count_or<std::uint64_t>("seed", 1);
  const auto t =
      trace::record(workload, cfg.ranks, workload::generate(workload, cfg));
  const std::string out = args.one("out");
  trace::save_binary(t, out);
  std::printf("recorded %zu messages (%s) from %s to %s\n",
              t.messages.size(),
              human_bytes(static_cast<double>(t.total_bytes())).c_str(),
              workload.c_str(), out.c_str());
  return 0;
}

int cmd_trace_info(const Args& args) {
  const auto t = trace::load_binary(args.one("trace"));
  const auto s = trace::summarize(t);
  std::printf("app:          %s\n", t.app.c_str());
  std::printf("ranks:        %u (%u active senders)\n", t.ranks,
              s.active_ranks);
  std::printf("messages:     %llu\n",
              static_cast<unsigned long long>(s.messages));
  std::printf("bytes:        %s\n",
              human_bytes(static_cast<double>(s.bytes)).c_str());
  std::printf("time span:    %.0f .. %.0f ns\n", s.t_first, s.t_last);
  std::printf("avg degree:   %.1f (max %u)\n", s.avg_degree, s.max_degree);
  std::printf("top 10%% share: %.0f%%\n", s.top_decile_share * 100);
  return 0;
}

int cmd_trace_replay(const Args& args) {
  obs::reset();
  const auto t = trace::load_binary(args.one("trace"));
  const auto p = args.count_or<std::uint32_t>("p", 3);
  const auto topo = topo::Dragonfly::canonical(p);
  const auto policy =
      placement::policy_from_string(args.one_or("placement", "contiguous"));
  const auto seed = args.count_or<std::uint64_t>("seed", 1);
  const auto placement =
      placement::place_jobs(topo, {{t.app, t.ranks, policy}}, seed);
  netsim::Params params;
  apply_fault_params(args, params);
  netsim::Network net(topo, routing::algo_from_string(
                                args.one_or("routing", "adaptive")),
                      params, seed);
  net.set_jobs(placement);
  net.set_labels(t.app, placement::to_string(policy), {t.app});
  net.add_messages(workload::map_to_terminals(t.messages, placement, 0));
  const auto fault_plan = parse_fault_args(args);
  if (!fault_plan.empty()) net.set_fault_plan(fault_plan);
  const double dt = args.num_or("sample-dt", 0.0);
  if (dt > 0) net.enable_sampling(dt);
  net.set_parallel(args.count_or<std::uint32_t>("parallel", 1));
  const auto run = net.run();
  const std::string out = args.one("out");
  save_run(run, out);
  std::printf("replayed %s (%u ranks) on %s: %llu packets, end=%.0f ns\n",
              t.app.c_str(), t.ranks, topo.describe().c_str(),
              static_cast<unsigned long long>(run.total_packets_finished()),
              run.end_time);
  std::printf("wrote %s\n", out.c_str());
  maybe_write_profile(args, out);
  return 0;
}

int cmd_info(const Args& args) {
  const auto run = metrics::RunMetrics::load(args.one("run"));
  std::printf("workload:   %s\nrouting:    %s\nplacement:  %s\n",
              run.workload.c_str(), run.routing.c_str(),
              run.placement.c_str());
  std::printf("dragonfly:  g=%u a=%u p=%u h=%u (%u terminals)\n", run.groups,
              run.routers_per_group, run.terminals_per_router,
              run.global_per_router,
              run.groups * run.routers_per_group * run.terminals_per_router);
  std::printf("end time:   %.0f ns\n", run.end_time);
  std::printf("traffic:    local=%s global=%s injected=%s\n",
              human_bytes(run.total_local_traffic()).c_str(),
              human_bytes(run.total_global_traffic()).c_str(),
              human_bytes(run.total_injected()).c_str());
  std::printf("packets:    %llu finished\n",
              static_cast<unsigned long long>(run.total_packets_finished()));
  if (!run.router_downtime.empty()) {
    double downtime = 0.0;
    std::uint64_t retries = 0, drops = 0, rerouted = 0;
    for (const auto d : run.router_downtime) downtime += d;
    for (const auto c : run.router_retries) retries += c;
    for (const auto c : run.router_drops) drops += c;
    for (const auto& t : run.terminals) rerouted += t.packets_rerouted;
    std::printf("faults:     %.0f router-ns down, %llu retries, %llu dropped,"
                " %llu rerouted\n",
                downtime, static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(drops),
                static_cast<unsigned long long>(rerouted));
  }
  if (run.has_time_series()) {
    std::printf("sampling:   dt=%.0f ns, %zu frames\n", run.sample_dt,
                run.local_traffic_ts.frames());
  }
  return 0;
}

serve::Server* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

int cmd_serve(const Args& args) {
  serve::ServeOptions opts;
  opts.listen = args.one_or("listen", opts.listen);
  opts.workers = args.count_or("workers", opts.workers);
  opts.max_queue = args.count_or("max-queue", opts.max_queue);
  opts.max_sessions = args.count_or("max-sessions", opts.max_sessions);
  opts.cache_capacity = args.count_or("cache-capacity", opts.cache_capacity);
  opts.cache_shards = args.count_or("cache-shards", opts.cache_shards);
  opts.ready_file = args.one_or("ready-file", "");

  serve::Server server(opts);
  const bool lazy = args.opts.count("lazy") != 0;
  for (const auto& ref : args.many("run")) {
    const auto [name, path] = serve::split_run_ref(ref);
    if (lazy) {
      server.catalog().attach(path, name);
      std::printf("attached '%s' from %s (lazy)\n", name.c_str(),
                  path.c_str());
    } else {
      server.catalog().load(path, name);
      std::printf("preloaded '%s' from %s\n", name.c_str(), path.c_str());
    }
  }
  // --store DIR: lazily attach every run of a RunStore (e.g. a sweep's
  // output) — entries materialize on first use, so sweep-scale catalogs
  // open instantly.
  for (const auto& dir : args.many("store")) {
    const metrics::RunStore store(dir);
    for (const auto& info : store.list()) {
      server.catalog().attach(store.path(info.name), info.name);
    }
    std::printf("attached store %s (%zu runs, lazy)\n", dir.c_str(),
                store.size());
  }

  g_server = &server;
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("dragonviz serve: listening on %s (%zu runs, %zu workers)\n",
              serve::Address::parse(opts.listen).describe().c_str(),
              server.catalog().size(), opts.workers);
  std::fflush(stdout);
  const int rc = server.listen_and_serve();
  g_server = nullptr;
  std::printf("dragonviz serve: stopped\n");
  return rc;
}

/// --spec for the client: a preset reference travels as-is; a script file
/// travels as its contents (the daemon parses the same text the CLI
/// would, so renders are byte-identical to `dragonviz render`).
std::string client_spec_payload(const Args& args) {
  const std::string& ref = args.one("spec");
  return core::is_preset_ref(ref) ? ref : read_file(ref);
}

int cmd_client(const Args& args) {
  auto client = serve::Client::connect(
      args.one_or("connect", "unix:/tmp/dragonviz.sock"));

  for (const auto& ref : args.many("load")) {
    const auto [name, path] = serve::split_run_ref(ref);
    json::Object p;
    p["path"] = json::Value(path);
    p["name"] = json::Value(name);
    const auto r = client.call("load", json::Value(std::move(p)));
    std::printf("loaded '%s' (%s / %s)\n", r.get_string("name", "").c_str(),
                r.get_string("workload", "").c_str(),
                r.get_string("routing", "").c_str());
  }

  if (args.opts.count("render") != 0) {
    json::Object p;
    const std::string run = args.one_or("run", "");
    if (!run.empty()) p["run"] = json::Value(run);
    p["spec"] = json::Value(client_spec_payload(args));
    const std::string w = args.one_or("window", "");
    if (!w.empty()) {
      const auto win = parse_time_window(w);
      p["window"] =
          json::Value(json::Array{json::Value(win.t0), json::Value(win.t1)});
    }
    json::Array focus;
    for (const auto& f : args.many("focus")) {
      const auto parts = split(f, ':');
      DV_REQUIRE(parts.size() == 2, "--focus must be ring:item");
      focus.push_back(json::Value(json::Array{
          json::Value(static_cast<double>(
              parse_count<std::uint32_t>("--focus", parts[0]))),
          json::Value(static_cast<double>(
              parse_count<std::uint32_t>("--focus", parts[1])))}));
    }
    if (!focus.empty()) p["focus"] = json::Value(std::move(focus));
    if (args.opts.count("size") != 0) {
      p["size"] = json::Value(args.num_or("size", 800));
    }
    if (args.opts.count("title") != 0) {
      p["title"] = json::Value(args.one("title"));
    }
    const auto r = client.call("render", json::Value(std::move(p)));
    const std::string out = args.one("out");
    std::ofstream os(out, std::ios::binary);
    DV_REQUIRE(os.good(), "cannot open: " + out);
    os << r.at("svg").as_string();
    std::printf("wrote %s (run '%s', %.0f rings, %.0f ribbons)\n",
                out.c_str(), r.get_string("run", "").c_str(),
                r.get_number("rings", 0), r.get_number("ribbons", 0));
  }

  if (args.opts.count("report") != 0) {
    json::Object p;
    json::Array runs;
    for (const auto& name : args.many("run")) runs.emplace_back(name);
    if (runs.size() == 1) {
      p["run"] = runs[0];
    } else if (!runs.empty()) {
      p["runs"] = json::Value(std::move(runs));
    }
    p["spec"] = json::Value(client_spec_payload(args));
    if (args.opts.count("title") != 0) {
      p["title"] = json::Value(args.one("title"));
    }
    const auto r = client.call("report", json::Value(std::move(p)));
    const std::string out = args.one("out");
    std::ofstream os(out, std::ios::binary);
    DV_REQUIRE(os.good(), "cannot open: " + out);
    os << r.at("html").as_string();
    std::printf("wrote %s\n", out.c_str());
  }

  if (args.opts.count("list") != 0) {
    const auto r = client.call("list");
    std::printf("%-24s %-20s %-12s %-18s %10s\n", "name", "workload",
                "routing", "placement", "terminals");
    for (const auto& run : r.at("runs").as_array()) {
      std::printf("%-24s %-20s %-12s %-18s %10.0f\n",
                  run.get_string("name", "").c_str(),
                  run.get_string("workload", "").c_str(),
                  run.get_string("routing", "").c_str(),
                  run.get_string("placement", "").c_str(),
                  run.get_number("terminals", 0));
    }
  }

  if (args.opts.count("stats") != 0) {
    std::printf("%s\n", json::dump(client.call("stats"), 2).c_str());
  }

  if (args.opts.count("shutdown") != 0) {
    client.call("shutdown");
    std::printf("daemon stopping\n");
  }
  return 0;
}

/// One subcommand: its handler, the flags it accepts (without "--"), and
/// its usage text — printed by `dragonviz <name> --help` and, for every
/// subcommand, by `dragonviz --help`. Every accepted flag appears in the
/// usage text (tests/test_app.cpp checks it).
struct Command {
  CliCommand info;
  int (*run)(const Args&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> k = {
      {{"sim",
        "sim      --p N --job workload[:ranks[:policy[:bytes]]] ... "
        "--out run.json\n"
        "           (--out *.dvr writes the packed format, else text JSON)\n"
        "           [--routing minimal|nonminimal|adaptive|par]\n"
        "           [--scale F] [--window NS] [--sample-dt NS] [--seed N]\n"
        "           [--parallel N]  (N >= 1; N>1: conservative parallel\n"
        "           engine with N group-partitions, packet backend only;\n"
        "           same seed => identical metrics for minimal/nonminimal\n"
        "           routing)\n"
        "           [--profile[=prof.json]]  (counters + phase breakdown)\n"
        "           [--faults plan.txt] [--fault SPEC ...]  (fault injection;\n"
        "           SPEC: link:g0.r1->g2.r0@T0[:T1] | link:g0->g2@T0[:T1] |\n"
        "           router:g1.r2@T0[:T1], times in ns, no T1 = permanent)\n"
        "           [--fault-retry-base NS] [--fault-retry-budget N]\n"
        "           [--backend packet|flow]  (flow: max-min water-filling\n"
        "           fluid model — same RunMetrics schema; measured ~28x\n"
        "           faster on the DF(3) structured sweep, ~3x on a DF(5)\n"
        "           MiniFE point, about even on heavy uniform random — see\n"
        "           EXPERIMENTS.md; no faults)\n"
        "           [--epoch-dt NS] (> 0; omit for auto)\n"
        "           [--flow-stepping event|fixed]  (event = run to the next\n"
        "           rate change; fixed = fixed-length epochs)\n"
        "           [--flow-coarsen]  (flow: one bundle per router pair —\n"
        "           much faster under uniform-random; terminals of a router\n"
        "           share latency/saturation attribution)\n",
        {"p", "job", "out", "routing", "scale", "window", "sample-dt", "seed",
         "parallel", "profile", "faults", "fault", "fault-retry-base",
         "fault-retry-budget", "backend", "epoch-dt", "flow-stepping",
         "flow-coarsen"}},
       cmd_sim},
      {{"sweep",
        "sweep    --store DIR [--backend packet|flow] [--p N]\n"
        "           [--workloads a,b|--workload W ...]\n"
        "           [--routings a,b|--routing R ...]"
        " [--scales 0.5,1|--scale F ...]\n"
        "           [--window NS] [--seed N] [--sample-dt NS]"
        " [--bytes-per-rank B]\n"
        "           [--epoch-dt NS] [--flow-stepping S] [--flow-coarsen]\n"
        "           [--parallel N]  (packet backend only)\n"
        "           [--format text|dvr] [--report out.html]"
        " [--spec S] [--title T]\n"
        "           [--profile[=prof.json]]\n"
        "           (fans the grid, one packed run per point, deterministic\n"
        "           content uids; report = side-by-side shared-scale panels)\n",
        {"store", "backend", "p", "workloads", "workload", "routings",
         "routing", "scales", "scale", "window", "seed", "sample-dt",
         "bytes-per-rank", "epoch-dt", "flow-stepping", "flow-coarsen",
         "parallel", "format", "report", "spec", "title", "profile"}},
       cmd_sweep},
      {{"render",
        "render   --run run.json --spec spec.json --out view.svg [--size PX]\n"
        "           [--title T]\n"
        "           [--focus ring:item]   (click-to-focus drill-down)\n"
        "           [--window T0:T1]      (time-window the aggregation, ns)\n"
        "           [--cache-stats] [--profile[=prof.json]]\n",
        {"run", "spec", "out", "size", "title", "focus", "window",
         "cache-stats", "profile"}},
       cmd_render},
      {{"store",
        "store    --dir runs/ [--action list|add|remove|repack]\n"
        "           [--run run.json] [--name NAME] [--format text|dvr]\n",
        {"dir", "action", "run", "name", "format"}},
       cmd_store},
      {{"pack",
        "pack     --in run.json --out run.dvr [--format text|dvr]\n"
        "           (lossless conversion between text and packed columnar\n"
        "           runs; every reader accepts both, bit-identically)\n",
        {"in", "out", "format"}},
       cmd_pack},
      {{"inspect",
        "inspect  --run run.dvr   (header, chunk directory, zone maps —\n"
        "           reads no column payload; see docs/RUN_FORMAT.md)\n",
        {"run"}},
       cmd_inspect},
      {{"session",
        "session  --run run.json --spec spec.json --out ui.svg\n"
        "           [--t0 NS --t1 NS | --window T0:T1] [--brush axis:lo:hi]\n"
        "           [--width PX] [--height PX] [--cache-stats]\n",
        {"run", "spec", "out", "t0", "t1", "window", "brush", "width",
         "height", "cache-stats"}},
       cmd_session},
      {{"compare",
        "compare  --run a.json --run b.json ... --spec spec.json --out c.svg\n"
        "           [--size PX]\n",
        {"run", "spec", "out", "size"}},
       cmd_compare},
      {{"export",
        "export   --run run.json --entity terminals|routers|local_links|"
        "global_links --out t.csv\n",
        {"run", "entity", "out"}},
       cmd_export},
      {{"info", "info     --run run.json\n", {"run"}}, cmd_info},
      {{"report",
        "report   --run run.json [--run more.json ...] --spec spec.json\n"
        "           --out report.html [--title T] [--window T0:T1]"
        " [--cache-stats]\n",
        {"run", "spec", "out", "title", "window", "cache-stats"}},
       cmd_report},
      {{"serve",
        "serve    [--listen unix:/path|tcp:PORT] [--run [name=]run.json ...]\n"
        "           [--lazy]  (attach preloads without materializing; runs\n"
        "           parse on first use — sweep-scale catalogs open instantly)\n"
        "           [--store DIR ...]  (lazily attach every run of a RunStore,\n"
        "           e.g. a sweep's output directory)\n"
        "           [--workers N] [--max-queue N] [--max-sessions N]\n"
        "           [--cache-capacity N] [--cache-shards N]"
        " [--ready-file F]\n"
        "           (multi-tenant query daemon; see docs/SERVE_PROTOCOL.md)\n",
        {"listen", "run", "lazy", "store", "workers", "max-queue",
         "max-sessions", "cache-capacity", "cache-shards", "ready-file"}},
       cmd_serve},
      {{"client",
        "client   [--connect ADDR] [--load [name=]run.json ...]\n"
        "           [--render --spec S --out view.svg [--run NAME] [--size PX]\n"
        "            [--title T] [--window T0:T1] [--focus ring:item]]\n"
        "           [--report --spec S --out report.html [--run NAME ...]]\n"
        "           [--list] [--stats] [--shutdown]\n",
        {"connect", "load", "render", "spec", "out", "run", "size", "title",
         "window", "focus", "report", "list", "stats", "shutdown"}},
       cmd_client},
      {{"trace-record",
        "trace-record --workload amg --ranks N --bytes B --out t.dvtr\n"
        "           [--window NS] [--seed N]\n",
        {"workload", "ranks", "bytes", "out", "window", "seed"}},
       cmd_trace_record},
      {{"trace-info", "trace-info   --trace t.dvtr\n", {"trace"}},
       cmd_trace_info},
      {{"trace-replay",
        "trace-replay --trace t.dvtr --p N --out run.json\n"
        "           [--placement P] [--routing R] [--seed N]\n"
        "           [--sample-dt NS] [--parallel N]\n"
        "           [--faults plan.txt] [--fault SPEC ...]\n"
        "           [--fault-retry-base NS] [--fault-retry-budget N]\n"
        "           [--profile[=prof.json]]\n",
        {"trace", "p", "out", "placement", "routing", "seed", "sample-dt",
         "parallel", "faults", "fault", "fault-retry-base",
         "fault-retry-budget", "profile"}},
       cmd_trace_replay},
  };
  return k;
}

constexpr const char* kNames =
    "\nworkloads: uniform_random nearest_neighbor all_to_all permutation\n"
    "           bisection amg amr_boxlib minife\n"
    "policies:  contiguous random_group random_router random_node\n";

void print_help() {
  std::printf(
      "dragonviz — visual analytics for large-scale dragonfly networks\n\n"
      "subcommands:\n");
  for (const auto& c : commands()) std::printf("  %s", c.info.usage.c_str());
  std::printf("%s", kNames);
}

bool is_help(const std::string& arg) { return arg == "--help" || arg == "-h"; }

}  // namespace

std::vector<CliCommand> cli_commands() {
  std::vector<CliCommand> out;
  for (const auto& c : commands()) out.push_back(c.info);
  return out;
}

int run_cli(int argc, char** argv) {
  if (argc < 2 || is_help(argv[1]) || std::string(argv[1]) == "help") {
    print_help();
    return argc < 2 ? 1 : 0;
  }
  const std::string cmd = argv[1];
  const auto& table = commands();
  const auto it = std::find_if(table.begin(), table.end(), [&](const auto& c) {
    return c.info.name == cmd;
  });
  if (it == table.end()) {
    throw Error("unknown subcommand: " + cmd + " (try --help)");
  }
  for (int i = 2; i < argc; ++i) {
    if (is_help(argv[i])) {
      std::printf("usage:\n  %s%s", it->info.usage.c_str(), kNames);
      return 0;
    }
  }
  return it->run(Args::parse(argc, argv, 2, cmd, it->info.flags));
}

}  // namespace dv::app
