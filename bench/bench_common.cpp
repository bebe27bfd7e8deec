#include "bench_common.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "obs/profile.hpp"

namespace dv::bench {

namespace {
int g_failures = 0;
int g_checks = 0;
std::string g_figure_slug;

/// "Figure 8 — minimal vs adaptive..." -> "figure_8" (first two words).
std::string slugify(const std::string& figure) {
  std::string s;
  for (const char c : figure) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!s.empty() && s.back() != '_') {
      if (s.find('_') != std::string::npos) break;  // keep "figure_8"
      s += '_';
    }
  }
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s.empty() ? "bench" : s;
}
}  // namespace

double median_seconds(int reps, const std::function<void()>& fn) {
  fn();  // warm-up, untimed
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  std::sort(secs.begin(), secs.end());
  const std::size_t n = secs.size();
  return n % 2 ? secs[n / 2] : 0.5 * (secs[n / 2 - 1] + secs[n / 2]);
}

std::string provenance_json() {
  std::ostringstream os;
  os << "{\"compiler\": \"" << __VERSION__ << "\", \"optimized\": "
#ifdef NDEBUG
     << "true"
#else
     << "false"
#endif
     << ", \"obs_enabled\": " << (obs::kEnabled ? "true" : "false")
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << "}";
  return os.str();
}

LinkClassStats link_stats(const std::vector<metrics::LinkMetrics>& links) {
  LinkClassStats s;
  for (const auto& l : links) {
    s.used += l.traffic > 0;
    s.traffic += l.traffic;
    s.sat += l.sat_time;
    s.peak_sat = std::max(s.peak_sat, l.sat_time);
  }
  return s;
}

TermStats term_stats(const metrics::RunMetrics& run, std::int32_t job) {
  TermStats s;
  double lat = 0, hops = 0;
  for (const auto& t : run.terminals) {
    if (job != -2 && t.job != job) continue;
    lat += t.sum_latency;
    hops += t.sum_hops;
    s.sat += t.sat_time;
    s.packets += t.packets_finished;
  }
  if (s.packets) {
    s.avg_latency = lat / static_cast<double>(s.packets);
    s.avg_hops = hops / static_cast<double>(s.packets);
  }
  return s;
}

void banner(const std::string& figure, const std::string& paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
  g_figure_slug = slugify(figure);
  obs::reset();  // profile covers everything the bench runs from here on
}

void shape_check(bool ok, const std::string& description) {
  ++g_checks;
  if (!ok) ++g_failures;
  std::printf("  [shape %s] %s\n", ok ? "OK      " : "MISMATCH", description.c_str());
}

int shape_failures() { return g_failures; }

int footer() {
  std::printf("----------------------------------------------------------------\n");
  std::printf("shape checks: %d/%d matched the paper\n", g_checks - g_failures,
              g_checks);
  if (obs::kEnabled && !g_figure_slug.empty()) {
    const obs::RunProfile profile = obs::capture();
    const std::string path = out_path(g_figure_slug + ".profile.json");
    profile.save(path);
    std::printf("profile: %s (%llu events, %.2fs wall)\n", path.c_str(),
                static_cast<unsigned long long>(
                    profile.counter_value("sim.events_processed")),
                profile.wall_seconds);
  }
  return 0;
}

std::string out_path(const std::string& name) {
  std::filesystem::create_directories("bench_out");
  return "bench_out/" + name;
}

app::ExperimentConfig paper_df5_app(const std::string& appname,
                                    routing::Algo algo) {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 5;  // 2,550 terminals, as in Sec. V-C
  app::JobSpec job;
  job.workload = appname;
  job.policy = placement::Policy::kContiguous;
  // Volumes: scaled defaults, except AMG raised so its bursts exercise the
  // inter-group links (DESIGN.md "Substitutions").
  if (appname == "amg") job.bytes = 150u << 20;
  cfg.jobs = {job};
  cfg.routing = algo;
  cfg.window = 5.0e5;
  cfg.seed = 7;
  return cfg;
}

app::ExperimentConfig fig13_config(placement::Policy amg,
                                   placement::Policy amr,
                                   placement::Policy minife) {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 6;  // the paper's 73x12x6 = 5,256-terminal network
  cfg.jobs = {{"amg", 1728, amg, 150u << 20},
              {"amr_boxlib", 1728, amr, 30u << 20},
              {"minife", 1152, minife, 735u << 20}};
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 5.0e5;
  cfg.seed = 23;
  return cfg;
}

}  // namespace dv::bench
