// serve daemon under concurrent multi-tenant load.
//
// N synthetic clients connect to one in-process Server (socketpair per
// client — the exact serve_fd path a TCP/unix accept takes) and sweep the
// same brushing session: windowed renders of the overview preset across a
// shared set of time windows. Because every session's windows hash to the
// same canonical cache keys, the shared sharded ResultCache turns the
// fleet's workload into one computation per distinct view plus hits —
// the multi-tenant premise of the serve daemon.
//
// Emits bench_out/BENCH_serve.json and checks:
//   - shared-cache hit rate across 8 concurrent clients > 80%,
//   - the daemon-path render is byte-identical to the direct CLI path,
//   - every client observed identical bytes for the same view.
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace dv;

json::Value render_params(double t0, double t1) {
  json::Object p;
  p["run"] = json::Value("bench");
  p["spec"] = json::Value("preset:overview");
  if (t1 > t0) {
    p["window"] = json::Value(json::Array{json::Value(t0), json::Value(t1)});
  }
  return json::Value(std::move(p));
}

}  // namespace

int main() {
  bench::banner(
      "serve — multi-tenant query daemon over the shared result cache",
      "concurrent sessions brushing the same views share one cache: hit "
      "rate > 80% across 8 clients, daemon renders byte-identical to the "
      "direct path");

  // One sampled mid-size run, written to disk so the daemon loads it the
  // way production does.
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 3;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 1.0e5;
  cfg.sample_dt = 500.0;
  cfg.seed = 7;
  const auto run = app::run_experiment(cfg).run;
  const std::string run_path = bench::out_path("serve_run.json");
  run.save(run_path);

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsPerClient = 24;
  constexpr std::size_t kWindows = 6;  // distinct views shared by everyone

  serve::ServeOptions opts;
  opts.workers = 4;
  opts.max_queue = 256;
  opts.cache_capacity = 4096;
  serve::Server server(opts);
  server.catalog().load(run_path, "bench");

  std::vector<std::pair<double, double>> windows;
  for (std::size_t i = 0; i < kWindows; ++i) {
    const double t0 =
        run.end_time * 0.5 * static_cast<double>(i) / kWindows;
    windows.emplace_back(t0, t0 + run.end_time * 0.4);
  }

  // Every client renders the same window sequence; per-client first bytes
  // of view 0 are compared afterwards.
  std::vector<std::string> first_svg(kClients);
  std::atomic<std::uint64_t> requests_done{0};
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    std::vector<std::thread> conns;
    for (std::size_t c = 0; c < kClients; ++c) {
      int sv[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        std::fprintf(stderr, "socketpair failed\n");
        return 1;
      }
      conns.emplace_back([&server, fd = sv[0]] { server.serve_fd(fd); });
      clients.emplace_back([&, c, fd = sv[1]] {
        serve::Client client(fd);
        client.call("hello");
        for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
          const auto& [t0, t1] = windows[r % kWindows];
          const auto resp = client.call("render", render_params(t0, t1));
          if (r == 0) first_svg[c] = resp.at("svg").as_string();
          requests_done.fetch_add(1, std::memory_order_relaxed);
        }
        client.call("bye");
      });
    }
    for (auto& t : clients) t.join();
    for (auto& t : conns) t.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Post-hoc stats from a fresh control session.
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return 1;
  std::thread control([&server, fd = sv[0]] { server.serve_fd(fd); });
  json::Value stats;
  std::string daemon_svg;
  {
    serve::Client client(sv[1]);
    // Unwindowed render for the CLI byte-identity check.
    daemon_svg =
        client.call("render", render_params(0, 0)).at("svg").as_string();
    stats = client.call("stats");
  }
  control.join();

  const auto& cache = stats.at("cache");
  const double hit_rate = cache.get_number("hit_rate", 0.0);
  const double hits = cache.get_number("hits", 0.0);
  const double misses = cache.get_number("misses", 0.0);
  const double coalesced = cache.get_number("coalesced", 0.0);
  const auto& render_lat = stats.at("latency_ms").at("render");

  // Direct CLI path: fresh dataset + fresh engine from the same file, the
  // exact work `dragonviz render --spec preset:overview` does.
  const core::DataSet data(metrics::RunMetrics::load(run_path));
  core::QueryEngine engine(data);
  const core::ProjectionView view(data, core::preset("overview"), nullptr,
                                  &engine);
  const std::string direct_svg = view.to_svg(
      800, data.run().workload + " / " + data.run().routing);

  bool clients_identical = true;
  for (const auto& svg : first_svg) {
    clients_identical = clients_identical && svg == first_svg[0];
  }

  std::printf("%zu clients x %zu requests in %.2fs (%.0f req/s)\n", kClients,
              kRequestsPerClient, wall,
              static_cast<double>(requests_done.load()) / wall);
  std::printf("cache: %.0f hits / %.0f misses (%.1f%% hit rate, "
              "%.0f coalesced)\n",
              hits, misses, hit_rate * 100, coalesced);
  std::printf("render latency: p50 %.2f ms, p99 %.2f ms over %.0f requests\n",
              render_lat.get_number("p50_ms", 0),
              render_lat.get_number("p99_ms", 0),
              render_lat.get_number("count", 0));

  bench::shape_check(hit_rate > 0.8,
                     "shared-cache hit rate > 80% across concurrent clients");
  bench::shape_check(daemon_svg == direct_svg,
                     "daemon render byte-identical to the direct CLI path");
  bench::shape_check(clients_identical,
                     "all clients observed identical bytes per view");

  std::ofstream js(bench::out_path("BENCH_serve.json"));
  js << "{\n"
     << "  \"bench\": \"serve\",\n"
     << "  \"clients\": " << kClients << ",\n"
     << "  \"requests_per_client\": " << kRequestsPerClient << ",\n"
     << "  \"distinct_views\": " << kWindows << ",\n"
     << "  \"wall_seconds\": " << wall << ",\n"
     << "  \"requests_per_second\": "
     << static_cast<double>(requests_done.load()) / wall << ",\n"
     << "  \"cache_hits\": " << hits << ",\n"
     << "  \"cache_misses\": " << misses << ",\n"
     << "  \"cache_hit_rate\": " << hit_rate << ",\n"
     << "  \"coalesced\": " << coalesced << ",\n"
     << "  \"render_p50_ms\": " << render_lat.get_number("p50_ms", 0) << ",\n"
     << "  \"render_p99_ms\": " << render_lat.get_number("p99_ms", 0) << ",\n"
     << "  \"byte_identical_to_cli\": "
     << (daemon_svg == direct_svg ? "true" : "false") << ",\n"
     << "  \"provenance\": " << bench::provenance_json() << "\n"
     << "}\n";
  std::printf("wrote %s\n", bench::out_path("BENCH_serve.json").c_str());
  return bench::footer();
}
