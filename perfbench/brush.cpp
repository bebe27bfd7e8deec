// brush: closed-loop interactive exploration of the design_point run. An
// in-process serve::Server (2 workers) holds the run in the text format
// `dragonviz sim` writes; 2 clients each render windowed preset:interactive
// views, one op in five setting an attribute brush first.
#include <sys/socket.h>

#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "core/presets.hpp"
#include "core/projection.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dv;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kSetups = 7;       ///< cold set-ups per run
constexpr std::size_t kCheckEvery = 25;  ///< keep every 25th SVG to verify
constexpr std::size_t kReplayOps = 100;  ///< traced: direct replays
constexpr double kBrushShare[kBrushLevels] = {0.05, 0.2, 0.5};

/// What the prepare step records next to the run file.
struct RunMeta {
  std::uint32_t frames = 0;
  double dt = 0.0;
  double traffic_max = 0.0;  ///< largest global-link traffic (brush scale)
};

RunMeta read_meta(const std::string& run_file) {
  RunMeta m;
  std::ifstream is(run_file + ".meta");
  is >> m.frames >> m.dt >> m.traffic_max;
  DV_REQUIRE(is && m.frames > 1 && m.dt > 0,
             "brush: missing or bad " + run_file + ".meta");
  return m;
}

/// The daemon and its connection threads.
class Daemon {
 public:
  Daemon() : server_(options()) {}
  ~Daemon() {
    server_.stop();
    for (auto& t : conns_) t.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::Client connect() {
    int sv[2] = {-1, -1};
    DV_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
               "socketpair failed");
    conns_.emplace_back([this, fd = sv[0]] { server_.serve_fd(fd); });
    return serve::Client(sv[1]);
  }

 private:
  static serve::ServeOptions options() {
    serve::ServeOptions o;
    o.workers = 2;
    return o;
  }
  serve::Server server_;
  std::vector<std::thread> conns_;
};

double brush_lo(const RunMeta& m, int level) {
  return m.traffic_max * kBrushShare[level - 1];
}

json::Value render_params(const RunMeta& m, const ViewOp& v) {
  json::Object p;
  p["run"] = json::Value("dp");
  p["spec"] = json::Value("preset:interactive");
  p["window"] = json::Value(json::Array{json::Value(v.f0 * m.dt),
                                        json::Value(v.f1 * m.dt)});
  return json::Value(std::move(p));
}

json::Value brush_params(const RunMeta& m, int level) {
  json::Object p;
  if (level == 0) {
    p["clear"] = json::Value(true);
  } else {
    p["axis"] = json::Value("traffic");
    p["lo"] = json::Value(brush_lo(m, level));
  }
  return json::Value(std::move(p));
}

/// One client's record of one op.
struct OpLog {
  ViewOp view;
  int brush = 0;  ///< brush level active for the render (0 = none)
  bool ok = false;
  bool traced = false;
  double ms = 0.0;
  std::string svg;  ///< kept for every kCheckEvery-th op
};

void client_loop(serve::Client& c, ViewGen gen, const RunMeta& m,
                 double deadline, Tracer* tracer, std::uint64_t op_base,
                 std::vector<OpLog>& log) {
  int brush = 0;
  for (std::size_t i = 0; now_s() < deadline; ++i) {
    OpLog e;
    e.view = gen.next();
    e.traced = tracer && i % 2 == 0;
    Tracer* tr = e.traced ? tracer : nullptr;
    const std::uint64_t op = op_base + i;
    const double t0 = now_s();
    try {
      ScopedSpan root(tr, "op.brush", op);
      if (e.view.brush >= 0) {
        ScopedSpan s(tr, "serve.brush", op);
        c.call("brush", brush_params(m, e.view.brush));
        brush = e.view.brush;
      }
      ScopedSpan s(tr, "serve.render", op);
      const json::Value resp = c.call("render", render_params(m, e.view));
      if (i % kCheckEvery == 0) e.svg = resp.at("svg").as_string();
      e.ok = true;
    } catch (const serve::RpcError&) {
      e.ok = false;
    } catch (const std::exception&) {
      e.ok = false;  // connection lost: every later call would fail too
      log.push_back(std::move(e));
      return;
    }
    e.ms = (now_s() - t0) * 1e3;
    e.brush = brush;
    log.push_back(std::move(e));
  }
}

/// The direct path: spec + window + brush filters exactly as the daemon
/// applies them, built on a DataSet and QueryEngine without the daemon.
core::ProjectionSpec direct_spec(const RunMeta& m, const core::DataSet& data,
                                 const OpLog& e) {
  core::ProjectionSpec spec = core::preset("interactive");
  spec.window.t0 = e.view.f0 * m.dt;
  spec.window.t1 = e.view.f1 * m.dt;
  if (e.brush > 0) {
    core::AttrFilter f;
    f.attr = "traffic";
    f.lo = brush_lo(m, e.brush);
    f.hi = std::numeric_limits<double>::infinity();
    for (auto& lvl : spec.levels) {
      if (data.table(lvl.entity).has_column(f.attr)) lvl.filters.push_back(f);
    }
  }
  return spec;
}

}  // namespace

void prepare_brush_run(std::uint64_t seed, const std::string& run_file) {
  const auto res = app::run_experiment(design_point_config(seed));
  res.run.save(run_file);
  double traffic_max = 0.0;
  for (const auto& l : res.run.global_links) {
    traffic_max = std::max(traffic_max, l.traffic);
  }
  std::ofstream(run_file + ".meta")
      << res.run.global_traffic_ts.frames() << " " << num(res.run.sample_dt)
      << " " << num(traffic_max) << "\n";
}

Outcome run_brush(const Options& opt, Tracer& tracer) {
  Outcome out;
  const RunMeta meta = read_meta(opt.run_file);

  // A cold set-up: start the daemon, load the catalog, serve the first
  // windowed view.
  const ViewOp first_view = ViewGen(opt.seed * 16 + 15, meta.frames).next();
  const auto cold_setup = [&] {
    const double t0 = now_s();
    auto daemon = std::make_unique<Daemon>();
    serve::Client c = daemon->connect();
    json::Object load;
    load["path"] = json::Value(opt.run_file);
    load["name"] = json::Value("dp");
    c.call("load", json::Value(std::move(load)));
    c.call("render", render_params(meta, first_view));
    out.setup_s.push_back(now_s() - t0);
    c.call("bye");
    return daemon;
  };

  // The first set-up serves the timed closed loop: each client waits for
  // its reply before sending the next request. Traced runs trace every
  // other op. Peak RSS is read right after, so it covers one daemon's
  // load and loop, not the repeated set-ups that follow.
  std::vector<std::vector<OpLog>> logs(kClients);
  json::Value stats;
  {
    const auto daemon = cold_setup();
    std::vector<serve::Client> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.push_back(daemon->connect());
      clients.back().call("hello");
    }
    const double start = now_s();
    const double deadline = start + opt.seconds;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(clients[c], ViewGen(opt.seed * 16 + c, meta.frames),
                    meta, deadline, opt.trace ? &tracer : nullptr,
                    (c + 1) << 32, logs[c]);
      });
    }
    for (auto& t : threads) t.join();
    out.loop_seconds = now_s() - start;
    out.peak_rss_mb = peak_rss_mb();
    stats = clients[0].call("stats");
    for (auto& c : clients) c.call("bye");
  }
  while (out.setup_s.size() < kSetups) cold_setup();

  for (const auto& log : logs) {
    for (const auto& e : log) {
      ++out.attempted;
      if (!e.ok) {
        ++out.failed;
        continue;
      }
      (e.traced ? out.traced_op_ms : out.op_ms).push_back(e.ms);
    }
  }
  if (out.failed) out.fail("brush: " + std::to_string(out.failed) +
                           " requests did not return ok");
  out.disk_bytes = static_cast<double>(disk_bytes(opt.run_file));

  // Output check: sampled daemon SVGs are byte-identical to a direct
  // DataSet + QueryEngine + ProjectionView render of the same view.
  Tracer* tr = opt.trace ? &tracer : nullptr;
  const std::uint64_t direct_op = 1;
  std::unique_ptr<metrics::RunMetrics> run;
  {
    ScopedSpan s(tr, "metrics.load", direct_op);
    run = std::make_unique<metrics::RunMetrics>(
        metrics::RunMetrics::load(opt.run_file));
  }
  std::unique_ptr<core::DataSet> data;
  {
    ScopedSpan s(tr, "core.dataset", direct_op);
    data = std::make_unique<core::DataSet>(*run);
  }
  const std::string title = run->workload + " / " + run->routing;
  {
    core::QueryEngine engine(*data);
    for (const auto& log : logs) {
      for (std::size_t i = 0; i < log.size(); ++i) {
        const OpLog& e = log[i];
        if (!e.ok || e.svg.empty()) continue;
        const core::ProjectionView view(*data, direct_spec(meta, *data, e),
                                        nullptr, &engine);
        if (view.to_svg(800, title) != e.svg) {
          out.fail("brush: daemon SVG of op " + std::to_string(i) +
                   " differs from the direct render");
          ++out.failed;
        }
      }
    }
  }

  if (opt.trace) {
    // Per-layer times: replay client 0's first ops directly, in order, on
    // an engine with the daemon's cache capacity.
    core::QueryEngine engine(*data, serve::ServeOptions{}.cache_capacity);
    std::vector<std::uint64_t> replay_ops;
    std::vector<double> rt_ms, direct_ms;
    const auto& log = logs[0];
    for (std::size_t i = 0; i < log.size() && i < kReplayOps; ++i) {
      const std::uint64_t op = (std::uint64_t{9} << 32) + i;
      const double t0 = now_s();
      std::unique_ptr<core::ProjectionView> view;
      {
        ScopedSpan s(&tracer, "core.projection", op);
        view = std::make_unique<core::ProjectionView>(
            *data, direct_spec(meta, *data, log[i]), nullptr, &engine);
      }
      {
        ScopedSpan s(&tracer, "core.svg", op);
        (void)view->to_svg(800, title);
      }
      direct_ms.push_back((now_s() - t0) * 1e3);
      if (log[i].ok) rt_ms.push_back(log[i].ms);
      replay_ops.push_back(op);
    }
    const auto spans = tracer.spans();
    std::vector<std::int64_t> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "op.brush") roots.push_back(static_cast<std::int64_t>(i));
    }
    const json::Value& cache = stats.at("cache");
    auto& L = out.layers;
    L["metrics.load_ms"] = span_seconds(spans, "metrics.load", direct_op) * 1e3;
    L["metrics.run_bytes"] = out.disk_bytes;
    L["core.dataset_ms"] = span_seconds(spans, "core.dataset", direct_op) * 1e3;
    L["core.projection_ms"] = layer_ms(spans, "core.projection", replay_ops);
    L["core.svg_ms"] = layer_ms(spans, "core.svg", replay_ops);
    L["serve.overhead_ms"] = median(rt_ms) - median(direct_ms);
    L["serve.cache_hits"] = cache.get_number("hits", 0);
    L["serve.cache_misses"] = cache.get_number("misses", 0);
    L["serve.cache_evictions"] = cache.get_number("evictions", 0);
    L["serve.cache_coalesced"] = cache.get_number("coalesced", 0);
    L["trace.coverage_min"] = min_coverage(spans, roots);
  }
  return out;
}

}  // namespace perfbench
